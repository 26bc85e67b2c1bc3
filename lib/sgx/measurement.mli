(** Enclave measurement (MRENCLAVE analogue): a SHA-256 digest over the
    ordered log of all enclave-building activity — ECREATE parameters,
    each EADD'd page's address and permissions, and EEXTEND records of
    page contents in 256-byte chunks, as in the SGX programming
    reference. Attestation signs this digest. *)

type t

val start : base:int -> size:int -> t
(** Begin a log with the ECREATE record. *)

val page : t -> vaddr:int -> perms:string -> content:string -> unit
(** One page: its EADD record (address and permission string, e.g.
    ["rw-"]), then the EEXTEND records measuring [content] in 256-byte
    chunks.

    Exactness: the log afterwards is byte-for-byte the log with these
    records appended, whatever the memo below holds, so {!finalize}
    computes the measurement of exactly the pages added.

    The memo: a process-wide table, shared by every domain under one
    mutex, maps the log's exported hash state before a page (the
    whole SHA-256 state: chaining words, byte count and buffered tail)
    to the pages seen there, each with the state it led to. A page
    whose address, permissions and bytes all equal a remembered one's
    (physical equality first, then [String.equal]) restores that state
    in place instead of hashing; any other page is hashed and
    remembered. Two domains that miss on the same page compute the same
    state, so a race only hashes twice. The memo keeps the page strings
    it remembers alive. It holds at most {!memo_cap} entries and is
    emptied when an insert finds it full. *)

val memo_cap : int
(** The memo's entry bound, a constant (32,768: two default-config
    enclave builds, or fifteen fast-config ones). *)

val memo_entries : unit -> int
(** How many entries the memo holds now; for tests of its bound. *)

val measure_data : t -> tag:string -> content:string -> unit
(** A custom measured record: [tag] then the length-prefixed [content].
    Used for non-page configuration that must be attested — e.g. the
    negotiated policy-set digest. *)

val snapshot : t -> string
(** The build log's intermediate hash state, serialized to a fixed
    [snapshot_len]-byte string. This is the SGX-MAGE primitive: a
    snapshot taken before a common auxiliary record lets anyone holding
    the record derive the final measurement via [resume] — without
    replaying the build and without a trusted third party publishing
    final measurements. Raises if the log is already finalized. *)

val snapshot_len : int

val resume : string -> t option
(** Continue a build log from a [snapshot]. [None] if the string is not
    a well-formed snapshot. *)

val finalize : t -> string
(** EINIT: the 32-byte measurement. Idempotent afterwards. *)
