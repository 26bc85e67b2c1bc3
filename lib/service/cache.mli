(** Content-addressed verdict cache.

    EnGarde's verdict is a pure function of three inputs: the ELF bytes,
    the agreed policy set, and the version of the reference libc hash
    database the library-linking policy compares against. The cache key
    binds all three — [SHA-256(ELF) x policy-set fingerprint x libc-db
    version] — so a provider upgrading its reference database (or a
    client renegotiating policies) can never be served a verdict
    computed under the old rules, while resubmissions of an
    already-judged binary skip disassembly and policy checking entirely
    ("verify once, attest the verdict"). Rejections are cached too: the
    same binary fails the same policies for the same reason.

    Eviction is LRU over a fixed capacity; hits, misses and evictions
    are counted for the metrics registry. Every operation runs under
    the cache's one mutex. In the service only the scheduler thread
    touches the cache — pipelines running on pool domains never do. *)

type verdict = {
  accepted : bool;
  detail : string;              (** what the client is told *)
  measurement : string;         (** enclave measurement of the judging run *)
  programs_digest : string;
      (** negotiated policy-set digest of the judging run; [""] for
          runs without a negotiation step *)
  instructions : int;
  disassembly_cycles : int;     (** modelled cost of the original run *)
  policy_cycles : int;
  loading_cycles : int;
  findings : Engarde.Policy.finding list;
      (** structured violations of the judging run (empty on accept) —
          cached so a resubmission gets the full machine-readable
          rejection, not just the rendered detail string *)
}

val encode_verdict : verdict -> string
(** Serialize for storage/transmission; free-text fields are escaped so
    the form is line/tab-structured and round-trips exactly. *)

val findings_digest : Engarde.Policy.finding list -> string
(** SHA-256 of {!encode_findings} (32 raw bytes). *)

val audit_leaf : key:string -> verdict -> Audit.Log.leaf
(** The transparency-log leaf of a verdict filed under [key]: what the
    scheduler appends, and what a fleet peer rebuilds from a pushed
    verdict to check its inclusion proof. *)

val decode_verdict : string -> verdict option
(** Inverse of {!encode_verdict}; [None] on any malformed input. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

val key :
  payload:string ->
  policy_names:string list ->
  libc_db_version:string ->
  programs_digest:string ->
  string
(** The content address. The policy-set fingerprint is order- and
    duplicate-insensitive (policies form a set; [run_all] order does not
    change any verdict). [programs_digest] — the negotiated program-set
    digest — and the policy-DSL format version are folded in too, so
    verdicts computed under different programs (or an incompatible VM
    revision) never collide. *)

type t

val create : capacity:int -> t
(** An empty LRU cache. [capacity] must be positive. *)

val find : t -> string -> verdict option
(** Counts a hit or a miss; a hit moves the entry to most-recently-used. *)

val add : t -> string -> verdict -> unit
(** Inserting at capacity evicts the least-recently-used entry.
    Re-inserting an existing key refreshes its value and recency. *)

val mem : t -> string -> bool
(** Pure membership probe: no counter or recency side effects. *)

val stats : t -> stats

val export : t -> string
(** Serialize every entry, least recently used first, so that replaying
    {!add} on import reproduces the recency order exactly and a
    smaller-capacity importer retains the hottest entries. Hit/miss
    counters are not part of the state. *)

val import : t -> string -> (int, string) result
(** Load an {!export} blob into [t] (normally freshly created); returns
    the number of entries inserted. Malformed input — wrong magic,
    truncation, an entry that does not decode — is an [Error] naming
    the problem; entries already inserted before the error remain. *)
