(** SHA-256 (FIPS 180-4), implemented from scratch.

    The whole reproduction runs inside a model enclave that cannot link
    against OpenSSL, so the hash used for enclave measurement, the policy
    hash database and HMAC is this module. *)

type ctx
(** Streaming hash context. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap byte buffer (structural alias — unifies with the aliases
    the ELF and x86 layers declare, without a dependency on them). *)

val init : unit -> ctx

val update : ctx -> string -> unit
(** [update ctx s] absorbs all bytes of [s]. *)

val update_sub : ctx -> string -> pos:int -> len:int -> unit
(** Absorb [len] bytes of [s] starting at [pos]. *)

val update_big_sub : ctx -> bigstring -> pos:int -> len:int -> unit
(** Absorb [len] bytes of an off-heap buffer starting at [pos]. Same
    digest as feeding the equivalent string through {!update_sub}. *)

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused. *)

val state_len : int
(** Byte length of a serialized midstate (fixed, 104). *)

val export_state : ctx -> string
(** Serialize the streaming state (chaining words, byte count and the
    buffered partial block) to a fixed [state_len]-byte string. The
    context remains usable. *)

val import_state : string -> ctx option
(** Rebuild a context from [export_state] output, so hashing can resume
    where the exporter stopped: resuming and absorbing the rest of a
    message gives the same digest as one-shot hashing. [None] if the
    string is not a well-formed midstate. *)

val import_state_into : ctx -> string -> bool
(** [import_state_into ctx s] overwrites [ctx] with the midstate [s] in
    place and allocates nothing, so [ctx] continues exactly as a context
    from [import_state s] would. [false], with [ctx] untouched, if [s] is
    not a well-formed midstate. *)

val digest : string -> string
(** One-shot hash of a full string; 32 raw bytes. *)

val hex : string -> string
(** Lowercase hex encoding of arbitrary bytes (used to print digests). *)

val digest_hex : string -> string
(** [hex (digest s)]. *)
