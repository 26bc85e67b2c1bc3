(** Deterministic HMAC-DRBG (NIST SP 800-90A, HMAC-SHA256 instance).

    All randomness in the reproduction — enclave ephemeral keys, client
    AES keys, workload synthesis — flows through seeded DRBG instances so
    every experiment is bit-for-bit reproducible. *)

type t

val create : ?personalization:string -> string -> t
(** [create seed] instantiates from entropy [seed] (any length). *)

val generate : t -> int -> string
(** [generate t n] returns [n] pseudo-random bytes and advances state. *)

val byte : t -> int
(** One byte as an int in [0, 255]. *)

val uniform : t -> int -> int
(** [uniform t n] draws uniformly from [0, n-1] (rejection sampling).
    @raise Invalid_argument if [n <= 0]. *)

val split : t -> string -> t
(** [split t label] forks an independent child generator; the parent
    advances. Used to give each synthesized function its own stream. *)
