(** Fast deterministic PRNG (splitmix64) for bulk, non-cryptographic
    randomness — workload synthesis draws millions of values, which
    would be needlessly slow through HMAC-DRBG. Seed it from a {!Drbg}
    stream to keep the whole pipeline reproducible from one seed. *)

type t

val create : string -> t
(** Seed from arbitrary bytes (hashed down to 64 bits). *)

val uniform : t -> int -> int
(** [uniform t n] in [0, n-1].
    @raise Invalid_argument if [n <= 0]. *)

val bool : t -> bool
