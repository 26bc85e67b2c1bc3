(** Arbitrary-precision natural numbers, from scratch.

    RSA inside the model enclave needs multi-precision arithmetic and the
    sealed container has no zarith, so this module implements naturals as
    little-endian arrays of 26-bit limbs. All values are non-negative;
    subtraction of a larger number raises. *)

type t

val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
(** [Some n] when the value fits in an OCaml [int]. *)

val of_bytes_be : string -> t
(** Big-endian unsigned interpretation (leading zero bytes fine). *)

val to_bytes_be : ?width:int -> t -> string
(** Minimal big-endian encoding, or left-zero-padded to [width] bytes.
    @raise Invalid_argument if the value does not fit in [width]. *)

val of_hex : string -> t
val to_hex : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_odd : t -> bool

val bit_length : t -> int
(** Position of the highest set bit plus one; 0 for zero. *)

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], [0 <= r < b].
    @raise Division_by_zero if [b] is zero. *)

val rem : t -> t -> t

val gcd : t -> t -> t

val invmod : t -> t -> t
(** [invmod a m] is the inverse of [a] modulo [m].
    @raise Not_found if [gcd a m <> 1]. *)

val modpow : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation. Uses Montgomery multiplication when the
    modulus is odd (the RSA case); falls back to divide-and-reduce
    square-and-multiply otherwise. *)

val is_probable_prime : (int -> string) -> t -> bool
(** Trial division by small primes, then 20 Miller–Rabin rounds with
    bases drawn from the supplied byte source. *)

val generate_prime : (int -> string) -> int -> t
(** [generate_prime rand bits] returns an odd probable prime with the
    top bit set (exactly [bits] bits). *)

val pp : Format.formatter -> t -> unit
