(** Canonical serialized form of policy programs.

    The blob — not the in-memory tree — is what client and provider
    negotiate over and what gets hashed into the enclave measurement,
    so encoding must be canonical (one byte string per program) and
    decoding must be strict: unknown tags, out-of-range slots, oversize
    tables, over-cap charge repeats, truncation and trailing bytes are
    all hard errors. [decode] never raises, whatever the input. *)

val format_tag : string
(** Blob magic, ["EGPVM1"]. Doubles as the DSL version tag folded into
    {!Cache.key}: bumping the format invalidates cached verdicts. *)

val to_bytes : Prog.t -> string

val decode : string -> (Prog.t, string) result
(** Strict inverse of {!to_bytes}: [decode (to_bytes p) = Ok p], and
    every [Ok] result satisfies the {!Prog} static limits. *)

val digest_hex : Prog.t -> string
