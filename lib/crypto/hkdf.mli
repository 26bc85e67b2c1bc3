(** HKDF (RFC 5869) over HMAC-SHA256: the extract-then-expand key
    schedule the streaming record layer derives its traffic keys from.
    Verified against the RFC 5869 test vectors in [test_crypto.ml]. *)

val extract : salt:string -> string -> string
(** [extract ~salt ikm] is the 32-byte pseudorandom key
    [HMAC-SHA256(salt, ikm)]. *)

val expand : prk:string -> info:string -> int -> string
(** [expand ~prk ~info n] is [n] bytes of output keying material
    (1 <= n <= 8160). Raises [Invalid_argument] outside that range. *)

val derive : salt:string -> ikm:string -> info:string -> int -> string
(** [extract] followed by [expand] — one labelled derivation. *)
