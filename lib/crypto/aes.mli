(** AES-128/AES-256 block cipher (FIPS 197) plus CTR-mode streaming.

    The SGX model uses AES to encrypt EPC pages at rest, and the
    provisioning channel uses AES-256-CTR for the client's code blocks
    (the paper's client wraps a 256-bit AES key under the enclave's RSA
    public key and then streams encrypted content).

    Table-driven and not constant-time: the model claims no resistance
    to cache-timing side channels (DESIGN.md §7). *)

type key
(** An expanded key schedule for the forward cipher. There is no block
    decryption: CTR mode only ever encrypts counter blocks. *)

val expand : string -> key
(** [expand raw] builds the schedule from a 16-byte (AES-128) or 32-byte
    (AES-256) raw key.
    @raise Invalid_argument on any other key length. *)

val encrypt_block : key -> string -> string
(** Encrypt exactly one 16-byte block.
    @raise Invalid_argument on any other block length. *)

val ctr : key:key -> nonce:string -> string -> string
(** [ctr ~key ~nonce data] en/decrypts [data] (any length) in CTR mode.
    [nonce] is 16 bytes and forms the initial counter block; the counter
    occupies the last 8 bytes, big-endian, and wraps modulo 2{^64}
    without touching the first 8. CTR is an involution: applying it
    twice with the same parameters returns the original data.
    @raise Invalid_argument unless [nonce] is 16 bytes, even when [data]
    is empty. *)

val ctr_at : key:key -> nonce:string -> offset:int -> string -> string
(** Like {!ctr} but starts the keystream at byte [offset] of the stream,
    allowing out-of-order block decryption ([offset] need not be a
    multiple of 16).
    @raise Invalid_argument on a negative [offset] or a nonce that is not
    16 bytes. *)
