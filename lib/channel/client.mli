(** The client-side driver of the provisioning protocol.

    The client trusts only: the SGX device attestation key (published by
    the manufacturer), and the expected measurement of an enclave
    freshly provisioned with EnGarde plus the agreed policy modules
    (both provider and client can recompute it, since EnGarde's code is
    public — Section 3's mutual-trust argument). Everything else —
    network, host OS, hypervisor, the provider — is adversarial. *)

type t

type failure =
  | Bad_quote              (** signature invalid under the device key *)
  | Wrong_measurement of string  (** hex of the measurement we saw *)
  | Bad_enclave_key        (** report data does not bind the RSA key *)
  | Protocol of string

val failure_to_string : failure -> string

val create :
  ?programs:(string * string) list ->
  device_pub:Crypto.Rsa.public ->
  expected_measurement:string ->
  seed:string ->
  payload:string ->
  unit ->
  t
(** [payload] is the ELF executable to ship. [seed] drives the client's
    session-key generation deterministically. [programs] is the
    negotiated policy-program set ([(name, canonical blob)] pairs) the
    client will offer before streaming code; empty means no
    negotiation step. *)

val offered_digest : t -> string option
(** {!Session.policy_set_digest} of [programs]; [None] when the client
    negotiates nothing. *)

val policy_offer : t -> Wire.t option
(** The [Policy_offer] message, when there is a program set to offer. *)

val challenge : t -> Wire.t
(** Step 1: the attestation challenge. *)

val handle_quote : t -> Wire.t -> (Wire.t, failure) result
(** Step 2: verify the quote; on success returns the [Wrapped_key]
    message carrying the AES-256 session key under the enclave's RSA
    public key. *)

val code_messages : t -> Wire.t list
(** Step 3: the encrypted [Code_block]s followed by [Transfer_done]. *)

val read_verdict : Wire.t -> (bool * string, failure) result

(** {1 Streaming transfers and 0-RTT resumption} *)

val stream_seq : t -> Wire.t Seq.t
(** Step 3, streaming flavor: the payload as a lazy one-shot sequence
    of EGREC1 [Record]s (see {!Record.payload_record_seq}), under
    traffic keys derived from the wrapped session key. Requires a
    successful {!handle_quote} first. *)

val resumption : t -> string option
(** The resumption secret this session's ticket will bind; [None]
    before the handshake completes. *)

val resume_opener : t -> ticket:string -> Wire.t
(** The [Resume] message replacing [Client_hello]: the stored ticket
    plus a fresh nonce salting the 0-RTT traffic keys. *)

val zero_rtt_seq : t -> resumption:string -> Wire.t Seq.t
(** The payload streamed immediately after {!resume_opener}, as a lazy
    one-shot record sequence under keys derived from the stashed
    resumption secret — no RSA handshake. *)

val check_resume_accept : t -> resumption:string -> Wire.t -> bool
(** Whether a [Resume_accept] proves the inspector unsealed our
    ticket. *)

val resumed_secret : t -> resumption:string -> string
(** The next resumption secret after a successful 0-RTT run (ratcheted
    from the 0-RTT traffic secret both ends hold). *)
