(** Block encryption for the code transfer: AES-256-CTR keyed by the
    client's session key, one keystream positioned by absolute stream
    offset (so blocks can be decrypted in arrival order), with an
    HMAC-SHA256 tag over the block header and ciphertext. The paper's
    enclave receives "the content in encrypted blocks, which EnGarde's
    crypto library decrypts to form an in-memory executable
    representation".

    Cipher and MAC keys come from one {!Crypto.Hkdf} schedule, and a
    per-transfer counter is mixed into the CTR nonce (and bound by the
    MAC), so consecutive transfers on one session draw from disjoint
    keystreams. New code should prefer the streaming record layer
    ({!Record}); this legacy framing is kept for the paper-faithful
    monolithic flow (the [--legacy-channel] knob). *)

type t

val create : key:string -> t
(** [key] is the 32-byte AES-256 session key. *)

val transfers : t -> int
(** How many transfers have completed on this session — the counter
    mixed into the CTR nonce. *)

val finish_transfer : t -> unit
(** Advance the transfer counter. [payload_messages] and the [Mux]
    call this at each transfer boundary; both ends must agree. *)

val encrypt_block : t -> seq:int -> offset:int -> string -> Wire.t
(** Build an authenticated [Code_block] message. *)

val decrypt_block :
  t -> seq:int -> offset:int -> ciphertext:string -> tag:string -> string option
(** [None] when the tag does not verify (tampered or wrong key). *)

val split_payload : string -> (int * int * string) list
(** [(seq, offset, chunk)] page-sized pieces covering the payload. *)

val policy_set_digest : (string * string) list -> string
(** Canonical 32-byte digest of a negotiated policy-program set
    ([(name, blob)] pairs, order-sensitive). The provider measures it
    into the enclave; the enclave recomputes it over the client's
    {!Wire.Policy_offer} and accepts only on a match. *)

val payload_messages : t -> string -> Wire.t list
(** The full client-side transfer: every authenticated [Code_block]
    followed by the [Transfer_done] trailer. Advances the transfer
    counter. *)

(** Multiplexed server loop: the front door of the inspection service.

    One [mux] watches many client connections (one session key each),
    round-robin — [poll] consumes at most one wire message per
    connection per call, so a client streaming a large executable cannot
    starve the others. Completed, digest-verified payloads surface as
    [Payload] events for the service's job queue; authentication
    failures surface as [Corrupt] (the connection's reassembly state is
    dropped, the connection itself stays usable). Connections are
    persistent: after a [Transfer_done] the client may send another
    payload on the same session. A connection accepts [Code_block]
    transfers ({!payload_messages}); like handshake traffic, streaming
    [Record]s are not its to interpret and are dropped. *)
module Mux : sig
  type event =
    | Payload of { conn : string; payload : string }
    | Corrupt of { conn : string; why : string }
    | Peer of { conn : string; msg : Wire.t }
        (** a fleet peer-protocol message ([Peer_hello], [Peer_quote],
            [Verdict_push], [Verdict_pull], [Checkpoint_gossip]) —
            authenticated by SGX quotes at the fleet layer rather than
            by this connection's session keys, so it is surfaced
            verbatim for the fleet node to judge *)

  type mux

  val create : unit -> mux

  val attach : mux -> id:string -> key:string -> Transport.endpoint -> unit
  (** [key] is the connection's 32-byte session key (agreed out of band
      or via the attestation handshake). Raises [Invalid_argument] on a
      duplicate [id]. *)

  val connections : mux -> string list
  (** Ids in attach order — the round-robin order [poll] uses. *)

  val poll : mux -> event list
  (** One round-robin sweep: at most one message consumed per
      connection. *)

  val pending : mux -> bool
  (** Whether any connection has unconsumed incoming traffic. *)

  val reply : mux -> id:string -> Wire.t -> unit
  (** Send a message (typically a [Verdict]) back to one client. *)
end
