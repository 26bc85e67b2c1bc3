(** One inspector node of a fleet.

    A node is a full standalone inspection service — its own
    {!Service.Scheduler} (hence its own model enclave, verdict cache,
    audit log and metrics registry) — plus the peer protocol that turns
    N such services into one logical cache:

    + {e handshake}: on [Peer_hello {node; nonce}] a node answers with
      a quote over its MAGE-derived fleet identity binding the nonce;
      the challenger checks it against the identity it derived itself
      ({!Manifest.derive_peer}). Replayed hellos are rejected.
    + {e verdict exchange}: a completed local inspection is pushed to
      every attested peer as [Verdict_push] carrying the canonical
      verdict, a quote binding its cache key and findings digest, and
      the sender's latest quote-signed audit checkpoint with an
      inclusion proof for the verdict's leaf. The receiver imports into
      its cache only if {e all} of: sender attested and not
      quarantined; quote valid under the pinned device key, for the
      derived identity, binding exactly this verdict; checkpoint signed
      by the same identity and proving inclusion of the reconstructed
      leaf. Every failure is a distinct {!Service.Metrics.fleet_reject}.
    + {e trust revocation}: a peer that presents a forged or
      mis-identified quote is quarantined — nothing it says afterwards
      is imported.

    Imports never append audit leaves: a node's log records only the
    verdict events it answers itself, which keeps each node's audit
    root identical to a standalone scheduler serving the same
    substream. Provenance for every import is retained and
    re-verifiable ({!provenance}). *)

type evidence = {
  peer : int;
  quote : Sgx.Quote.t;  (** binds the verdict's key and findings digest *)
  checkpoint : Audit.Log.checkpoint;
  index : int;  (** the verdict's leaf index in the peer's log *)
  proof : string list;
}
(** Everything retained about one imported verdict — sufficient to
    re-run the full trust rule later against the pinned peer key. *)

type t

val create :
  manifest:Manifest.t ->
  id:int ->
  device:Sgx.Quote.device ->
  peer_publics:Crypto.Rsa.public array ->
  nonce_seed:string ->
  Service.Scheduler.config ->
  t
(** [peer_publics.(i)] is node [i]'s pinned attestation key (trusted
    hardware provisioning; MAGE removes the third party for software
    identity, not for device keys). The scheduler config must have
    [audit = true] — inclusion proofs require the log — and raises
    otherwise. *)

val scheduler : t -> Service.Scheduler.t
val mux : t -> Channel.Session.Mux.mux

val connect : t -> t -> unit
(** Wire a loopback transport pair between two nodes and attach each
    end to the respective mux (connection ids ["peer-<i>"]). *)

val begin_handshake : t -> unit
(** Send a fresh [Peer_hello] to every connected peer. *)

val peer_public : t -> int -> Crypto.Rsa.public
(** The pinned device key for fleet member [peer] — what every quote
    from that peer (and any retained {!provenance}) verifies against. *)

val attested : t -> int -> bool
val quarantine_peer : t -> int -> unit
val quarantined : t -> int -> bool

val handle_peer : t -> peer:int -> Channel.Wire.t -> unit
(** Process one peer-protocol message as if it had arrived from [peer]'s
    connection. {!pump} calls this for mux traffic; rogue-peer tests
    call it directly with crafted messages. *)

val request_pull : t -> peer:int -> key:string -> unit
(** Send [peer] a [Verdict_pull] for [key] — the work-stealing warm-up:
    a job spilled away from its rendezvous node asks the warm node for
    its verdict before re-inspecting. *)

val push_for : t -> key:string -> Channel.Wire.t option
(** Build a [Verdict_push] for a verdict this node computed (or
    answered) itself: quote, fresh checkpoint, inclusion proof. [None]
    if the key has no locally-logged verdict. *)

val pump : t -> Service.Scheduler.completion list
(** One cooperative round: poll the mux and handle peer messages, tick
    the scheduler, drain completions. Freshly computed verdicts are
    pushed to all attested peers and a checkpoint is gossiped when the
    log grew. Returns the round's completions. *)

val provenance : t -> string -> evidence option
(** The retained import evidence for a cache key, if the verdict under
    that key was imported from a peer. *)

val imported_count : t -> int
val cross_hits : t -> int
(** Completions served from the cache where the entry had been imported
    from a peer — the fleet actually sharing work. *)

val rejections : t -> (int * Service.Metrics.fleet_reject) list
(** Rejected peer messages, newest first: (peer, reason). The same
    events tick the [fleet_rejected_*] metrics. *)
