(** Fleet group manifest: MAGE-derived mutual identities.

    Every inspector node in a fleet runs the same judging pipeline (so
    verdicts are node-independent), but each node needs its own
    attestable identity for the peer protocol — a quote from node 2
    must not be replayable as node 5. The manifest builds those
    identities the MAGE way, with no third party publishing final
    measurements:

    + each node's pre-aux build log measures the shared service
      measurement (tag ["EGFLEET1"]) and its own index (["EGNODE1\x00"]),
      then stops — its intermediate hash state is the node's
      {e snapshot};
    + all snapshots concatenate into one auxiliary record
      ({!Sgx.Mage.aux_of_snapshots});
    + every node folds that same record into its log as the final
      measured item (tag [EGMAGE1]) and finalizes.

    Each identity therefore commits to every member's snapshot, and
    from its own aux record a node {e derives} any peer's expected
    identity ({!derive_peer}) — resume the peer's snapshot, fold the
    aux record it already holds, finalize. Mutual attestation reduces
    to an equality check against a value each side computes alone.

    The fleet node identity is deliberately distinct from the per-job
    judging measurement: job verdicts, findings and audit leaves stay
    bit-identical across nodes (and to a standalone scheduler), while
    peer quotes and checkpoint signatures carry the node identity. *)

type t

val build : nodes:int -> service_measurement:string -> t
(** Snapshot all [nodes] members, assemble the aux record, derive every
    identity. [service_measurement] is the shared judging enclave's
    measurement (32 bytes); [nodes] must be positive. *)

val members : t -> int
val aux : t -> string
(** The EGMAGE1 auxiliary record every member measured. *)

val pre_aux_snapshot : t -> int -> string
(** Node [i]'s pre-aux measurement-log snapshot (raises on bad index). *)

val identity : t -> int -> string
(** Node [i]'s final fleet identity (raises on bad index). *)

val derive_peer : t -> peer:int -> string
(** What any member computes for [peer]'s expected identity using only
    the aux record folded into its own measurement — the MAGE
    derivation, re-run from the serialized record rather than read from
    the [identities] table, so a corrupted record cannot go unnoticed.
    Raises [Invalid_argument] on a malformed record or bad index. *)

(** {1 Peer-protocol quote bindings}

    The 32-byte [report_data] committed inside peer quotes. Both sides
    compute these independently; all inputs are fixed-length (cache
    keys and findings digests are SHA-256 outputs), so concatenation is
    unambiguous. *)

val hello_binding : node:int -> nonce:string -> string
(** Binds a handshake response: the responder's index and the
    challenger's nonce, so a [Peer_quote] can be neither replayed under
    a fresh nonce nor re-attributed to another node. *)

val verdict_binding : key:string -> findings_digest:string -> string
(** Binds a pushed verdict: its cache content address and its findings
    digest, so the quote vouches for exactly this verdict's substance. *)
