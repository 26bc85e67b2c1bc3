(** MAGE-style mutual attestation helpers (Chen & Zhang, USENIX Sec'22).

    A group of enclaves can mutually attest without any party publishing
    final measurements, by exploiting the streaming structure of the
    measurement log: build every member up to a common point, snapshot
    each member's intermediate hash state ({!Measurement.snapshot}),
    concatenate all snapshots into one auxiliary record, and fold that
    record into every member as the *last* measured item. Each member's
    final identity then commits to the aux record, and from the aux
    record alone any member can recompute any peer's final identity —
    resume the peer's snapshot, fold the same aux record, finalize.

    This module owns the aux-record codec and the derivation; the fleet
    layer decides what goes into the pre-aux log. *)

val aux_of_snapshots : string list -> string
(** Canonical aux record: member count then each member's pre-aux
    snapshot, in group order. Raises [Invalid_argument] if any snapshot
    has the wrong length or the list is empty. *)

val snapshots_of_aux : string -> string list option
(** Inverse of {!aux_of_snapshots}; [None] on malformed input. *)

val derive : snapshot:string -> aux:string -> string option
(** The peer-identity computation: resume [snapshot], measure the aux
    record under {!aux_tag}, finalize. [None] if the snapshot does not
    parse. Every group member applies this to the snapshots inside its
    own aux record to learn each peer's expected measurement. *)

type quote_error =
  | Bad_signature   (** signature does not verify under the given key *)
  | Wrong_identity  (** quote is for a different enclave measurement *)
  | Wrong_binding   (** report_data does not match the expected binding *)

val quote_error_to_string : quote_error -> string

val check_quote :
  Crypto.Rsa.public ->
  identity:string ->
  report_data:string ->
  Quote.t ->
  (unit, quote_error) result
(** The group trust rule, checked in order: the quote must verify under
    the peer device's attestation key, name exactly the derived peer
    [identity], and carry exactly the expected [report_data] binding.
    Each failure is distinguished so callers can account for forged
    signatures separately from identity or binding mismatches. *)
