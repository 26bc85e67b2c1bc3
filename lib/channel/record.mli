(** Streaming AEAD record layer ([EGREC1]).

    Replaces the legacy [Code_block]/[Transfer_done] transfer with
    numbered records in the image of QUIC packet protection: every
    record carries its key epoch and 64-bit record number in the clear
    (both authenticated), the nonce folds the record number into a
    per-epoch IV so no (key, nonce) pair ever repeats, and traffic keys
    come from an HKDF extract/expand schedule instead of ad-hoc HMAC
    labels. [Key_update] ratchets the epoch secret one-way and resets
    the record number. *)

(** Inner frame of one record, under the strict canonical EGREC1 codec
    (fuzzed in [test_channel.ml]): decoding is total and unambiguous,
    and [frame] o [unframe] is the identity on valid encodings. *)
type plaintext =
  | Stream of { offset : int; data : string }
      (** payload bytes at an absolute transfer offset *)
  | Fin of { total_len : int; digest : string }
      (** end of transfer: length and SHA-256 of the whole payload *)
  | Key_update  (** ratchet announcement, sealed under the old epoch *)

val frame : plaintext -> string
val unframe : string -> plaintext option

val traffic_secret : key:string -> string
(** Streaming traffic secret derived from a 32-byte session key. *)

val resumption_secret : key:string -> string
(** Resumption master secret both ends derive after a full handshake;
    the inspector seals it into the ticket, the client stashes it. *)

val zero_rtt_secret : resumption:string -> nonce:string -> string
(** Traffic secret for a 0-RTT resumed transfer, salted by the client's
    fresh [Resume] nonce. *)

val confirm : resumption:string -> nonce:string -> string
(** The [Resume_accept] confirmation MAC: proves the responder unsealed
    the ticket (and thus knows the resumption secret). *)

val check_confirm : resumption:string -> nonce:string -> tag:string -> bool
(** Constant-time-ish verification of {!confirm}. *)

(** Sealing side: owns the epoch, record number, and key schedule. *)
type writer

val writer : secret:string -> writer
val seal : writer -> plaintext -> Wire.t
val update_key : writer -> Wire.t
(** Seal a [Key_update] under the current epoch, then step the writer
    to the next epoch (record number resets to 0). *)

val writer_epoch : writer -> int

val payload_records : writer -> string -> Wire.t list
(** The full streamed transfer: page-sized [Stream] records in file
    order, then the [Fin] trailer committing to the whole payload's
    length and digest. *)

val payload_record_seq : writer -> string -> Wire.t Seq.t
(** Lazy, one-shot variant of {!payload_records}: each pull seals the
    next record, so a pipelined driver can interleave production with
    consumption. Do not traverse twice (the writer is stateful). *)

(** Receiving side. One corrupt record yields exactly one [Corrupt]
    event; the rest of the damaged stretch is [Skip]ped and the next
    authentic transfer boundary ([Fin] or [Key_update]) resyncs the
    stream ([Recovered]) — the pipeline stays usable. *)
type reader

type event =
  | Accept of plaintext
  | Corrupt of string
  | Skip
  | Recovered

val reader : secret:string -> reader
val read : reader -> epoch:int -> rn:int -> ciphertext:string -> tag:string -> event
val reader_epoch : reader -> int
val reader_poisoned : reader -> bool
val epoch_updates : reader -> int
