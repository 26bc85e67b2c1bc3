(* The streaming record layer (EGREC1): numbered AEAD records in the
   image of QUIC packet protection. Each record carries its key epoch
   and 64-bit record number in the clear; the nonce is the per-epoch IV
   with the record number folded into its first eight bytes, so no
   (key, nonce) pair is ever reused — the fix for the legacy channel's
   fixed-nonce CTR. Keys come from an HKDF schedule seeded by the
   session's traffic secret; a Key_update record ratchets the epoch
   secret forward and resets the record number. *)

let magic = "EGREC1"

(* --- canonical inner framing --------------------------------------- *)

type plaintext =
  | Stream of { offset : int; data : string }
  | Fin of { total_len : int; digest : string }
  | Key_update

let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))
let u64 n = String.init 8 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

let read_u32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame = function
  | Stream { offset; data } -> "\x01" ^ u32 offset ^ data
  | Fin { total_len; digest } ->
      if String.length digest <> 32 then invalid_arg "Record.frame: digest must be 32 bytes";
      "\x02" ^ u32 total_len ^ digest
  | Key_update -> "\x03"

(* Strict and canonical: every byte string decodes to at most one
   plaintext, and [frame (Option.get (unframe s)) = s]. *)
let unframe s =
  let len = String.length s in
  if len = 0 then None
  else
    match s.[0] with
    | '\x01' ->
        if len < 5 then None
        else Some (Stream { offset = read_u32 s 1; data = String.sub s 5 (len - 5) })
    | '\x02' ->
        if len <> 37 then None
        else Some (Fin { total_len = read_u32 s 1; digest = String.sub s 5 32 })
    | '\x03' -> if len <> 1 then None else Some Key_update
    | _ -> None

(* --- key schedule --------------------------------------------------- *)

(* Per-epoch traffic material. The epoch secret ratchets forward
   one-way: compromise of epoch n+1 material reveals nothing about
   records sealed under epoch n. *)
type secrets = { enc : Crypto.Aes.key; mac : string; iv : string; next : string }

let derive_secrets epoch_secret =
  let prk = Crypto.Hkdf.extract ~salt:magic epoch_secret in
  {
    enc = Crypto.Aes.expand (Crypto.Hkdf.expand ~prk ~info:"key" 32);
    mac = Crypto.Hkdf.expand ~prk ~info:"mac" 32;
    iv = Crypto.Hkdf.expand ~prk ~info:"iv" 16;
    next = Crypto.Hkdf.expand ~prk ~info:"next" 32;
  }

(* Labelled secrets hanging off the handshake. *)
let traffic_secret ~key = Crypto.Hkdf.derive ~salt:magic ~ikm:key ~info:"traffic" 32
let resumption_secret ~key = Crypto.Hkdf.derive ~salt:magic ~ikm:key ~info:"resumption" 32

let zero_rtt_secret ~resumption ~nonce =
  Crypto.Hkdf.derive ~salt:magic ~ikm:resumption ~info:("0rtt" ^ nonce) 32

let confirm_key resumption = Crypto.Hkdf.derive ~salt:magic ~ikm:resumption ~info:"confirm" 32
let confirm ~resumption ~nonce = Crypto.Hmac.sha256 ~key:(confirm_key resumption) nonce

let check_confirm ~resumption ~nonce ~tag =
  Crypto.Hmac.verify ~key:(confirm_key resumption) ~msg:nonce ~tag

(* Nonce: per-epoch IV with the record number XORed into the FIRST
   eight bytes. AES-CTR's block counter lives in the last eight bytes
   (see {!Crypto.Aes.ctr}), so distinct record numbers give disjoint
   counter-block spaces no matter how long each record is. *)
let nonce_for iv rn =
  String.init 16 (fun i ->
      if i < 8 then Char.chr (Char.code iv.[i] lxor ((rn lsr (8 * (7 - i))) land 0xff))
      else iv.[i])

let tag_of secrets ~epoch ~rn ct =
  Crypto.Hmac.sha256 ~key:secrets.mac (magic ^ u32 epoch ^ u64 rn ^ ct)

(* --- writer ---------------------------------------------------------- *)

type writer = { mutable wepoch : int; mutable wrn : int; mutable wsecrets : secrets }

let writer ~secret = { wepoch = 0; wrn = 0; wsecrets = derive_secrets secret }

let seal w pt =
  let ct = Crypto.Aes.ctr ~key:w.wsecrets.enc ~nonce:(nonce_for w.wsecrets.iv w.wrn) (frame pt) in
  let msg =
    Wire.Record { epoch = w.wepoch; rn = w.wrn; ciphertext = ct; tag = tag_of w.wsecrets ~epoch:w.wepoch ~rn:w.wrn ct }
  in
  w.wrn <- w.wrn + 1;
  msg

(* Announce the ratchet under the old keys, then step to the new
   epoch. The announcement is the epoch's last record. *)
let update_key w =
  let msg = seal w Key_update in
  w.wepoch <- w.wepoch + 1;
  w.wrn <- 0;
  w.wsecrets <- derive_secrets w.wsecrets.next;
  msg

let writer_epoch w = w.wepoch

(* --- reader ---------------------------------------------------------- *)

type event =
  | Accept of plaintext
  | Corrupt of string
  | Skip
  | Recovered

type reader = {
  mutable repoch : int;
  mutable rrn : int;  (* next expected record number *)
  mutable rsecrets : secrets;
  mutable poisoned : bool;
  mutable epoch_updates : int;
}

let reader ~secret =
  { repoch = 0; rrn = 0; rsecrets = derive_secrets secret; poisoned = false; epoch_updates = 0 }

let reader_epoch r = r.repoch
let reader_poisoned r = r.poisoned
let epoch_updates r = r.epoch_updates

(* One failure poisons the stream: exactly one [Corrupt] surfaces, the
   rest of the damaged stretch is [Skip]ped, and the next authentic
   transfer boundary — a [Fin] or a [Key_update] ratchet — resyncs the
   record counter and clears the poison ([Recovered]). Mirrors the
   legacy Mux's discard-until-Transfer_done recovery. *)
let read r ~epoch ~rn ~ciphertext ~tag =
  let fail why =
    if r.poisoned then Skip
    else begin
      r.poisoned <- true;
      Corrupt why
    end
  in
  if epoch <> r.repoch then
    fail (Printf.sprintf "cross-epoch record (epoch %d, current %d)" epoch r.repoch)
  else if
    not
      (Crypto.Hmac.verify ~key:r.rsecrets.mac
         ~msg:(magic ^ u32 epoch ^ u64 rn ^ ciphertext)
         ~tag)
  then fail (Printf.sprintf "record %d failed authentication" rn)
  else begin
    let plain = Crypto.Aes.ctr ~key:r.rsecrets.enc ~nonce:(nonce_for r.rsecrets.iv rn) ciphertext in
    match unframe plain with
    | None -> fail (Printf.sprintf "record %d: malformed EGREC1 frame" rn)
    | Some pt ->
        let ratchet () =
          r.repoch <- r.repoch + 1;
          r.rrn <- 0;
          r.rsecrets <- derive_secrets r.rsecrets.next;
          r.epoch_updates <- r.epoch_updates + 1
        in
        if r.poisoned then begin
          (* Authentic records inside a poisoned stretch are dropped,
             but transfer boundaries still resync the stream. *)
          match pt with
          | Fin _ ->
              r.poisoned <- false;
              r.rrn <- rn + 1;
              Recovered
          | Key_update ->
              ratchet ();
              r.poisoned <- false;
              Recovered
          | Stream _ -> Skip
        end
        else if rn <> r.rrn then
          fail (Printf.sprintf "record %d out of order (expected %d)" rn r.rrn)
        else begin
          r.rrn <- rn + 1;
          match pt with
          | Key_update ->
              ratchet ();
              Accept Key_update
          | pt -> Accept pt
        end
  end

(* --- whole-payload convenience --------------------------------------- *)

let block_size = 4096

(* The streamed transfer: page-sized stream records in file order and
   a Fin trailer carrying the whole-payload length and digest — the
   same commitment the legacy Transfer_done made. The Seq is lazy and
   one-shot: each pull seals the next record, so a pipelined caller
   interleaves production with the inspector's consumption instead of
   encrypting everything up front. *)
let payload_record_seq w payload =
  let len = String.length payload in
  let rec body offset () =
    if offset >= len then
      Seq.Cons (seal w (Fin { total_len = len; digest = Crypto.Sha256.digest payload }), Seq.empty)
    else begin
      let n = min block_size (len - offset) in
      Seq.Cons (seal w (Stream { offset; data = String.sub payload offset n }), body (offset + n))
    end
  in
  body 0

let payload_records w payload = List.of_seq (payload_record_seq w payload)
