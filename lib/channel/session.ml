type t = {
  aes : Crypto.Aes.key;
  mac_key : string;
  mutable xfer : int;  (* transfers completed on this session *)
}

let block_size = 4096

let create ~key =
  if String.length key <> 32 then invalid_arg "Session.create: need a 32-byte key";
  (* Independent cipher and MAC keys from one HKDF schedule. *)
  let prk = Crypto.Hkdf.extract ~salt:"engarde-session" key in
  {
    aes = Crypto.Aes.expand (Crypto.Hkdf.expand ~prk ~info:"block-cipher" 32);
    mac_key = Crypto.Hkdf.expand ~prk ~info:"block-mac" 32;
    xfer = 0;
  }

let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

(* The per-transfer counter occupies the nonce's first eight bytes;
   AES-CTR's block counter lives in the last eight (positioned by
   [offset]). Distinct transfers therefore draw from disjoint keystream
   spaces — before this counter existed, a second transfer on the same
   session reused the keystream at identical offsets (a two-time pad). *)
let nonce_of_xfer xfer =
  String.init 16 (fun i -> if i < 8 then Char.chr ((xfer lsr (8 * (7 - i))) land 0xff) else '\x00')

let transfers t = t.xfer
let finish_transfer t = t.xfer <- t.xfer + 1

let mac t ~seq ~offset ct =
  Crypto.Hmac.sha256 ~key:t.mac_key (u32 t.xfer ^ u32 seq ^ u32 offset ^ ct)

let encrypt_block t ~seq ~offset plain =
  let ciphertext = Crypto.Aes.ctr_at ~key:t.aes ~nonce:(nonce_of_xfer t.xfer) ~offset plain in
  Wire.Code_block { seq; offset; ciphertext; tag = mac t ~seq ~offset ciphertext }

let decrypt_block t ~seq ~offset ~ciphertext ~tag =
  if
    not
      (Crypto.Hmac.verify ~key:t.mac_key
         ~msg:(u32 t.xfer ^ u32 seq ^ u32 offset ^ ciphertext)
         ~tag)
  then None
  else Some (Crypto.Aes.ctr_at ~key:t.aes ~nonce:(nonce_of_xfer t.xfer) ~offset ciphertext)

let split_payload payload =
  let len = String.length payload in
  let rec go seq offset acc =
    if offset >= len then List.rev acc
    else begin
      let n = min block_size (len - offset) in
      go (seq + 1) (offset + n) ((seq, offset, String.sub payload offset n) :: acc)
    end
  in
  go 0 0 []

(* Canonical digest of a negotiated policy set: order-sensitive,
   length-prefixed, domain-separated. Both sides compute it — the
   client over what it offers, the enclave over what arrived — and the
   enclave compares against the digest measured into it at build. *)
let policy_set_digest programs =
  let b = Buffer.create 256 in
  Buffer.add_string b "EGPSET1\x00";
  List.iter
    (fun (name, blob) ->
      Buffer.add_string b (u32 (String.length name));
      Buffer.add_string b name;
      Buffer.add_string b (u32 (String.length blob));
      Buffer.add_string b blob)
    programs;
  Crypto.Sha256.digest (Buffer.contents b)

let payload_messages t payload =
  let blocks =
    List.map
      (fun (seq, offset, chunk) -> encrypt_block t ~seq ~offset chunk)
      (split_payload payload)
  in
  let msgs =
    blocks
    @ [
        Wire.Transfer_done
          { total_len = String.length payload; digest = Crypto.Sha256.digest payload };
      ]
  in
  finish_transfer t;
  msgs

(* ------------------------------------------------------------------ *)
(* Multiplexed server loop                                             *)
(* ------------------------------------------------------------------ *)

module Mux = struct
  let new_session = create

  type event =
    | Payload of { conn : string; payload : string }
    | Corrupt of { conn : string; why : string }
    | Peer of { conn : string; msg : Wire.t }

  type conn = {
    id : string;
    ep : Transport.endpoint;
    session : t;
    mutable buf : Bytes.t;
    mutable received : int;   (* bytes of plaintext accumulated *)
    mutable poisoned : bool;  (* corrupt transfer: discard until Transfer_done *)
  }

  (* Connections live in a hash table keyed by id — attach/reply are
     O(1) — while [order] keeps the attach order [poll] sweeps in, so
     the round-robin stays deterministic. *)
  type mux = {
    conns : (string, conn) Hashtbl.t;
    mutable order : string list;  (* attach order, reversed *)
  }

  let create () = { conns = Hashtbl.create 16; order = [] }

  let attach m ~id ~key ep =
    if Hashtbl.mem m.conns id then
      invalid_arg ("Session.Mux.attach: duplicate connection id " ^ id);
    Hashtbl.replace m.conns id
      {
        id;
        ep;
        session = new_session ~key;
        buf = Bytes.create 0;
        received = 0;
        poisoned = false;
      };
    m.order <- id :: m.order

  let connections m = List.rev m.order

  let reset c =
    c.buf <- Bytes.create 0;
    c.received <- 0

  let store c ~offset plain =
    let need = offset + String.length plain in
    if Bytes.length c.buf < need then begin
      let grown = Bytes.make (max need (2 * Bytes.length c.buf)) '\x00' in
      Bytes.blit c.buf 0 grown 0 (Bytes.length c.buf);
      c.buf <- grown
    end;
    Bytes.blit_string plain 0 c.buf offset (String.length plain);
    c.received <- c.received + String.length plain

  (* End of transfer: the Transfer_done trailer commits to the payload's
     length and digest. *)
  let finish c ~total_len ~digest =
    let ev =
      if c.received <> total_len then Corrupt { conn = c.id; why = "missing blocks" }
      else begin
        let payload = Bytes.sub_string c.buf 0 total_len in
        if Crypto.Sha256.digest payload <> digest then
          Corrupt { conn = c.id; why = "payload digest mismatch" }
        else Payload { conn = c.id; payload }
      end
    in
    reset c;
    ev

  (* One protocol step for one connection: at most one message consumed.
     A transfer that fails authentication is reported once; the rest of
     it (through its Transfer_done) is discarded silently so one corrupt
     block yields one error, not an error per remaining message. *)
  let step c =
    match Transport.recv c.ep with
    | None -> None
    | Some (Wire.Code_block _) when c.poisoned -> None
    | Some (Wire.Transfer_done _) when c.poisoned ->
        c.poisoned <- false;
        finish_transfer c.session;
        None
    | Some (Wire.Code_block { seq; offset; ciphertext; tag }) -> begin
        match decrypt_block c.session ~seq ~offset ~ciphertext ~tag with
        | Some plain ->
            store c ~offset plain;
            None
        | None ->
            reset c;
            c.poisoned <- true;
            Some
              (Corrupt
                 {
                   conn = c.id;
                   why = Printf.sprintf "block %d failed authentication" seq;
                 })
      end
    | Some (Wire.Transfer_done { total_len; digest }) ->
        let ev = finish c ~total_len ~digest in
        finish_transfer c.session;
        Some ev
    | Some
        ((Wire.Peer_hello _ | Wire.Peer_quote _ | Wire.Verdict_push _ | Wire.Verdict_pull _
         | Wire.Checkpoint_gossip _) as msg) ->
        (* Fleet peer traffic: authenticated by quotes at the fleet
           layer, not by this connection's session keys — surface it
           verbatim. *)
        Some (Peer { conn = c.id; msg })
    | Some _ -> None (* handshake traffic is not ours to interpret *)

  let poll m =
    List.filter_map (fun id -> step (Hashtbl.find m.conns id)) (connections m)

  let pending m = Hashtbl.fold (fun _ c acc -> acc || Transport.pending c.ep) m.conns false

  let reply m ~id msg =
    match Hashtbl.find_opt m.conns id with
    | Some c -> Transport.send c.ep msg
    | None -> invalid_arg ("Session.Mux.reply: unknown connection " ^ id)
end
