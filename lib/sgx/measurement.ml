type t = {
  ctx : Crypto.Sha256.ctx;
  mutable digest : string option;
}

let u64le v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let open_ctx t =
  match t.digest with
  | Some _ -> invalid_arg "Measurement: log already finalized"
  | None -> t.ctx

let record t tag payload =
  let ctx = open_ctx t in
  Crypto.Sha256.update ctx tag;
  Crypto.Sha256.update ctx payload

let start ~base ~size =
  let t = { ctx = Crypto.Sha256.init (); digest = None } in
  record t "ECREATE\x00" (u64le base ^ u64le size);
  t

let add_page t ~vaddr ~perms = record t "EADD\x00\x00\x00\x00" (u64le vaddr ^ perms ^ "\x00")

(* Each 256-byte record goes straight into the hash: the tag, the
   address and a slice of [content], no string per record. *)
let extend t ~vaddr ~content =
  let ctx = open_ctx t in
  let addr = Bytes.create 8 in
  let chunk = 256 in
  let len = String.length content in
  let rec go pos =
    if pos < len then begin
      Bytes.set_int64_le addr 0 (Int64.of_int (vaddr + pos));
      Crypto.Sha256.update ctx "EEXTEND\x00";
      Crypto.Sha256.update_sub ctx (Bytes.unsafe_to_string addr) ~pos:0 ~len:8;
      Crypto.Sha256.update_sub ctx content ~pos ~len:(min chunk (len - pos));
      go (pos + chunk)
    end
  in
  go 0

(* A non-page measured record, length-prefixed so distinct
   (tag, content) pairs can never collide by concatenation. *)
let measure_data t ~tag ~content =
  record t tag (u64le (String.length content) ^ content)

let snapshot t =
  match t.digest with
  | Some _ -> invalid_arg "Measurement.snapshot: log already finalized"
  | None -> Crypto.Sha256.export_state t.ctx

let snapshot_len = Crypto.Sha256.state_len

let resume s =
  match Crypto.Sha256.import_state s with
  | None -> None
  | Some ctx -> Some { ctx; digest = None }

let finalize t =
  match t.digest with
  | Some d -> d
  | None ->
      let d = Crypto.Sha256.finalize t.ctx in
      t.digest <- Some d;
      d

let is_final t = t.digest <> None
