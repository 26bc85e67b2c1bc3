type t = {
  ctx : Crypto.Sha256.ctx;
  mutable midstate : string option;
      (* [ctx]'s exported state, when a [page] left it known: the key of
         the next page's memo lookup without another export *)
  mutable digest : string option;
}

let u64le v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let open_ctx t =
  match t.digest with
  | Some _ -> invalid_arg "Measurement: log already finalized"
  | None ->
      t.midstate <- None;
      t.ctx

let record t tag payload =
  let ctx = open_ctx t in
  Crypto.Sha256.update ctx tag;
  Crypto.Sha256.update ctx payload

let start ~base ~size =
  let t = { ctx = Crypto.Sha256.init (); midstate = None; digest = None } in
  record t "ECREATE\x00" (u64le base ^ u64le size);
  t

(* One page's records straight into the hash: the EADD record, then one
   EEXTEND record per 256 bytes (tag, address and a slice of [content],
   no string per record). *)
let hash_page ctx ~vaddr ~perms ~content =
  Crypto.Sha256.update ctx "EADD\x00\x00\x00\x00";
  Crypto.Sha256.update ctx (u64le vaddr);
  Crypto.Sha256.update ctx perms;
  Crypto.Sha256.update ctx "\x00";
  let addr = Bytes.create 8 in
  let addr_s = Bytes.unsafe_to_string addr in
  let chunk = 256 in
  let len = String.length content in
  let rec go pos =
    if pos < len then begin
      Bytes.set_int64_le addr 0 (Int64.of_int (vaddr + pos));
      Crypto.Sha256.update ctx "EEXTEND\x00";
      Crypto.Sha256.update ctx addr_s;
      Crypto.Sha256.update_sub ctx content ~pos ~len:(min chunk (len - pos));
      go (pos + chunk)
    end
  in
  go 0

(* The page memo. SHA-256 is a function of its state and its input, and
   a page's records are a function of its address, permissions and
   bytes, so the state after a page is a function of the exported state
   before it (chaining words, byte count and buffered tail: the whole
   state) and those three. A hit compares all three, so a log resumed
   from a hit is the log of exactly the pages added. Entries are keyed by
   the state before the page; a page's [next] is the key of whatever
   page follows it, so consecutive pages share that string. *)
type entry = { vaddr : int; perms : string; content : string; next : string }

let memo_cap = 1 lsl 15
let memo : (string, entry list) Hashtbl.t = Hashtbl.create 1024
let memo_size = ref 0

(* Lookups and inserts hold it; the lists it guards are immutable, and
   a miss hashes outside it. Two domains that miss on the same page
   compute the same [next], and the second insert finds the first's. *)
let memo_lock = Mutex.create ()

let same e ~vaddr ~perms ~content =
  e.vaddr = vaddr
  && (e.perms == perms || String.equal e.perms perms)
  && (e.content == content || String.equal e.content content)

(* Under [memo_lock]. *)
let bucket key = match Hashtbl.find_opt memo key with Some es -> es | None -> []

let entries key =
  Mutex.lock memo_lock;
  let es = bucket key in
  Mutex.unlock memo_lock;
  es

let remember key e =
  Mutex.lock memo_lock;
  let es = bucket key in
  if not (List.exists (same ~vaddr:e.vaddr ~perms:e.perms ~content:e.content) es) then begin
    let es =
      if !memo_size < memo_cap then es
      else begin
        Hashtbl.reset memo;
        memo_size := 0;
        []
      end
    in
    Hashtbl.replace memo key (e :: es);
    incr memo_size
  end;
  Mutex.unlock memo_lock

let memo_entries () =
  Mutex.lock memo_lock;
  let n = !memo_size in
  Mutex.unlock memo_lock;
  n

let page t ~vaddr ~perms ~content =
  if t.digest <> None then invalid_arg "Measurement: log already finalized";
  let key =
    match t.midstate with Some s -> s | None -> Crypto.Sha256.export_state t.ctx
  in
  match List.find_opt (same ~vaddr ~perms ~content) (entries key) with
  | Some e ->
      (* [e.next] came from [export_state], so it always imports. *)
      let restored = Crypto.Sha256.import_state_into t.ctx e.next in
      assert restored;
      t.midstate <- Some e.next
  | None ->
      hash_page t.ctx ~vaddr ~perms ~content;
      let next = Crypto.Sha256.export_state t.ctx in
      remember key { vaddr; perms; content; next };
      t.midstate <- Some next

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
  | Some ctx -> Some { ctx; midstate = None; digest = None }

let finalize t =
  match t.digest with
  | Some d -> d
  | None ->
      let d = Crypto.Sha256.finalize t.ctx in
      t.digest <- Some d;
      d
