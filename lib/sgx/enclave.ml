type perm = { r : bool; w : bool; x : bool }

let rw = { r = true; w = true; x = false }
let rx = { r = true; w = false; x = true }
let r_only = { r = true; w = false; x = false }
let none = { r = false; w = false; x = false }

(* One string per permission set, built once: the measurement's page
   memo matches a page's permissions by physical equality first. *)
let perm_strings =
  Array.init 8 (fun i ->
      Printf.sprintf "%c%c%c"
        (if i land 4 <> 0 then 'r' else '-')
        (if i land 2 <> 0 then 'w' else '-')
        (if i land 1 <> 0 then 'x' else '-'))

let perm_to_string p =
  perm_strings.((if p.r then 4 else 0) lor (if p.w then 2 else 0) lor if p.x then 1 else 0)

type state = Building | Live | Sealed

exception Sgx_fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Sgx_fault s)) fmt

type page = { slot : Epc.slot; mutable perm : perm }

type t = {
  epc : Epc.t;
  enclave_base : int;
  enclave_size : int;
  pages : (int, page) Hashtbl.t;
  meas : Measurement.t;
  mutable digest : string option;
  mutable lifecycle : state;
  mutable depth : int; (* EENTER nesting *)
  counters : Perf.t;
}

let page_size = Epc.page_size

let ecreate epc ?perf ~base ~size () =
  if base mod page_size <> 0 || size mod page_size <> 0 then
    fault "ECREATE: base/size not page aligned (base=0x%x size=0x%x)" base size;
  if size <= 0 then fault "ECREATE: empty enclave";
  let counters = match perf with Some p -> p | None -> Perf.create () in
  Perf.count_sgx counters 1;
  {
    epc;
    enclave_base = base;
    enclave_size = size;
    pages = Hashtbl.create 1024;
    meas = Measurement.start ~base ~size;
    digest = None;
    lifecycle = Building;
    depth = 0;
    counters;
  }

let base t = t.enclave_base
let size t = t.enclave_size
let state t = t.lifecycle
let perf t = t.counters
let page_count t = Hashtbl.length t.pages

let check_range t vaddr =
  if vaddr < t.enclave_base || vaddr >= t.enclave_base + t.enclave_size then
    fault "address 0x%x outside enclave [0x%x, 0x%x)" vaddr t.enclave_base
      (t.enclave_base + t.enclave_size)

let add_backed_page t ~vaddr ~perm ~content =
  check_range t vaddr;
  if vaddr mod page_size <> 0 then fault "EADD: vaddr 0x%x not page aligned" vaddr;
  if Hashtbl.mem t.pages vaddr then fault "EADD: page 0x%x already present" vaddr;
  let slot = try Epc.alloc t.epc with Epc.Out_of_epc -> fault "EPC exhausted" in
  Epc.store t.epc slot content;
  Hashtbl.replace t.pages vaddr { slot; perm }

let eadd t ~vaddr ~perm ~content =
  if t.lifecycle <> Building then fault "EADD after EINIT";
  if String.length content <> page_size then
    fault "EADD: content must be one page (%d bytes)" page_size;
  Perf.count_sgx t.counters 1;
  add_backed_page t ~vaddr ~perm ~content;
  (* EEXTEND measures 256 bytes per instruction: 16 per page. *)
  Perf.count_sgx t.counters (page_size / 256);
  Measurement.page t.meas ~vaddr ~perms:(perm_to_string perm) ~content

let measure_data t ~tag ~content =
  if t.lifecycle <> Building then fault "measure_data after EINIT";
  Perf.count_sgx t.counters 1;
  Measurement.measure_data t.meas ~tag ~content

let einit t =
  if t.lifecycle <> Building then fault "EINIT: enclave not in build state";
  Perf.count_sgx t.counters 1;
  let d = Measurement.finalize t.meas in
  t.digest <- Some d;
  t.lifecycle <- Live;
  d

let measurement t =
  match t.digest with Some d -> d | None -> fault "measurement before EINIT"

let eaug t ~vaddr ~perm =
  (match t.lifecycle with
  | Live -> ()
  | Building -> fault "EAUG before EINIT"
  | Sealed -> fault "EAUG: enclave is sealed against extension");
  Perf.count_sgx t.counters 1;
  add_backed_page t ~vaddr ~perm ~content:(String.make page_size '\x00')

let seal t =
  match t.lifecycle with
  | Live -> t.lifecycle <- Sealed
  | Building -> fault "seal before EINIT"
  | Sealed -> ()

let eenter t =
  if t.lifecycle = Building then fault "EENTER before EINIT";
  Perf.count_sgx t.counters 1;
  t.depth <- t.depth + 1

let eexit t =
  if t.depth = 0 then fault "EEXIT outside enclave";
  Perf.count_sgx t.counters 1;
  t.depth <- t.depth - 1

let in_enclave t = t.depth > 0

let page_of t vaddr =
  let aligned = vaddr - (vaddr mod page_size) in
  match Hashtbl.find_opt t.pages aligned with
  | Some p -> (aligned, p)
  | None -> fault "unmapped enclave page at 0x%x" vaddr

let access t ~vaddr ~len ~need ~what (f : page -> page_off:int -> n:int -> buf_off:int -> unit) =
  if len < 0 then fault "%s: negative length" what;
  if not (in_enclave t) then fault "%s: plaintext enclave access from outside" what;
  check_range t vaddr;
  if len > 0 then check_range t (vaddr + len - 1);
  let rec go pos =
    if pos < len then begin
      let aligned, page = page_of t (vaddr + pos) in
      if not (need page.perm) then
        fault "%s: permission violation at 0x%x (%s)" what (vaddr + pos)
          (perm_to_string page.perm);
      let page_off = vaddr + pos - aligned in
      let n = min (page_size - page_off) (len - pos) in
      f page ~page_off ~n ~buf_off:pos;
      go (pos + n)
    end
  in
  go 0

let read_gen t ~vaddr ~len ~need ~what =
  let out = Bytes.create len in
  access t ~vaddr ~len ~need ~what (fun page ~page_off ~n ~buf_off ->
      let chunk = Epc.load_sub t.epc page.slot ~pos:page_off ~len:n in
      Bytes.blit_string chunk 0 out buf_off n);
  Bytes.to_string out

let read t ~vaddr ~len = read_gen t ~vaddr ~len ~need:(fun p -> p.r) ~what:"read"
let fetch t ~vaddr ~len = read_gen t ~vaddr ~len ~need:(fun p -> p.x) ~what:"fetch"

let write t ~vaddr content =
  let len = String.length content in
  access t ~vaddr ~len ~need:(fun p -> p.w) ~what:"write" (fun page ~page_off ~n ~buf_off ->
      Epc.store_sub t.epc page.slot ~pos:page_off (String.sub content buf_off n))

let emod t ~vaddr ~perm ~extend =
  if t.lifecycle = Building then fault "EMODPE/EMODPR before EINIT";
  Perf.count_sgx t.counters 1;
  check_range t vaddr;
  let _, page = page_of t vaddr in
  page.perm <-
    (if extend then
       { r = page.perm.r || perm.r; w = page.perm.w || perm.w; x = page.perm.x || perm.x }
     else { r = page.perm.r && perm.r; w = page.perm.w && perm.w; x = page.perm.x && perm.x })

let emodpe t ~vaddr ~perm = emod t ~vaddr ~perm ~extend:true
let emodpr t ~vaddr ~perm = emod t ~vaddr ~perm ~extend:false

let page_perm t ~vaddr =
  let aligned = vaddr - (vaddr mod page_size) in
  Option.map (fun p -> p.perm) (Hashtbl.find_opt t.pages aligned)

let destroy t =
  Hashtbl.iter
    (fun _ page ->
      Perf.count_sgx t.counters 1 (* EREMOVE *);
      Epc.release t.epc page.slot)
    t.pages;
  Hashtbl.reset t.pages
