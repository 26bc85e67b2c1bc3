open X86

type func = {
  fn_addr : int;
  fn_name : string;
  fn_end : int;
  fn_slice : (int * int) option;
}

type direct_call = {
  dc_index : int;
  dc_addr : int;
  dc_target : int;
  dc_name : string option;
}

type indirect_call = {
  ic_index : int;
  ic_addr : int;
  ic_reg : X86.Reg.t;
  ic_window : int array;
}

type t = {
  buffer : Disasm.buffer;
  symbols : Symhash.t;
  functions : func array;
  direct_calls : direct_call array;
  indirect_calls : indirect_call array;
  indirect_jumps : (int * int) array;
  tables : (int * int) array;
  branch_targets : int array;
  hashes : (int, string) Hashtbl.t;
  precomputed : (int, string * int) Hashtbl.t;
  mutable build_cycles : int;
}

type hash_task = unit -> (int * (string * int)) list
type hash_runner = hash_task list -> (int * (string * int)) list list

(* The one padding predicate shared by the indirect-call window scan,
   the CFG leader scan, and the lint policy. Covers every NOP encoding
   the toolchain emits as bundle padding: the one-byte [0x90], the
   operand-size-prefixed form, and the multi-byte [nopl (%rax)] used
   inside jump tables — all of which decode to mnemonic [NOP]. *)
let is_padding (i : Insn.t) = match i.Insn.mnem with Insn.NOP -> true | _ -> false

let is_table_jmp (i : Insn.t) =
  match (i.Insn.mnem, i.Insn.ops) with Insn.JMP, [ Insn.Rel _ ] -> true | _ -> false

let is_table_nop (i : Insn.t) =
  match (i.Insn.mnem, i.Insn.ops) with Insn.NOP, [ Insn.Mem _ ] -> true | _ -> false

(* Smallest entry index whose address is >= [addr] (= n when past the
   end); entries are sorted and contiguous. *)
let lower_bound (entries : Disasm.entry array) addr =
  let n = Array.length entries in
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if entries.(mid).Disasm.addr < addr then go (mid + 1) hi else go lo mid
    end
  in
  go 0 n

let build perf (b : Disasm.buffer) symbols =
  let before = Sgx.Perf.total_cycles perf in
  let entries = b.Disasm.entries in
  let n = Array.length entries in
  let code_end = b.Disasm.base + Disasm.code_length b.Disasm.code in
  (* A (jmpq rel; nopl) pair whose jmp resolves to a known function
     start is one IFCC jump-table entry; maximal runs form tables. *)
  let entry_pair_at i =
    i + 1 < n
    && is_table_jmp entries.(i).Disasm.insn
    && is_table_nop entries.(i + 1).Disasm.insn
    &&
    match entries.(i).Disasm.insn.Insn.ops with
    | [ Insn.Rel rel ] ->
        let e = entries.(i) in
        Symhash.is_function_start symbols (e.Disasm.addr + e.Disasm.len + rel)
    | _ -> false
  in
  let direct_calls = ref [] in
  let indirect_calls = ref [] in
  let indirect_jumps = ref [] in
  let tables = ref [] in
  let branch_targets = ref [] in
  let window_of i =
    let rec go j acc k =
      if k = 5 || j < 0 then Array.of_list (List.rev acc)
      else if is_padding entries.(j).Disasm.insn then go (j - 1) acc k
      else go (j - 1) (j :: acc) (k + 1)
    in
    (* Nearest first: element 0 is the closest non-nop instruction
       before the call. *)
    go (i - 1) [] 0
  in
  let i = ref 0 in
  while !i < n do
    let e = entries.(!i) in
    if entry_pair_at !i then begin
      (* One table run: every entry in it is still charged, but the
         classification decision is made once for the whole run. *)
      let lo = e.Disasm.addr in
      let j = ref !i in
      while entry_pair_at !j do j := !j + 2 done;
      Sgx.Perf.count_cycles perf ((!j - !i) * Costmodel.index_step);
      let hi = if !j < n then entries.(!j).Disasm.addr else code_end in
      tables := (lo, hi) :: !tables;
      i := !j
    end
    else begin
      Sgx.Perf.count_cycles perf Costmodel.index_step;
      (match (e.Disasm.insn.Insn.mnem, e.Disasm.insn.Insn.ops) with
      | Insn.CALL, [ Insn.Rel rel ] ->
          Sgx.Perf.count_cycles perf Costmodel.call_target_compute;
          let target = e.Disasm.addr + e.Disasm.len + rel in
          direct_calls :=
            {
              dc_index = !i;
              dc_addr = e.Disasm.addr;
              dc_target = target;
              dc_name = Symhash.name_of_addr symbols target;
            }
            :: !direct_calls
      | Insn.CALL_IND, [ Insn.Reg (Insn.W64, r) ] ->
          Sgx.Perf.count_cycles perf (5 * Costmodel.pattern_probe);
          indirect_calls :=
            { ic_index = !i; ic_addr = e.Disasm.addr; ic_reg = r; ic_window = window_of !i }
            :: !indirect_calls
      | Insn.JMP_IND, [ Insn.Reg _ ] ->
          indirect_jumps := (!i, e.Disasm.addr) :: !indirect_jumps
      | (Insn.JMP | Insn.JCC _), [ Insn.Rel rel ] ->
          branch_targets := (e.Disasm.addr + e.Disasm.len + rel) :: !branch_targets
      | _ -> ());
      incr i
    end
  done;
  let functions =
    Symhash.functions symbols
    |> List.map (fun (addr, name) ->
           Sgx.Perf.count_cycles perf Costmodel.index_step;
           let fn_end =
             match Symhash.function_end symbols addr with
             | Some e -> e
             | None -> code_end
           in
           let fn_slice =
             match Disasm.index_of_addr b addr with
             | None -> None
             | Some lo -> Some (lo, lower_bound entries fn_end)
           in
           { fn_addr = addr; fn_name = name; fn_end; fn_slice })
    |> Array.of_list
  in
  let t =
    {
      buffer = b;
      symbols;
      functions;
      direct_calls = Array.of_list (List.rev !direct_calls);
      indirect_calls = Array.of_list (List.rev !indirect_calls);
      indirect_jumps = Array.of_list (List.rev !indirect_jumps);
      tables = Array.of_list (List.rev !tables);
      branch_targets = Array.of_list (List.sort_uniq compare !branch_targets);
      hashes = Hashtbl.create 64;
      precomputed = Hashtbl.create 64;
      build_cycles = 0;
    }
  in
  t.build_cycles <- Sgx.Perf.total_cycles perf - before;
  t

let function_of_addr t addr =
  let fns = t.functions in
  let rec go lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let f = fns.(mid) in
      if f.fn_addr = addr then Some f
      else if f.fn_addr < addr then go (mid + 1) hi
      else go lo mid
    end
  in
  go 0 (Array.length fns)

(* Greatest table whose lo <= addr, then a bounds check: the ranges are
   sorted and non-overlapping, so one binary search decides. *)
let in_table t addr =
  let ts = t.tables in
  let n = Array.length ts in
  let rec go lo hi =
    (* Invariant: candidates with t_lo <= addr live in [0, hi); [lo-1]
       is the best found so far. *)
    if lo >= hi then
      lo > 0
      &&
      let tlo, thi = ts.(lo - 1) in
      addr >= tlo && addr < thi
    else begin
      let mid = (lo + hi) / 2 in
      if fst ts.(mid) <= addr then go (mid + 1) hi else go lo mid
    end
  in
  go 0 n

(* Greatest function whose start is <= addr, then a bounds check
   against its exclusive end. *)
let function_containing t addr =
  let fns = t.functions in
  let n = Array.length fns in
  let rec go lo hi =
    if lo >= hi then
      if lo > 0 then begin
        let f = fns.(lo - 1) in
        if addr >= f.fn_addr && addr < f.fn_end then Some f else None
      end
      else None
    else begin
      let mid = (lo + hi) / 2 in
      if fns.(mid).fn_addr <= addr then go (mid + 1) hi else go lo mid
    end
  in
  go 0 n

(* Smallest branch target >= lo, then one compare against hi. *)
let branch_target_within t ~lo ~hi =
  let ts = t.branch_targets in
  let n = Array.length ts in
  let rec go l h =
    if l >= h then l
    else begin
      let mid = (l + h) / 2 in
      if ts.(mid) < lo then go (mid + 1) h else go l mid
    end
  in
  let i = go 0 n in
  i < n && ts.(i) < hi

(* Absorb code bytes into a hash, reading strings and off-heap buffers
   alike in place. *)
let absorb h (code : Decoder.src) ~pos ~len =
  match code with
  | Decoder.Str s -> Crypto.Sha256.update_sub h s ~pos ~len
  | Decoder.Big b -> Crypto.Sha256.update_big_sub h b ~pos ~len

(* Digest plus the modelled cycles the sequential policy would charge
   for computing it — the cost is carried alongside so a digest computed
   off-thread (prehash) can be charged identically, later, on the
   inspecting thread. Pure w.r.t. [t]: only reads the buffer/symbols. *)
let hash_and_cost t ~addr =
  let b = t.buffer in
  let stop =
    match Symhash.function_end t.symbols addr with
    | Some e -> e
    | None -> b.Disasm.base + Disasm.code_length b.Disasm.code
  in
  match Disasm.index_of_addr b addr with
  | None -> None
  | Some i0 ->
      let h = Crypto.Sha256.init () in
      let n = Array.length b.Disasm.entries in
      let cost = ref Costmodel.hash_finalize in
      let rec go i =
        if i >= n then ()
        else begin
          let e = b.Disasm.entries.(i) in
          if e.Disasm.addr >= stop then ()
          else begin
            cost := !cost + Costmodel.hash_per_insn + (Costmodel.hash_per_byte * e.Disasm.len);
            absorb h b.Disasm.code
              ~pos:(e.Disasm.addr - b.Disasm.base) ~len:e.Disasm.len;
            go (i + 1)
          end
        end
      in
      go i0;
      Some (Crypto.Sha256.hex (Crypto.Sha256.finalize h), !cost)

let function_hash_unmemoized t ~perf ~addr =
  match hash_and_cost t ~addr with
  | None -> None
  | Some (hex, cost) ->
      Sgx.Perf.count_cycles perf cost;
      Some hex

let function_hash t ~perf ~addr =
  match Hashtbl.find_opt t.hashes addr with
  | Some hex ->
      Sgx.Perf.count_cycles perf Costmodel.hash_memo_lookup;
      Some hex
  | None -> (
      (* A prehashed digest is charged exactly what computing it now
         would cost: prehash is a wall-clock optimization and must be
         invisible to the modelled-cycle accounting. *)
      match Hashtbl.find_opt t.precomputed addr with
      | Some (hex, cost) ->
          Sgx.Perf.count_cycles perf cost;
          Hashtbl.replace t.hashes addr hex;
          Some hex
      | None -> (
          match function_hash_unmemoized t ~perf ~addr with
          | Some hex ->
              Hashtbl.replace t.hashes addr hex;
              Some hex
          | None -> None))

(* --- parallel prehash --------------------------------------------- *)

(* The functions whose digests an inspection can ask for: targets of
   direct calls that resolve to a known function start (exactly the
   candidates the library-linking policy hashes, before its db
   filter). *)
let hash_candidates t =
  let addrs = Hashtbl.create 64 in
  Array.iter
    (fun (dc : direct_call) ->
      if dc.dc_name <> None && not (Hashtbl.mem addrs dc.dc_target) then
        Hashtbl.replace addrs dc.dc_target ())
    t.direct_calls;
  Hashtbl.fold (fun addr () acc -> addr :: acc) addrs []
  |> List.sort compare

let chunk n xs =
  let rec go i cur acc = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if i = n then go 1 [ x ] (List.rev cur :: acc) rest
        else go (i + 1) (x :: cur) acc rest
  in
  go 0 [] [] xs

(* When a function's decoded entries tile [addr, fn_end) back-to-back,
   the entry-wise streamed SHA-256 equals the SHA-256 of the raw byte
   slice, so the digest may be computed from the contiguous slice (and
   batched). Returns the slice as a buffer offset/length plus the
   carried cost from the same entry walk [hash_and_cost] performs, so
   charging stays bit-identical to the one-shot path. *)
let tiled_slice t ~addr =
  let b = t.buffer in
  let stop =
    match Symhash.function_end t.symbols addr with
    | Some e -> e
    | None -> b.Disasm.base + Disasm.code_length b.Disasm.code
  in
  match Disasm.index_of_addr b addr with
  | None -> None
  | Some i0 ->
      let n = Array.length b.Disasm.entries in
      let rec go i next cost =
        if i >= n then Some (next, cost)
        else begin
          let e = b.Disasm.entries.(i) in
          if e.Disasm.addr >= stop then Some (next, cost)
          else if e.Disasm.addr <> next then None
          else
            go (i + 1)
              (e.Disasm.addr + e.Disasm.len)
              (cost + Costmodel.hash_per_insn + (Costmodel.hash_per_byte * e.Disasm.len))
        end
      in
      (match go i0 addr Costmodel.hash_finalize with
      | Some (next, cost) when next = stop ->
          Some (addr - b.Disasm.base, stop - addr, cost)
      | Some _ | None -> None)

(* [hash_and_cost] mapped over a batch: functions whose bodies are
   contiguous in the buffer go through the multi-buffer
   [Sha256.digest_many] sweep (4–8 bodies per pass); the rest fall back
   to the streamed entry walk. Digests and costs are bit-identical to
   the scalar path either way. *)
let hash_many t addrs =
  let classified =
    List.map
      (fun addr ->
        match tiled_slice t ~addr with
        | Some (pos, len, cost) -> `Tiled (addr, pos, len, cost)
        | None -> `Plain addr)
      addrs
  in
  let tiled = List.filter_map (function `Tiled x -> Some x | `Plain _ -> None) classified in
  let code = t.buffer.Disasm.code in
  let bodies = List.map (fun (_, pos, len, _) -> Disasm.code_sub code ~pos ~len) tiled in
  let batched = Hashtbl.create (2 * List.length tiled) in
  List.iter2
    (fun (addr, _, _, cost) dg ->
      Hashtbl.replace batched addr (Crypto.Sha256.hex dg, cost))
    tiled
    (Crypto.Sha256.digest_many bodies);
  List.filter_map
    (function
      | `Tiled (addr, _, _, _) ->
          Option.map (fun hc -> (addr, hc)) (Hashtbl.find_opt batched addr)
      | `Plain addr -> Option.map (fun hc -> (addr, hc)) (hash_and_cost t ~addr))
    classified

let prehash ?(tasks = 8) ?(threshold = 16) ~run_all t =
  let candidates =
    List.filter
      (fun a -> (not (Hashtbl.mem t.hashes a)) && not (Hashtbl.mem t.precomputed a))
      (hash_candidates t)
  in
  let n = List.length candidates in
  if n >= threshold then begin
    let per_task = max 1 ((n + tasks - 1) / tasks) in
    let work =
      List.map (fun addrs () -> hash_many t addrs) (chunk per_task candidates)
    in
    (* Tasks only read [t]; the merge back into the store happens here,
       on the calling thread, so the index's tables are never mutated
       concurrently. *)
    List.iter
      (List.iter (fun (addr, hc) -> Hashtbl.replace t.precomputed addr hc))
      (run_all work)
  end
