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
  mutable build_cycles : int;
}

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
             | Some lo -> Some (lo, Decoder.lower_bound entries fn_end)
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
      build_cycles = 0;
    }
  in
  t.build_cycles <- Sgx.Perf.total_cycles perf - before;
  t

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

(* The index of the greatest function whose start is <= addr, or -1. *)
let last_start_at_or_below (fns : func array) addr =
  let rec go lo hi =
    if lo >= hi then lo - 1
    else begin
      let mid = (lo + hi) / 2 in
      if fns.(mid).fn_addr <= addr then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length fns)

let function_containing fns addr =
  let k = last_start_at_or_below fns addr in
  if k >= 0 && addr < fns.(k).fn_end then Some k else None

let function_at fns addr =
  let k = last_start_at_or_below fns addr in
  if k >= 0 && fns.(k).fn_addr = addr then Some k else None

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

(* Absorb code bytes into a hash, reading the off-heap buffer in
   place. *)
let absorb h (Decoder.Big b) ~pos ~len = Crypto.Sha256.update_big_sub h b ~pos ~len

let function_hash_unmemoized t ~perf ~addr =
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
      Sgx.Perf.count_cycles perf !cost;
      Some (Crypto.Sha256.hex (Crypto.Sha256.finalize h))

let function_hash t ~perf ~addr =
  match Hashtbl.find_opt t.hashes addr with
  | Some hex ->
      Sgx.Perf.count_cycles perf Costmodel.hash_memo_lookup;
      Some hex
  | None -> (
      match function_hash_unmemoized t ~perf ~addr with
      | Some hex ->
          Hashtbl.replace t.hashes addr hex;
          Some hex
      | None -> None)
