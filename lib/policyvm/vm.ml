open Engarde
open Prog

type error =
  | Fuel_exhausted
  | Type_error of string
  | Bounds of string
  | Arity of string
  | Bad_format of string

let error_to_string = function
  | Fuel_exhausted -> "fuel exhausted"
  | Type_error w -> "type error: " ^ w
  | Bounds w -> "out-of-range access: " ^ w
  | Arity w -> "bad primitive arity: " ^ w
  | Bad_format w -> "bad format string: " ^ w

exception Stop of error
exception Brk

type value =
  | VInt of int
  | VBool of bool
  | VStr of string
  | VReg of X86.Reg.t
  | VNone
  | VSome of value
  | VPair of value * value
  | VList of value list

type state = {
  ctx : Policy.context;
  prog : Prog.t;
  tables : (string, string) Hashtbl.t array;
  frame : value array;
  mutable fuel : int;
  mutable steps : int;
  mutable findings : Policy.finding list; (* newest first *)
  sols : (int, (Cfg.t * Dataflow.Regs.t Dataflow.solution) option) Hashtbl.t;
      (* per-run dataflow memo, mirroring the native policies'
         per-check [solutions] tables (the CFG itself is shared across
         policies through [Policy.cfg_of]) *)
  san_sols : (int, (Cfg.t * int Dataflow.solution) option) Hashtbl.t;
      (* per-run must-init memo for the sanitize primitives, mirroring
         the native sanitize policy's per-check [sols] table (function
         summaries are shared across policies through
         [Policy.summary_of]) *)
}

let stop e = raise (Stop e)
let type_err what = stop (Type_error what)

let int_of = function VInt v -> v | _ -> type_err "expected int"
let bool_of = function VBool v -> v | _ -> type_err "expected bool"
let str_of = function VStr v -> v | _ -> type_err "expected string"
let reg_of = function VReg v -> v | _ -> type_err "expected register"
let list_of = function VList v -> v | _ -> type_err "expected list"

let vopt = function None -> VNone | Some v -> VSome v
let vint v = VInt v
let vbool v = VBool v

(* ---- fact interface ------------------------------------------------ *)

let entry st i =
  let entries = st.ctx.Policy.buffer.Disasm.entries in
  if i < 0 || i >= Array.length entries then stop (Bounds "instruction entry")
  else entries.(i)

let func st fi =
  let fns = st.ctx.Policy.index.Analysis.functions in
  if fi < 0 || fi >= Array.length fns then stop (Bounds "function") else fns.(fi)

let direct_call st i =
  let dcs = st.ctx.Policy.index.Analysis.direct_calls in
  if i < 0 || i >= Array.length dcs then stop (Bounds "direct call") else dcs.(i)

let indirect_call st i =
  let ics = st.ctx.Policy.index.Analysis.indirect_calls in
  if i < 0 || i >= Array.length ics then stop (Bounds "indirect call") else ics.(i)

let indirect_jump st i =
  let ijs = st.ctx.Policy.index.Analysis.indirect_jumps in
  if i < 0 || i >= Array.length ijs then stop (Bounds "indirect jump") else ijs.(i)

let cfg_of st fi =
  (* charged through [Policy.cfg_of]'s shared memo, exactly as the
     native flow-mode policies build their CFGs *)
  Policy.cfg_of st.ctx (func st fi)

let cfg_exn st fi =
  match cfg_of st fi with
  | Some cfg -> cfg
  | None -> stop (Bounds "no CFG for function")

let block st fi k =
  let cfg = cfg_exn st fi in
  if k < 0 || k >= Array.length cfg.Cfg.blocks then stop (Bounds "basic block")
  else (cfg, cfg.Cfg.blocks.(k))

let solution_for st fi =
  let fn = func st fi in
  match Hashtbl.find_opt st.sols fn.Analysis.fn_addr with
  | Some s -> s
  | None ->
      let s =
        match Policy.cfg_of st.ctx fn with
        | None -> None
        | Some cfg ->
            Some
              ( cfg,
                Dataflow.solve st.ctx.Policy.perf st.ctx.Policy.buffer cfg
                  Dataflow.Regs.problem )
      in
      Hashtbl.replace st.sols fn.Analysis.fn_addr s;
      s

(* The sanitize primitives' must-init dataflow: same callee resolution,
   same perf, same memo discipline as the native sanitize policy, so VM
   and native runs charge bit-identical modelled cycles. *)
let san_callee st ~addr = Policy.summary_of st.ctx ~addr

let san_problem st =
  Summary.must_init_problem ~perf:st.ctx.Policy.perf ~callee:(fun ~addr ->
      san_callee st ~addr)

let san_solution_for st fi =
  let fn = func st fi in
  match Hashtbl.find_opt st.san_sols fn.Analysis.fn_addr with
  | Some s -> s
  | None ->
      let s =
        match Policy.cfg_of st.ctx fn with
        | None -> None
        | Some cfg ->
            Some
              ( cfg,
                Dataflow.solve st.ctx.Policy.perf st.ctx.Policy.buffer cfg
                  (san_problem st) )
      in
      Hashtbl.replace st.san_sols fn.Analysis.fn_addr s;
      s

let fact_before st fi index r =
  match solution_for st fi with
  | None -> VNone
  | Some (cfg, sol) -> (
      match
        Dataflow.fact_at st.ctx.Policy.perf st.ctx.Policy.buffer cfg
          Dataflow.Regs.problem sol ~index
      with
      | None -> VNone
      | Some facts ->
          let kind, a, b =
            match Dataflow.Regs.get facts r with
            | Dataflow.Regs.Top -> (kind_top, 0, 0)
            | Dataflow.Regs.Addr a -> (kind_addr, a, 0)
            | Dataflow.Regs.Diff (p, b) -> (kind_diff, p, b)
            | Dataflow.Regs.Masked (p, b, _) -> (kind_masked, p, b)
            | Dataflow.Regs.Target (base, tgt) -> (kind_target, base, tgt)
          in
          VSome (VPair (VInt kind, VPair (VInt a, VInt b))))

let vreg_pair (r1, v) = VPair (VReg r1, VInt v)
let vregs_pair (r1, r2) = VPair (VReg r1, VReg r2)

let prim_eval st p (args : value list) =
  let idx = st.ctx.Policy.index in
  let buffer = st.ctx.Policy.buffer in
  let arity_err () = stop (Arity "primitive") in
  let a1 () = match args with [ v ] -> v | _ -> arity_err () in
  let a2 () = match args with [ v1; v2 ] -> (v1, v2) | _ -> arity_err () in
  let a3 () = match args with [ v1; v2; v3 ] -> (v1, v2, v3) | _ -> arity_err () in
  let a0 () = match args with [] -> () | _ -> arity_err () in
  match p with
  | P_num_entries ->
      a0 ();
      vint (Array.length buffer.Disasm.entries)
  | P_entry_addr -> vint (entry st (int_of (a1 ()))).Disasm.addr
  | P_code_base ->
      a0 ();
      vint buffer.Disasm.base
  | P_code_end ->
      a0 ();
      vint (buffer.Disasm.base + Disasm.code_length buffer.Disasm.code)
  | P_index_of_addr ->
      vopt (Option.map vint (Disasm.index_of_addr buffer (int_of (a1 ()))))
  | P_is_ret -> vbool ((entry st (int_of (a1 ()))).Disasm.insn.X86.Insn.mnem = X86.Insn.RET)
  | P_can_fall_through ->
      vbool (Patterns.can_fall_through (entry st (int_of (a1 ()))).Disasm.insn)
  | P_branch_target -> vopt (Option.map vint (Patterns.branch_target (entry st (int_of (a1 ())))))
  | P_sole_reg_operand ->
      vopt
        (Option.map (fun r -> VReg r)
           (Patterns.sole_reg_operand (entry st (int_of (a1 ()))).Disasm.insn))
  | P_stack_store ->
      vopt
        (Option.map (fun r -> VReg r)
           (X86.Insn.stack_store (entry st (int_of (a1 ()))).Disasm.insn))
  | P_canary_load_into ->
      let r, i = a2 () in
      vbool (Patterns.canary_load_into (reg_of r) (entry st (int_of i)).Disasm.insn)
  | P_defines ->
      let r, i = a2 () in
      vbool (Patterns.defines (reg_of r) (entry st (int_of i)).Disasm.insn)
  | P_canary_check_site ->
      let i, lo, hi = a3 () in
      let i = int_of i and lo = int_of lo and hi = int_of hi in
      ignore (entry st i);
      if lo < 0 || hi > Array.length buffer.Disasm.entries then
        stop (Bounds "canary probe range")
      else
        vopt
          (Option.map vint
             (Patterns.canary_check_site buffer st.ctx.Policy.symbols ~lo ~hi i))
  | P_lea_rip_target ->
      vopt (Option.map vreg_pair (Patterns.lea_rip_target (entry st (int_of (a1 ())))))
  | P_ifcc_sub32 ->
      vopt (Option.map vregs_pair (Patterns.ifcc_sub32 (entry st (int_of (a1 ()))).Disasm.insn))
  | P_ifcc_and64 ->
      vopt
        (Option.map
           (fun (m, d) -> VPair (VInt m, VReg d))
           (Patterns.ifcc_and64 (entry st (int_of (a1 ()))).Disasm.insn))
  | P_ifcc_add64 ->
      vopt (Option.map vregs_pair (Patterns.ifcc_add64 (entry st (int_of (a1 ()))).Disasm.insn))
  | P_num_functions ->
      a0 ();
      vint (Array.length idx.Analysis.functions)
  | P_fn_addr -> vint (func st (int_of (a1 ()))).Analysis.fn_addr
  | P_fn_name -> VStr (func st (int_of (a1 ()))).Analysis.fn_name
  | P_fn_slice ->
      vopt
        (Option.map
           (fun (lo, hi) -> VPair (VInt lo, VInt hi))
           (func st (int_of (a1 ()))).Analysis.fn_slice)
  | P_function_containing ->
      vopt
        (Option.map vint
           (Analysis.function_containing st.ctx.Policy.index.Analysis.functions
              (int_of (a1 ()))))
  | P_is_function_start ->
      vbool (Symhash.is_function_start st.ctx.Policy.symbols (int_of (a1 ())))
  | P_num_direct_calls ->
      a0 ();
      vint (Array.length idx.Analysis.direct_calls)
  | P_dc_addr -> vint (direct_call st (int_of (a1 ()))).Analysis.dc_addr
  | P_dc_target -> vint (direct_call st (int_of (a1 ()))).Analysis.dc_target
  | P_dc_name ->
      vopt (Option.map (fun s -> VStr s) (direct_call st (int_of (a1 ()))).Analysis.dc_name)
  | P_num_indirect_calls ->
      a0 ();
      vint (Array.length idx.Analysis.indirect_calls)
  | P_ic_addr -> vint (indirect_call st (int_of (a1 ()))).Analysis.ic_addr
  | P_ic_index -> vint (indirect_call st (int_of (a1 ()))).Analysis.ic_index
  | P_ic_reg -> VReg (indirect_call st (int_of (a1 ()))).Analysis.ic_reg
  | P_ic_window_len ->
      vint (Array.length (indirect_call st (int_of (a1 ()))).Analysis.ic_window)
  | P_ic_window ->
      let i, k = a2 () in
      let w = (indirect_call st (int_of i)).Analysis.ic_window in
      let k = int_of k in
      (* window slot [k] counts back from the call: slot 1 is the
         nearest preceding entry, matching the paper's i-k indexing *)
      if k < 1 || k > Array.length w then stop (Bounds "window slot") else vint w.(k - 1)
  | P_num_indirect_jumps ->
      a0 ();
      vint (Array.length idx.Analysis.indirect_jumps)
  | P_ij_index -> vint (fst (indirect_jump st (int_of (a1 ()))))
  | P_ij_addr -> vint (snd (indirect_jump st (int_of (a1 ()))))
  | P_in_table -> vbool (Analysis.in_table idx (int_of (a1 ())))
  | P_function_hash ->
      vopt
        (Option.map
           (fun h -> VStr h)
           (Analysis.function_hash idx ~perf:st.ctx.Policy.perf ~addr:(int_of (a1 ()))))
  | P_table_lookup ->
      let t, k = a2 () in
      let t = int_of t in
      if t < 0 || t >= Array.length st.tables then stop (Bounds "table id")
      else vopt (Option.map (fun v -> VStr v) (Hashtbl.find_opt st.tables.(t) (str_of k)))
  | P_branch_target_within ->
      let lo, hi = a2 () in
      vbool (Analysis.branch_target_within idx ~lo:(int_of lo) ~hi:(int_of hi))
  | P_has_cfg -> vbool (cfg_of st (int_of (a1 ())) <> None)
  | P_num_blocks -> vint (Array.length (cfg_exn st (int_of (a1 ()))).Cfg.blocks)
  | P_block_lo ->
      let fi, k = a2 () in
      vint (snd (block st (int_of fi) (int_of k))).Cfg.b_lo
  | P_block_hi ->
      let fi, k = a2 () in
      vint (snd (block st (int_of fi) (int_of k))).Cfg.b_hi
  | P_block_addr ->
      let fi, k = a2 () in
      vint (snd (block st (int_of fi) (int_of k))).Cfg.b_addr
  | P_block_padding ->
      let fi, k = a2 () in
      vbool (snd (block st (int_of fi) (int_of k))).Cfg.b_padding
  | P_block_reachable ->
      let fi, k = a2 () in
      let cfg, _ = block st (int_of fi) (int_of k) in
      vbool cfg.Cfg.reachable.(int_of k)
  | P_block_of_index ->
      let fi, i = a2 () in
      vopt (Option.map vint (Cfg.block_of_index (cfg_exn st (int_of fi)) (int_of i)))
  | P_dominates ->
      let fi, a, b = a3 () in
      let cfg = cfg_exn st (int_of fi) in
      let nb = Array.length cfg.Cfg.blocks in
      let a = int_of a and b = int_of b in
      if a < 0 || a >= nb || b < 0 || b >= nb then stop (Bounds "dominates")
      else vbool (Cfg.dominates cfg a b)
  | P_fact_before ->
      let fi, i, r = a3 () in
      let i = int_of i in
      ignore (entry st i);
      fact_before st (int_of fi) i (reg_of r)
  | P_fn_is_entry ->
      vbool (Policy_sanitize.is_entry_name (func st (int_of (a1 ()))).Analysis.fn_name)
  | P_san_reads ->
      vint
        (Summary.effective_reads
           ~callee:(fun ~addr -> san_callee st ~addr)
           (entry st (int_of (a1 ()))))
  | P_san_fact -> (
      let fi, i = a2 () in
      let i = int_of i in
      ignore (entry st i);
      match san_solution_for st (int_of fi) with
      | None -> VNone
      | Some (cfg, sol) ->
          vopt
            (Option.map vint
               (Dataflow.fact_at st.ctx.Policy.perf st.ctx.Policy.buffer cfg
                  (san_problem st) sol ~index:i)))

(* ---- findings ------------------------------------------------------ *)

let format_finding fmt args =
  let b = Buffer.create (String.length fmt + 32) in
  let args = ref args in
  let next () =
    match !args with
    | [] -> stop (Bad_format "missing argument")
    | v :: rest ->
        args := rest;
        v
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let ch = fmt.[!i] in
    if ch <> '%' then Buffer.add_char b ch
    else begin
      incr i;
      if !i >= n then stop (Bad_format "trailing %");
      (match fmt.[!i] with
      | 'x' -> Buffer.add_string b (Printf.sprintf "%x" (int_of (next ())))
      | 'd' -> Buffer.add_string b (Printf.sprintf "%d" (int_of (next ())))
      | 's' -> Buffer.add_string b (str_of (next ()))
      | '%' -> Buffer.add_char b '%'
      | _ -> stop (Bad_format "unknown directive"))
    end;
    incr i
  done;
  if !args <> [] then stop (Bad_format "unused arguments");
  Buffer.contents b

(* ---- interpreter --------------------------------------------------- *)

let tick st =
  st.steps <- st.steps + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel < 0 then stop Fuel_exhausted

let truthy = bool_of

let rec eval st (e : expr) : value =
  tick st;
  match e with
  | Const (C_int v) -> VInt v
  | Const (C_bool v) -> VBool v
  | Const (C_str s) -> VStr s
  | Const C_none -> VNone
  | Const C_nil -> VList []
  | Var slot -> st.frame.(slot)
  | Un (op, e) -> (
      let v = eval st e in
      match op with
      | U_not -> VBool (not (truthy v))
      | U_is_some -> VBool (match v with VSome _ -> true | _ -> false)
      | U_fst -> ( match v with VPair (a, _) -> a | _ -> type_err "expected pair")
      | U_snd -> ( match v with VPair (_, b) -> b | _ -> type_err "expected pair"))
  | Bin (op, e1, e2) -> (
      let v1 = eval st e1 in
      let v2 = eval st e2 in
      match op with
      | B_add -> VInt (int_of v1 + int_of v2)
      | B_sub -> VInt (int_of v1 - int_of v2)
      | B_mul -> VInt (int_of v1 * int_of v2)
      | B_land -> VInt (int_of v1 land int_of v2)
      | B_min -> VInt (min (int_of v1) (int_of v2))
      | B_eq -> (
          match (v1, v2) with
          | VInt a, VInt b -> VBool (a = b)
          | VBool a, VBool b -> VBool (a = b)
          | VStr a, VStr b -> VBool (String.equal a b)
          | _ -> type_err "expected comparable values")
      | B_lt -> VBool (int_of v1 < int_of v2)
      | B_le -> VBool (int_of v1 <= int_of v2)
      | B_reg_eq -> VBool (X86.Reg.equal (reg_of v1) (reg_of v2)))
  | And (e1, e2) -> if truthy (eval st e1) then VBool (truthy (eval st e2)) else VBool false
  | Or (e1, e2) -> if truthy (eval st e1) then VBool true else VBool (truthy (eval st e2))
  | Get e -> (
      match eval st e with VSome v -> v | _ -> type_err "Get of empty option")
  | Prim (p, args) -> prim_eval st p (List.map (eval st) args)

let rec exec st (s : stmt) : unit =
  tick st;
  match s with
  | Nop -> ()
  | Seq ss -> List.iter (exec st) ss
  | Charge (c, times) ->
      Sgx.Perf.count_cycles st.ctx.Policy.perf (cost_cycles c * times)
  | Set (slot, e) -> st.frame.(slot) <- eval st e
  | If (cond, t, f) -> if truthy (eval st cond) then exec st t else exec st f
  | For (slot, lo, hi, body) -> begin
      let lo = int_of (eval st lo) in
      let hi = int_of (eval st hi) in
      try
        for i = lo to hi - 1 do
          st.frame.(slot) <- VInt i;
          exec st body
        done
      with Brk -> ()
    end
  | For_down (slot, hi, lo, body) -> begin
      let hi = int_of (eval st hi) in
      let lo = int_of (eval st lo) in
      try
        for i = hi downto lo do
          st.frame.(slot) <- VInt i;
          exec st body
        done
      with Brk -> ()
    end
  | For_list (slot, list_slot, body) -> begin
      let items = list_of st.frame.(list_slot) in
      try
        List.iter
          (fun v ->
            st.frame.(slot) <- v;
            exec st body)
          items
      with Brk -> ()
    end
  | Push (slot, e) ->
      let v = eval st e in
      st.frame.(slot) <- VList (v :: list_of st.frame.(slot))
  | Break -> raise Brk
  | Emit { code; addr; fmt; args } ->
      let addr = int_of (eval st addr) in
      let args = List.map (eval st) args in
      let msg = format_finding fmt args in
      st.findings <-
        Policy.finding ~policy:st.prog.name ~addr ~code msg :: st.findings

type outcome = {
  verdict : (Policy.verdict, error) result;
  fuel_left : int;
  vm_nodes : int;
}

let default_fuel (ctx : Policy.context) =
  Costmodel.vm_fuel_base
  + (Costmodel.vm_fuel_per_entry * Array.length ctx.Policy.buffer.Disasm.entries)

let build_tables (p : Prog.t) =
  Array.map
    (fun entries ->
      let tbl = Hashtbl.create (2 * List.length entries + 1) in
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) entries;
      tbl)
    p.tables

let run ?fuel ?(vm_perf = Sgx.Perf.create ()) ?tables (p : Prog.t)
    (ctx : Policy.context) : outcome =
  let fuel = match fuel with Some f -> f | None -> default_fuel ctx in
  let tables = match tables with Some t -> t | None -> build_tables p in
  let st =
    {
      ctx;
      prog = p;
      tables;
      frame = Array.make (max p.locals 1) (VInt 0);
      fuel;
      steps = 0;
      findings = [];
      sols = Hashtbl.create 8;
      san_sols = Hashtbl.create 8;
    }
  in
  let verdict =
    try
      exec st p.body;
      let fs = List.rev st.findings in
      let fs =
        if p.sort_findings then
          List.stable_sort
            (fun (a : Policy.finding) b -> compare a.Policy.addr b.Policy.addr)
            fs
        else fs
      in
      Ok (Policy.of_findings fs)
    with
    | Stop e -> Error e
    | Brk -> Error (Type_error "break outside loop")
  in
  Sgx.Perf.count_cycles vm_perf (st.steps * Costmodel.vm_step);
  { verdict; fuel_left = st.fuel; vm_nodes = st.steps }

let policy ?fuel ?vm_perf (p : Prog.t) : Policy.t =
  (* the embedded tables are hashed once here, not per check — the
     native modules build their lookup tables at [make] time too *)
  let tables = build_tables p in
  let check ctx =
    match (run ?fuel ?vm_perf ~tables p ctx).verdict with
    | Ok v -> v
    | Error e ->
        Policy.Violations
          [
            Policy.finding ~policy:p.name ~addr:0 ~code:"policy-vm-error"
              (Printf.sprintf "policy program failed: %s" (error_to_string e));
          ]
  in
  { Policy.name = p.name; check }

let of_blob ?fuel ?vm_perf blob =
  match Encode.decode blob with
  | Error e -> Error e
  | Ok p ->
      (match vm_perf with
      | Some perf ->
          Sgx.Perf.count_cycles perf (Costmodel.vm_decode_per_byte * String.length blob)
      | None -> ());
      Ok (policy ?fuel ?vm_perf p)
