open X86

type t = {
  s_defines : int;
  s_reads : int;
  s_clobbers : int;
  s_canary : bool;
  s_masks : (int * Dataflow.Regs.av) list;
  s_returns : bool;
}

let flags_bit = 16
let flags_mask = 1 lsl flags_bit
let all_state = (1 lsl 17) - 1
let reg_bit r = 1 lsl Reg.number r

let sanitize_mask =
  reg_bit Reg.RDI lor reg_bit Reg.RSI lor reg_bit Reg.RDX lor reg_bit Reg.RCX
  lor reg_bit Reg.R8 lor reg_bit Reg.R9 lor flags_mask

let conservative =
  {
    s_defines = 0;
    s_reads = all_state;
    s_clobbers = all_state;
    s_canary = false;
    s_masks = [];
    s_returns = true;
  }

let mem_reads (m : Insn.mem) =
  (match m.Insn.base with Some r -> reg_bit r | None -> 0)
  lor match m.Insn.index with Some (r, _) -> reg_bit r | None -> 0

(* State an operand consumes when used as a source (or read-modify-write
   destination): the register itself, or a memory operand's addressing
   registers. *)
let op_reads = function
  | Insn.Reg (_, r) -> reg_bit r
  | Insn.Mem (_, m) -> mem_reads m
  | Insn.Imm _ | Insn.Rip _ | Insn.Rel _ -> 0

(* A plain-destination operand (mov/lea/pop): a register is written, not
   read, but a memory destination still reads its addressing registers. *)
let op_dst_reads = function Insn.Mem (_, m) -> mem_reads m | _ -> 0

let reads_of_insn (i : Insn.t) =
  match (i.Insn.mnem, i.Insn.ops) with
  | Insn.MOV, [ src; dst ] -> op_reads src lor op_dst_reads dst
  | Insn.LEA, [ src; _ ] -> op_dst_reads src
  (* xor %r, %r zeroes without consuming the old value *)
  | Insn.XOR, [ Insn.Reg (_, s); Insn.Reg (_, d) ] when Reg.equal s d -> 0
  | ( ( Insn.ADD | Insn.SUB | Insn.AND | Insn.OR | Insn.XOR | Insn.IMUL
      | Insn.SHL | Insn.SHR | Insn.CMP | Insn.TEST ),
      [ a; b ] ) ->
      op_reads a lor op_reads b
  | Insn.PUSH, [ Insn.Reg (_, r) ] -> reg_bit r lor reg_bit Reg.RSP
  | Insn.POP, _ -> reg_bit Reg.RSP
  | Insn.CALL, _ -> reg_bit Reg.RSP
  | Insn.CALL_IND, [ Insn.Reg (_, r) ] -> reg_bit r lor reg_bit Reg.RSP
  | Insn.JMP_IND, [ Insn.Reg (_, r) ] -> reg_bit r
  | Insn.JCC _, _ -> flags_mask
  | Insn.RET, _ -> reg_bit Reg.RSP
  | _ -> 0

let defines_of_insn (i : Insn.t) =
  let dst = match List.rev i.Insn.ops with
    | Insn.Reg (_, r) :: _ -> reg_bit r
    | _ -> 0
  in
  match i.Insn.mnem with
  | Insn.MOV | Insn.LEA -> dst
  | Insn.ADD | Insn.SUB | Insn.AND | Insn.OR | Insn.XOR | Insn.IMUL
  | Insn.SHL | Insn.SHR ->
      dst lor flags_mask
  | Insn.CMP | Insn.TEST -> flags_mask
  | Insn.PUSH -> reg_bit Reg.RSP
  | Insn.POP -> dst lor reg_bit Reg.RSP
  | _ -> 0

let call_target (e : Disasm.entry) =
  match (e.Disasm.insn.Insn.mnem, e.Disasm.insn.Insn.ops) with
  | Insn.CALL, [ Insn.Rel d ] -> Some (e.Disasm.addr + e.Disasm.len + d)
  | _ -> None

let effective_reads ~callee (e : Disasm.entry) =
  match e.Disasm.insn.Insn.mnem with
  | Insn.CALL -> (
      match call_target e with
      | Some a -> (
          match callee ~addr:a with
          | Some s -> s.s_reads lor reg_bit Reg.RSP
          | None -> all_state)
      | None -> all_state)
  | Insn.CALL_IND -> all_state
  | _ -> reads_of_insn e.Disasm.insn

let must_init_problem ~perf ~callee =
  {
    Dataflow.init = 0;
    transfer =
      (fun (e : Disasm.entry) fact ->
        match e.Disasm.insn.Insn.mnem with
        | Insn.CALL -> (
            match call_target e with
            | Some a -> (
                match callee ~addr:a with
                | Some s ->
                    Sgx.Perf.count_cycles perf Costmodel.summary_apply;
                    (* a callee that cannot return makes everything after
                       the call vacuously initialized *)
                    if not s.s_returns then all_state
                    else fact lor s.s_defines
                | None -> fact)
            | None -> fact)
        | Insn.CALL_IND -> fact
        | _ -> fact lor defines_of_insn e.Disasm.insn);
    join = ( land );
    equal = Int.equal;
  }

let regs_problem_via ~perf ~callee =
  Dataflow.Regs.problem_via ~call:(fun (e : Disasm.entry) regs ->
      match call_target e with
      | None -> None
      | Some a -> (
          match callee ~addr:a with
          | None -> None
          | Some s ->
              Sgx.Perf.count_cycles perf Costmodel.summary_apply;
              let r = ref regs in
              for rn = 0 to 15 do
                if s.s_clobbers land (1 lsl rn) <> 0 then
                  r := Dataflow.Regs.set !r (Reg.of_number rn) Dataflow.Regs.Top
              done;
              List.iter
                (fun (rn, av) -> r := Dataflow.Regs.set !r (Reg.of_number rn) av)
                s.s_masks;
              Some !r))

type store = { memo : (int, t) Hashtbl.t }

let create_store () = { memo = Hashtbl.create 16 }

let rec compute store perf (analysis : Analysis.t) ~cfg ~callgraph
    (f : Analysis.func) =
  match cfg f with
  | None -> conservative
  | Some (g : Cfg.t) ->
      let entries = analysis.Analysis.buffer.Disasm.entries in
      let ne = Array.length entries in
      let callee ~addr = get store perf analysis ~cfg ~callgraph ~addr in
      let mi = must_init_problem ~perf ~callee in
      let mi_sol = Dataflow.solve perf analysis.Analysis.buffer g mi in
      let reads = ref 0 in
      let clobbers = ref 0 in
      let canary = ref false in
      let defines_at_ret = ref None in
      let returns = ref false in
      let ret_indices = ref [] in
      Array.iteri
        (fun k (b : Cfg.block) ->
          match mi_sol.Dataflow.in_facts.(k) with
          | None -> () (* unreachable: contributes nothing *)
          | Some fact0 ->
              let fact = ref fact0 in
              for i = b.Cfg.b_lo to min b.Cfg.b_hi ne - 1 do
                Sgx.Perf.count_cycles perf Costmodel.summary_step;
                let e = entries.(i) in
                let insn = e.Disasm.insn in
                reads := !reads lor (effective_reads ~callee e land lnot !fact);
                (match insn.Insn.mnem with
                | Insn.CALL -> (
                    match call_target e with
                    | Some a -> (
                        match callee ~addr:a with
                        | Some s -> clobbers := !clobbers lor s.s_clobbers
                        | None -> clobbers := all_state)
                    | None -> clobbers := all_state)
                | Insn.CALL_IND -> clobbers := all_state
                | _ -> clobbers := !clobbers lor defines_of_insn insn);
                if Insn.canary_load insn <> None then canary := true;
                if insn.Insn.mnem = Insn.RET then begin
                  returns := true;
                  ret_indices := i :: !ret_indices;
                  defines_at_ret :=
                    Some
                      (match !defines_at_ret with
                      | None -> !fact
                      | Some d -> d land !fact)
                end;
                fact := mi.Dataflow.transfer e !fact
              done;
              (* exits other than ret: tail transfers, indirect jumps,
                 and falling off the end of the slice *)
              if b.Cfg.b_hi - 1 < ne then begin
                let last = entries.(b.Cfg.b_hi - 1) in
                match last.Disasm.insn.Insn.mnem with
                | Insn.JMP | Insn.JCC _ -> (
                    match Patterns.branch_target last with
                    | Some tgt
                      when tgt < f.Analysis.fn_addr || tgt >= f.Analysis.fn_end
                      -> (
                        match callee ~addr:tgt with
                        | Some s -> if s.s_returns then returns := true
                        | None -> returns := true)
                    | _ -> ())
                | Insn.JMP_IND -> returns := true
                | Insn.RET | Insn.UD2 -> ()
                | _ -> if b.Cfg.b_succ = [] then returns := true
              end)
        g.Cfg.blocks;
      let masks =
        match List.rev !ret_indices with
        | [] -> []
        | rets ->
            let rp = regs_problem_via ~perf ~callee in
            let rsol = Dataflow.solve perf analysis.Analysis.buffer g rp in
            let at i =
              Dataflow.fact_at perf analysis.Analysis.buffer g rp rsol ~index:i
            in
            List.fold_left
              (fun acc i ->
                match (acc, at i) with
                | None, _ | _, None -> None
                | Some acc, Some facts ->
                    Some
                      (List.filter
                         (fun (rn, av) ->
                           Dataflow.Regs.get facts (Reg.of_number rn) = av)
                         acc))
              (match at (List.hd rets) with
              | None -> None
              | Some facts ->
                  Some
                    (List.filter_map
                       (fun rn ->
                         match Dataflow.Regs.get facts (Reg.of_number rn) with
                         | Dataflow.Regs.Top -> None
                         | av -> Some (rn, av))
                       [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]))
              (List.tl rets)
            |> Option.value ~default:[]
      in
      {
        s_defines =
          (if !returns then Option.value !defines_at_ret ~default:all_state
           else all_state);
        s_reads = !reads;
        s_clobbers = !clobbers;
        s_canary = !canary;
        s_masks = masks;
        s_returns = !returns;
      }

and get store perf analysis ~cfg ~callgraph ~addr =
  Sgx.Perf.count_cycles perf Costmodel.summary_memo_lookup;
  match Analysis.function_at callgraph.Callgraph.index.Analysis.functions addr with
  | None -> None
  | Some fi -> (
      match Hashtbl.find_opt store.memo addr with
      | Some s -> Some s
      | None ->
          let s =
            if callgraph.Callgraph.recursive.(fi) then conservative
            else
              compute store perf analysis ~cfg ~callgraph
                analysis.Analysis.functions.(fi)
          in
          Hashtbl.replace store.memo addr s;
          Some s)

let compute_all store perf analysis ~cfg ~callgraph =
  Array.iter
    (fun fi ->
      ignore
        (get store perf analysis ~cfg ~callgraph
           ~addr:analysis.Analysis.functions.(fi).Analysis.fn_addr))
    callgraph.Callgraph.bottom_up
