open X86

let name = "indirect-function-calls"

let lea_rip_target = Patterns.lea_rip_target

(* The paper's peephole verdict for one site. [`Matched seq_start]
   means the full masking sequence immediately precedes the call
   (modulo padding) and the computed target is in-table; [seq_start]
   is the vaddr of the sequence's first instruction. [`Bad f] carries
   the pattern-mode finding. *)
let pattern_verdict idx entries (ic : Analysis.indirect_call) =
  let addr = ic.Analysis.ic_addr in
  let target_reg = ic.Analysis.ic_reg in
  let bad code msg = `Bad (Policy.finding ~policy:name ~addr ~code msg) in
  (* Expected preceding sequence (paper's listing):
     i-5: lea entry(%rip), Rt          (the function pointer)
     i-4: lea table(%rip), Rb
     i-3: sub Rb32, Rt32
     i-2: and $mask, Rt
     i-1: add Rb, Rt
     i  : callq *Rt
     The index's window is the five preceding non-padding entries,
     nearest first. *)
  let w = ic.Analysis.ic_window in
  if Array.length w < 5 then
    bad "ifcc-unprotected-call" (Printf.sprintf "unprotected indirect call at 0x%x" addr)
  else begin
    let nth k = entries.(w.(k - 1)) in
    let ptr = lea_rip_target (nth 5) in
    let base = lea_rip_target (nth 4) in
    let sub_ok = Patterns.ifcc_sub32 (nth 3).Disasm.insn in
    let mask =
      match Patterns.ifcc_and64 (nth 2).Disasm.insn with
      | Some (m, d) when Reg.equal d target_reg -> Some m
      | Some _ | None -> None
    in
    let add_ok = Patterns.ifcc_add64 (nth 1).Disasm.insn in
    match (ptr, base, sub_ok, mask, add_ok) with
    | Some (rp, ptr_addr), Some (rb, base_addr), Some (rs, rd), Some m, Some (ra, rda)
      when Reg.equal rp target_reg && Reg.equal rs rb && Reg.equal rd target_reg
           && Reg.equal ra rb && Reg.equal rda target_reg -> begin
        (* Compute the masked target as the hardware would; table
           membership is a binary search over the index's sorted
           range array. *)
        let masked = base_addr + ((ptr_addr - base_addr) land m) in
        if not (Analysis.in_table idx base_addr) then
          bad "ifcc-mask-base-outside-table"
            (Printf.sprintf
               "indirect call at 0x%x masks against 0x%x, outside any jump table" addr
               base_addr)
        else if not (Analysis.in_table idx masked) then
          bad "ifcc-target-outside-table"
            (Printf.sprintf
               "indirect call at 0x%x resolves to 0x%x, outside the jump table" addr
               masked)
        else `Matched (nth 5).Disasm.addr
      end
    | _ ->
        bad "ifcc-sequence-missing"
          (Printf.sprintf "indirect call at 0x%x lacks the IFCC masking sequence" addr)
  end

let make ?(mode = `Flow) ?(depth = `Intra) () =
  let check (ctx : Policy.context) =
    let idx = ctx.Policy.index in
    let perf = ctx.Policy.perf in
    let entries = ctx.Policy.buffer.Disasm.entries in
    let findings = ref [] in
    let note f = findings := f :: !findings in
    let note' ~addr ~code msg = note (Policy.finding ~policy:name ~addr ~code msg) in
    (* Interprocedural depth swaps the call transfer: instead of
       demoting every register at a call, a resolved direct call
       applies the callee's summary — so a masking sequence established
       in a helper survives the call and the [add]/[callq *] in the
       caller still proves in-table. [`Intra] keeps the paper-faithful
       conservative transfer, bit for bit. *)
    let problem =
      match depth with
      | `Intra -> Dataflow.Regs.problem
      | `Interproc ->
          Summary.regs_problem_via ~perf
            ~callee:(fun ~addr -> Policy.summary_of ctx ~addr)
    in
    (* Flow mode memoizes one dataflow solution per function (the CFG
       itself is shared across policies through the context store). *)
    let solutions : (int, (Cfg.t * Dataflow.Regs.t Dataflow.solution) option) Hashtbl.t =
      Hashtbl.create 8
    in
    let solution_for (fn : Analysis.func) =
      match Hashtbl.find_opt solutions fn.Analysis.fn_addr with
      | Some s -> s
      | None ->
          let s =
            match Policy.cfg_of ctx fn with
            | None -> None
            | Some cfg ->
                Some (cfg, Dataflow.solve perf ctx.Policy.buffer cfg problem)
          in
          Hashtbl.replace solutions fn.Analysis.fn_addr s;
          s
    in
    (* Full path sensitivity for one site: the register fact holding
       just before the call decides. *)
    let flow_verdict (ic : Analysis.indirect_call) fallback =
      let addr = ic.Analysis.ic_addr in
      match Analysis.function_containing idx.Analysis.functions addr with
      | None -> ( match fallback with `Bad f -> note f | `Matched _ -> ())
      | Some fi -> (
          match solution_for idx.Analysis.functions.(fi) with
          | None -> ( match fallback with `Bad f -> note f | `Matched _ -> ())
          | Some (cfg, sol) -> (
              match
                Dataflow.fact_at perf ctx.Policy.buffer cfg problem sol
                  ~index:ic.Analysis.ic_index
              with
              | None -> () (* unreachable call site; the lint policy owns dead code *)
              | Some facts -> (
                  match Dataflow.Regs.get facts ic.Analysis.ic_reg with
                  | Dataflow.Regs.Target (base, tgt) ->
                      if not (Analysis.in_table idx base) then
                        note' ~addr ~code:"ifcc-mask-base-outside-table"
                          (Printf.sprintf
                             "indirect call at 0x%x masks against 0x%x, outside any jump table"
                             addr base)
                      else if not (Analysis.in_table idx tgt) then
                        note' ~addr ~code:"ifcc-target-outside-table"
                          (Printf.sprintf
                             "indirect call at 0x%x resolves to 0x%x, outside the jump table"
                             addr tgt)
                  | Dataflow.Regs.Addr _ | Dataflow.Regs.Diff _ | Dataflow.Regs.Masked _ ->
                      note' ~addr ~code:"ifcc-sequence-missing"
                        (Printf.sprintf
                           "indirect call at 0x%x lacks the IFCC masking sequence" addr)
                  | Dataflow.Regs.Top ->
                      note' ~addr ~code:"ifcc-unmasked-on-path"
                        (Printf.sprintf
                           "indirect call at 0x%x is reachable with its target register \
                            unmasked: the IFCC masking sequence does not dominate the call"
                           addr))))
    in
    Array.iter
      (fun (ic : Analysis.indirect_call) ->
        Sgx.Perf.count_cycles perf
          (Costmodel.policy_step + (5 * Costmodel.pattern_probe));
        let v = pattern_verdict idx entries ic in
        match mode with
        | `Pattern -> ( match v with `Bad f -> note f | `Matched _ -> ())
        | `Flow ->
            (* Straight-line soundness fast path: when the matched
               sequence spans a range no branch targets and stays
               inside one function, it cannot be entered sideways —
               the pattern verdict is already a proof and the site
               needs no CFG. *)
            let sound_straight_line =
              match v with
              | `Bad _ -> false
              | `Matched seq_start ->
                  Sgx.Perf.count_cycles perf (2 * Costmodel.range_probe);
                  (not
                     (Analysis.branch_target_within idx ~lo:(seq_start + 1)
                        ~hi:(ic.Analysis.ic_addr + 1)))
                  &&
                  (* a window may not straddle a function boundary *)
                  (match
                     ( Analysis.function_containing idx.Analysis.functions seq_start,
                       Analysis.function_containing idx.Analysis.functions
                         ic.Analysis.ic_addr )
                   with
                  | Some f1, Some f2 -> f1 = f2
                  | _ -> false)
            in
            let before = !findings in
            if not sound_straight_line then flow_verdict ic v;
            (* Interprocedural tier: every intraprocedural proof above —
               dominance included — rests on the function having exactly
               one entry. A direct jump from another function into this
               one's body voids that assumption, so an accepted site in
               a jumped-into function is rejected after all. *)
            (match depth with
            | `Intra -> ()
            | `Interproc ->
                if !findings == before then begin
                  Sgx.Perf.count_cycles perf Costmodel.range_probe;
                  match
                    Analysis.function_containing idx.Analysis.functions
                      ic.Analysis.ic_addr
                  with
                  | None -> ()
                  | Some fi -> (
                      match Callgraph.jump_into (Policy.callgraph_of ctx) fi with
                      | [] -> ()
                      | e :: _ ->
                          note' ~addr:ic.Analysis.ic_addr
                            ~code:"ifcc-unmasked-interproc"
                            (Printf.sprintf
                               "indirect call at 0x%x sits in a function \
                                entered mid-body by the jump at 0x%x: its \
                                masking proof does not hold"
                               ic.Analysis.ic_addr e.Callgraph.e_addr))
                end))
      idx.Analysis.indirect_calls;
    Array.iter
      (fun (_, addr) ->
        Sgx.Perf.count_cycles perf Costmodel.policy_step;
        note' ~addr ~code:"ifcc-unprotected-jump"
          (Printf.sprintf "unprotected indirect jump at 0x%x" addr))
      idx.Analysis.indirect_jumps;
    (* Calls and jumps come from separate index arrays: merge back into
       one ascending-address stream. *)
    Policy.of_findings
      (List.stable_sort
         (fun (a : Policy.finding) b -> compare a.Policy.addr b.Policy.addr)
         (List.rev !findings))
  in
  { Policy.name; check }
