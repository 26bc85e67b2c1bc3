open X86

let name = "stack-protection"

(* Instruction-shape recognizers live in {!X86.Insn} and {!Patterns},
   shared with the policy VM's primitives. *)
let stack_store = Insn.stack_store
let canary_load_into = Patterns.canary_load_into
let defines = Patterns.defines

let make ?(exempt = []) ?(mode = `Flow) ?(depth = `Intra) () =
  let exempt_tbl = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace exempt_tbl n ()) exempt;
  let check (ctx : Policy.context) =
    let b = ctx.Policy.buffer in
    let perf = ctx.Policy.perf in
    let entries = b.Disasm.entries in
    let check_site i i0 i1 =
      Patterns.canary_check_site b ctx.Policy.symbols ~lo:i0 ~hi:i1 i
    in
    (* The paper's whole-function epilogue probe, re-run per candidate
       store — the quadratic part of pattern mode. *)
    let epilogue_pattern_found i0 i1 =
      let found = ref false in
      for i = i0 + 1 to i1 - 1 do
        Sgx.Perf.count_cycles perf Costmodel.pattern_probe;
        if not !found then
          match check_site i i0 i1 with Some _ -> found := true | None -> ()
      done;
      !found
    in
    let missing (f : Analysis.func) =
      Policy.finding ~policy:name ~addr:f.Analysis.fn_addr ~code:"missing-stack-protector"
        (Printf.sprintf "function %s lacks stack-protector instrumentation"
           f.Analysis.fn_name)
    in
    let check_function (f : Analysis.func) =
      if Hashtbl.mem exempt_tbl f.Analysis.fn_name then []
      else begin
        match f.Analysis.fn_slice with
        | None ->
            [
              Policy.finding ~policy:name ~addr:f.Analysis.fn_addr
                ~code:"function-outside-code"
                (Printf.sprintf "function %s is not within the code" f.Analysis.fn_name);
            ]
        | Some (i0, i1) -> begin
            (* Step 1 (both modes): find candidate canary stores and
               trace each store's source register backwards to its
               definition, expecting the canary load. *)
            let candidates = ref 0 in
            let canary_store = ref false in
            let pattern_protected = ref false in
            for i = i0 to i1 - 1 do
              Sgx.Perf.count_cycles perf Costmodel.policy_step;
              match stack_store entries.(i).Disasm.insn with
              | None -> ()
              | Some src ->
                  incr candidates;
                  let rec back j =
                    if j < i0 then false
                    else begin
                      Sgx.Perf.count_cycles perf Costmodel.backtrack_step;
                      if canary_load_into src entries.(j).Disasm.insn then true
                      else if defines src entries.(j).Disasm.insn then false
                      else back (j - 1)
                    end
                  in
                  let source_is_canary = back (i - 1) in
                  if source_is_canary then canary_store := true;
                  (* Pattern mode follows the paper literally: a full
                     epilogue scan per candidate. *)
                  if mode = `Pattern then begin
                    let pattern = epilogue_pattern_found i0 i1 in
                    if source_is_canary && pattern then pattern_protected := true
                  end
            done;
            if !candidates = 0 then [] (* nothing writes the stack: exempt *)
            else begin
              match mode with
              | `Pattern -> if !pattern_protected then [] else [ missing f ]
              | `Flow -> begin
                  (* One linear scan collects every complete canary
                     check; dominance then decides whether the check
                     actually guards each return. *)
                  let sites = ref [] in
                  for i = i0 + 1 to i1 - 1 do
                    Sgx.Perf.count_cycles perf Costmodel.pattern_probe;
                    match check_site i i0 i1 with
                    | Some inext -> sites := inext :: !sites
                    | None -> ()
                  done;
                  if (not !canary_store) || !sites = [] then [ missing f ]
                  else begin
                    match Policy.cfg_of ctx f with
                    | None -> [] (* sites exist; without a CFG the pattern verdict stands *)
                    | Some cfg ->
                        let site_blocks =
                          List.filter_map (Cfg.block_of_index cfg) !sites
                        in
                        let bad = ref [] in
                        for i = i0 to i1 - 1 do
                          if entries.(i).Disasm.insn.Insn.mnem = Insn.RET then begin
                            match Cfg.block_of_index cfg i with
                            | None -> ()
                            | Some rb ->
                                if cfg.Cfg.reachable.(rb) then begin
                                  let guarded =
                                    List.exists
                                      (fun sb ->
                                        Sgx.Perf.count_cycles perf Costmodel.dom_step;
                                        Cfg.dominates cfg sb rb)
                                      site_blocks
                                  in
                                  if not guarded then
                                    bad :=
                                      Policy.finding ~policy:name
                                        ~addr:entries.(i).Disasm.addr
                                        ~code:"stack-ret-unprotected"
                                        (Printf.sprintf
                                           "function %s can return at 0x%x without passing \
                                            the canary check"
                                           f.Analysis.fn_name entries.(i).Disasm.addr)
                                      :: !bad
                                end
                          end
                        done;
                        (* Interprocedural tier: a [ret] is not the only
                           way out of a protected function. A tail
                           transfer to a {e returning} callee ends the
                           frame just as surely, so the canary check
                           must dominate the tail site too — a callee
                           that never returns ([__stack_chk_fail]) is
                           exempt. *)
                        let tail_bad =
                          match depth with
                          | `Intra -> []
                          | `Interproc -> (
                              let g = Policy.callgraph_of ctx in
                              match
                                Analysis.function_at
                                  ctx.Policy.index.Analysis.functions
                                  f.Analysis.fn_addr
                              with
                              | None -> []
                              | Some fi ->
                                  List.filter_map
                                    (fun (e : Callgraph.edge) ->
                                      Sgx.Perf.count_cycles perf
                                        Costmodel.policy_step;
                                      let callee_returns =
                                        match
                                          Policy.summary_of ctx
                                            ~addr:e.Callgraph.e_target
                                        with
                                        | Some s -> s.Summary.s_returns
                                        | None -> true
                                      in
                                      if not callee_returns then None
                                      else
                                        match
                                          Disasm.index_of_addr b
                                            e.Callgraph.e_addr
                                        with
                                        | None -> None
                                        | Some ji -> (
                                            match
                                              Cfg.block_of_index cfg ji
                                            with
                                            | None -> None
                                            | Some jb ->
                                                if
                                                  not cfg.Cfg.reachable.(jb)
                                                then None
                                                else begin
                                                  let guarded =
                                                    List.exists
                                                      (fun sb ->
                                                        Sgx.Perf.count_cycles
                                                          perf
                                                          Costmodel.dom_step;
                                                        Cfg.dominates cfg sb
                                                          jb)
                                                      site_blocks
                                                  in
                                                  if guarded then None
                                                  else
                                                    Some
                                                      (Policy.finding
                                                         ~policy:name
                                                         ~addr:
                                                           e.Callgraph.e_addr
                                                         ~code:
                                                           "stack-ret-unprotected-interproc"
                                                         (Printf.sprintf
                                                            "function %s can \
                                                             return through \
                                                             the tail call \
                                                             at 0x%x \
                                                             without \
                                                             passing the \
                                                             canary check"
                                                            f.Analysis
                                                              .fn_name
                                                            e.Callgraph
                                                              .e_addr))
                                                end))
                                    (Callgraph.tail_edges g fi))
                        in
                        (match tail_bad with
                        | [] -> List.rev !bad
                        | l ->
                            List.stable_sort
                              (fun (a : Policy.finding) b ->
                                compare a.Policy.addr b.Policy.addr)
                              (List.rev !bad @ l))
                  end
                end
            end
          end
      end
    in
    let findings =
      Array.to_list ctx.Policy.index.Analysis.functions
      |> List.concat_map check_function
    in
    Policy.of_findings findings
  in
  { Policy.name; check }
