(* The interprocedural analysis tier: call graph construction, function
   summaries, the intra/interproc gap pairs on the adversarial fixtures
   (each pinned to its exact vaddr), the sanitize entry-point policy,
   and qcheck totality of the new machinery on mutated buffers. *)

open Toolchain

let context_of_image (img : Linker.image) =
  let perf = Sgx.Perf.create () in
  match Elf64.Reader.parse img.Linker.elf with
  | Error e -> Alcotest.failf "parse: %s" (Elf64.Reader.error_to_string e)
  | Ok elf -> (
      let text = List.hd (Elf64.Reader.text_sections elf) in
      match
        Engarde.Disasm.run perf ~code:text.Elf64.Reader.data ~base:text.Elf64.Reader.addr
          ~symbols:elf.Elf64.Reader.symbols
      with
      | Error v -> Alcotest.failf "disasm: %s" (X86.Nacl.violation_to_string v)
      | Ok (buffer, symbols) ->
          Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer symbols)

let adversarial_ctx adv = context_of_image (Linker.link_adversarial adv)
let why = Engarde.Policy.verdict_to_string

let find_insns (ctx : Engarde.Policy.context) pred =
  Array.to_list ctx.Engarde.Policy.buffer.Engarde.Disasm.entries
  |> List.filter_map (fun (e : Engarde.Disasm.entry) ->
         if pred e.Engarde.Disasm.insn then Some e.Engarde.Disasm.addr else None)

let the_indirect_call ctx =
  match
    find_insns ctx (fun i ->
        match i.X86.Insn.mnem with X86.Insn.CALL_IND -> true | _ -> false)
  with
  | [ a ] -> a
  | l -> Alcotest.failf "expected one indirect call, found %d" (List.length l)

let stack_policy ?depth () =
  Engarde.Policy_stack.make ~exempt:Libc.function_names ?depth ()

(* ------------------------------------------------------------------ *)
(* Gap pairs: intra accepts, interproc rejects (and the converse)      *)
(* ------------------------------------------------------------------ *)

let jump_into_mask_gap () =
  let ctx = adversarial_ctx Workloads.Jump_into_mask in
  let call_addr = the_indirect_call ctx in
  (* Within its own CFG the mask dominates the call: intra accepts. *)
  (match (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | v -> Alcotest.failf "intra flow unexpectedly rejected: %s" (why v));
  (* The jump-into edge from [evil] voids the single-entry assumption. *)
  match
    (Engarde.Policy_ifcc.make ~depth:`Interproc ()).Engarde.Policy.check ctx
  with
  | Engarde.Policy.Compliant -> Alcotest.fail "interproc accepted the jumped-into mask"
  | Engarde.Policy.Violations [ f ] ->
      Alcotest.(check string) "code" "ifcc-unmasked-interproc" f.Engarde.Policy.code;
      Alcotest.(check int) "finding at the call site" call_addr f.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let tail_call_skip_gap () =
  let ctx = adversarial_ctx Workloads.Tail_call_skip in
  (* The tail jump to [tailee] is the first conditional branch of the
     buffer ([_start] emits none). *)
  let tail_jmp =
    match
      find_insns ctx (fun i ->
          match i.X86.Insn.mnem with X86.Insn.JCC _ -> true | _ -> false)
    with
    | first :: _ :: _ -> first
    | l -> Alcotest.failf "expected two conditional jumps, found %d" (List.length l)
  in
  (* Every [ret] is dominated by the compare: intra accepts. *)
  (match (stack_policy ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | v -> Alcotest.failf "intra flow unexpectedly rejected: %s" (why v));
  match (stack_policy ~depth:`Interproc ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> Alcotest.fail "interproc accepted the canary-skipping tail call"
  | Engarde.Policy.Violations [ f ] ->
      Alcotest.(check string) "code" "stack-ret-unprotected-interproc"
        f.Engarde.Policy.code;
      Alcotest.(check int) "finding at the tail jump" tail_jmp f.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let mask_in_callee_precision () =
  let ctx = adversarial_ctx Workloads.Mask_in_callee in
  let call_addr = the_indirect_call ctx in
  (* Intra demotes every register at [callq mask_helper] and wrongly
     rejects the compliant caller. *)
  (match (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> Alcotest.fail "intra flow accepted (summary applied?)"
  | Engarde.Policy.Violations [ f ] ->
      Alcotest.(check string) "code" "ifcc-unmasked-on-path" f.Engarde.Policy.code;
      Alcotest.(check int) "finding at the call site" call_addr f.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  (* The helper's summary carries the masked target across the call. *)
  match
    (Engarde.Policy_ifcc.make ~depth:`Interproc ()).Engarde.Policy.check ctx
  with
  | Engarde.Policy.Compliant -> ()
  | v -> Alcotest.failf "interproc rejected the compliant caller: %s" (why v)

let unsanitized_entry_findings () =
  let ctx = adversarial_ctx Workloads.Unsanitized_entry in
  let jcc_addr =
    match
      find_insns ctx (fun i ->
          match i.X86.Insn.mnem with X86.Insn.JCC _ -> true | _ -> false)
    with
    | [ a ] -> a
    | l -> Alcotest.failf "expected one conditional jump, found %d" (List.length l)
  in
  let mov_addr =
    match
      find_insns ctx (fun i -> X86.Insn.equal i (X86.Insn.mov_rr X86.Reg.RDI X86.Reg.RAX))
    with
    | [ a ] -> a
    | l -> Alcotest.failf "expected one rdi read, found %d" (List.length l)
  in
  match (Engarde.Policy_sanitize.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> Alcotest.fail "sanitize accepted the dirty entry"
  | Engarde.Policy.Violations [ f1; f2 ] ->
      (* [ecall_clean] scrubs first and contributes nothing. *)
      Alcotest.(check string) "flags code" "sanitize-unscrubbed-flags" f1.Engarde.Policy.code;
      Alcotest.(check int) "flags at the jcc" jcc_addr f1.Engarde.Policy.addr;
      Alcotest.(check string) "reg code" "sanitize-unscrubbed-reg" f2.Engarde.Policy.code;
      Alcotest.(check int) "reg at the mov" mov_addr f2.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly two findings, got %d" (List.length fs)

let sanitize_clean_workloads () =
  List.iter
    (fun bench ->
      let ctx =
        context_of_image (Linker.link (Workloads.build Codegen.plain bench))
      in
      match (Engarde.Policy_sanitize.make ()).Engarde.Policy.check ctx with
      | Engarde.Policy.Compliant -> ()
      | v ->
          Alcotest.failf "sanitize rejected clean %s: %s" (Workloads.to_string bench)
            (why v))
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Call graph and summary structure                                    *)
(* ------------------------------------------------------------------ *)

let callgraph_structure () =
  let ctx = adversarial_ctx Workloads.Jump_into_mask in
  let idx = ctx.Engarde.Policy.index in
  let g = Engarde.Policy.callgraph_of ctx in
  let fns = idx.Engarde.Analysis.functions in
  let fi name =
    let rec go k =
      if k >= Array.length fns then Alcotest.failf "no function %s" name
      else if fns.(k).Engarde.Analysis.fn_name = name then k
      else go (k + 1)
    in
    go 0
  in
  let victim = fi "victim" and evil = fi "evil" in
  (* [evil] jumps mid-[victim]: exactly one jump-into edge, recorded on
     both endpoints. *)
  (match Engarde.Callgraph.jump_into g victim with
  | [ e ] ->
      Alcotest.(check int) "from evil" evil e.Engarde.Callgraph.e_from;
      Alcotest.(check int) "to victim" victim e.Engarde.Callgraph.e_to
  | l -> Alcotest.failf "expected one jump-into edge, found %d" (List.length l));
  (* The indirect call over-approximates to the table members — the
     jump-table entry stubs, each a function of its own; the stubs'
     [jmpq dest] bodies then add Tail edges to the real targets. *)
  let table = fi (Codegen.jump_table_entry_sym 0) and dest = fi "dest" in
  let has_indirect =
    List.exists
      (fun (e : Engarde.Callgraph.edge) ->
        e.Engarde.Callgraph.e_kind = Engarde.Callgraph.Indirect
        && e.Engarde.Callgraph.e_to = table)
      (Engarde.Callgraph.edges_from g victim)
  in
  Alcotest.(check bool) "indirect edge victim->table" true has_indirect;
  let has_tail =
    List.exists
      (fun (e : Engarde.Callgraph.edge) ->
        e.Engarde.Callgraph.e_kind = Engarde.Callgraph.Tail
        && e.Engarde.Callgraph.e_to = dest)
      (Engarde.Callgraph.edges_from g table)
  in
  Alcotest.(check bool) "tail edge table->dest" true has_tail;
  (* bottom_up is a permutation of the function indices. *)
  Alcotest.(check int) "bottom_up covers all functions" (Array.length fns)
    (Array.length g.Engarde.Callgraph.bottom_up);
  let seen = Array.make (Array.length fns) false in
  Array.iter (fun k -> seen.(k) <- true) g.Engarde.Callgraph.bottom_up;
  Alcotest.(check bool) "permutation" true (Array.for_all (fun b -> b) seen);
  Alcotest.(check bool) "charged" true (g.Engarde.Callgraph.build_cycles > 0)

let summaries_on_giant () =
  let ctx = adversarial_ctx (Workloads.Giant 8) in
  let g = Engarde.Policy.callgraph_of ctx in
  ignore g;
  let summary name =
    let fns = ctx.Engarde.Policy.index.Engarde.Analysis.functions in
    let f =
      match
        Array.to_list fns
        |> List.find_opt (fun (f : Engarde.Analysis.func) ->
               f.Engarde.Analysis.fn_name = name)
      with
      | Some f -> f
      | None -> Alcotest.failf "no function %s" name
    in
    match Engarde.Policy.summary_of ctx ~addr:f.Engarde.Analysis.fn_addr with
    | Some s -> s
    | None -> Alcotest.failf "no summary for %s" name
  in
  let s0 = summary "chain_0000" in
  Alcotest.(check bool) "chain returns" true s0.Engarde.Summary.s_returns;
  (* chain_0000 clobbers rax and rdx (and flags) but reads nothing the
     sanitize mask cares about. *)
  let rax = 1 lsl X86.Reg.number X86.Reg.RAX in
  let rdx = 1 lsl X86.Reg.number X86.Reg.RDX in
  Alcotest.(check bool) "clobbers rax" true (s0.Engarde.Summary.s_clobbers land rax <> 0);
  Alcotest.(check bool) "clobbers rdx" true (s0.Engarde.Summary.s_clobbers land rdx <> 0);
  Alcotest.(check int) "reads nothing host-controlled" 0
    (s0.Engarde.Summary.s_reads land Engarde.Summary.sanitize_mask);
  (* The memo: once every function's summary is computed, a second
     pass charges only the lookup constant. *)
  let fns = ctx.Engarde.Policy.index.Engarde.Analysis.functions in
  Engarde.Summary.compute_all ctx.Engarde.Policy.summaries (Sgx.Perf.create ())
    ctx.Engarde.Policy.index
    ~cfg:(fun fn -> Engarde.Policy.cfg_of ctx fn)
    ~callgraph:(Engarde.Policy.callgraph_of ctx);
  let perf2 = Sgx.Perf.create () in
  Array.iter
    (fun (f : Engarde.Analysis.func) ->
      ignore
        (Engarde.Summary.get ctx.Engarde.Policy.summaries perf2
           ctx.Engarde.Policy.index
           ~cfg:(fun fn -> Engarde.Policy.cfg_of ctx fn)
           ~callgraph:(Engarde.Policy.callgraph_of ctx)
           ~addr:f.Engarde.Analysis.fn_addr))
    fns;
  Alcotest.(check int) "second pass is pure lookup"
    (Array.length fns * Engarde.Costmodel.summary_memo_lookup)
    (Sgx.Perf.native_cycles perf2)

let mask_in_callee_summary () =
  let ctx = adversarial_ctx Workloads.Mask_in_callee in
  let fns = ctx.Engarde.Policy.index.Engarde.Analysis.functions in
  let helper =
    match
      Array.to_list fns
      |> List.find_opt (fun (f : Engarde.Analysis.func) ->
             f.Engarde.Analysis.fn_name = "mask_helper")
    with
    | Some f -> f
    | None -> Alcotest.fail "no mask_helper"
  in
  match Engarde.Policy.summary_of ctx ~addr:helper.Engarde.Analysis.fn_addr with
  | None -> Alcotest.fail "no summary for mask_helper"
  | Some s -> (
      let rcx = X86.Reg.number X86.Reg.RCX in
      match List.assoc_opt rcx s.Engarde.Summary.s_masks with
      | Some (Engarde.Dataflow.Regs.Target (base, tgt)) ->
          let idx = ctx.Engarde.Policy.index in
          Alcotest.(check bool) "base in table" true (Engarde.Analysis.in_table idx base);
          Alcotest.(check bool) "target in table" true (Engarde.Analysis.in_table idx tgt)
      | Some _ -> Alcotest.fail "rcx summary is not a masked target"
      | None -> Alcotest.fail "helper summary carries no rcx fact")

(* ------------------------------------------------------------------ *)
(* qcheck: totality and closure on mutated buffers                     *)
(* ------------------------------------------------------------------ *)

(* Tail-call-skip's protected function loads and checks a canary, so
   the stack policies reach their CFG, dominance and tail-edge tier on
   its mutants. Jump-into-mask has an IFCC table of two members and an
   indirect site, so its mutants carry indirect edges; a mutation to
   [call_ind %rcx] adds sites. *)
let canary_ctx = lazy (adversarial_ctx Workloads.Tail_call_skip)
let table_ctx = lazy (adversarial_ctx Workloads.Jump_into_mask)

let mutate (buffer : Engarde.Disasm.buffer) muts =
  let entries = Array.copy buffer.Engarde.Disasm.entries in
  let n = Array.length entries in
  List.iter
    (fun (pos, kind) ->
      if n > 0 then begin
        let i = pos mod n in
        let e = entries.(i) in
        let rel = (kind * 7 mod 257) - 128 in
        let insn =
          match kind mod 8 with
          | 0 -> X86.Insn.jmp rel
          | 1 -> X86.Insn.jcc X86.Insn.NE rel
          | 2 -> X86.Insn.ret
          | 3 -> X86.Insn.call_ind X86.Reg.RCX
          | 4 -> X86.Insn.nop
          | 5 -> X86.Insn.ud2
          | 6 -> X86.Insn.jmp_ind X86.Reg.RAX
          | _ -> X86.Insn.call rel
        in
        entries.(i) <- { e with Engarde.Disasm.insn }
      end)
    muts;
  { buffer with Engarde.Disasm.entries }

let mutated_ctx base muts =
  let ctx = Lazy.force base in
  let buffer = mutate ctx.Engarde.Policy.buffer muts in
  Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer ctx.Engarde.Policy.symbols

(* ------------------------------------------------------------------ *)
(* The compact call graph against the materializing oracle             *)
(* ------------------------------------------------------------------ *)

(* Every field a caller can see, against {!Callgraph_oracle.build} on
   the same index: the condensation, the charge, the edge counts, every
   edge in order, and each function's out-, in-, tail and jump-into
   edges. *)
let check_against_oracle ~what idx (g : Engarde.Callgraph.t) =
  let module C = Engarde.Callgraph in
  let o = Callgraph_oracle.build (Sgx.Perf.create ()) idx in
  let ints label = Alcotest.(check (array int)) (what ^ ": " ^ label) in
  ints "scc_id" o.Callgraph_oracle.scc_id g.C.scc_id;
  Alcotest.(check int) (what ^ ": n_sccs") o.Callgraph_oracle.n_sccs g.C.n_sccs;
  ints "bottom_up" o.Callgraph_oracle.bottom_up g.C.bottom_up;
  Alcotest.(check (array bool))
    (what ^ ": recursive") o.Callgraph_oracle.recursive g.C.recursive;
  Alcotest.(check int)
    (what ^ ": build_cycles") o.Callgraph_oracle.build_cycles g.C.build_cycles;
  let edges = o.Callgraph_oracle.edges in
  List.iter
    (fun k ->
      let expected =
        Array.fold_left (fun c (e : C.edge) -> if e.C.e_kind = k then c + 1 else c) 0 edges
      in
      Alcotest.(check int) (what ^ ": " ^ C.kind_to_string k ^ " edges") expected
        (C.edge_count g k))
    [ C.Direct; C.Indirect; C.Tail; C.Jump_into ];
  let pos = ref 0 in
  C.iter_edges
    (fun e ->
      if !pos >= Array.length edges || edges.(!pos) <> e then
        Alcotest.failf "%s: edge %d differs from the oracle's" what !pos;
      incr pos)
    g;
  Alcotest.(check int) (what ^ ": edges iterated") (Array.length edges) !pos;
  let same label k l1 l2 =
    if l1 <> l2 then Alcotest.failf "%s: %s of function %d differ from the oracle's" what label k
  in
  let n = Array.length g.C.scc_id in
  for k = -1 to n do
    let out = Callgraph_oracle.edges_from o k and into = Callgraph_oracle.edges_to o k in
    same "edges_from" k out (C.edges_from g k);
    same "edges_to" k into (C.edges_to g k);
    same "jump_into" k (Callgraph_oracle.jump_into o k) (C.jump_into g k);
    same "tail_edges" k
      (List.filter (fun (e : C.edge) -> e.C.e_kind = C.Tail) out)
      (C.tail_edges g k);
    if k >= 0 && k < n then begin
      Alcotest.(check int) (what ^ ": out_degree") (List.length out) (C.out_degree g k);
      Alcotest.(check int) (what ^ ": in_degree") (List.length into) (C.in_degree g k)
    end
  done

let image_ctx variant bench = context_of_image (Linker.link (Workloads.build variant bench))
let stack_ifcc = { Codegen.stack_protector = true; ifcc = true }

let oracle_on_workloads variant () =
  List.iter
    (fun bench ->
      let ctx = image_ctx variant bench in
      check_against_oracle ~what:(Workloads.to_string bench) ctx.Engarde.Policy.index
        (Engarde.Policy.callgraph_of ctx))
    Workloads.all

let oracle_on_plain_mcf () =
  let ctx = image_ctx Codegen.plain Workloads.Mcf in
  check_against_oracle ~what:"plain 429.mcf" ctx.Engarde.Policy.index
    (Engarde.Policy.callgraph_of ctx)

let oracle_on_fixtures () =
  List.iter
    (fun adv ->
      let ctx = adversarial_ctx adv in
      check_against_oracle ~what:(Workloads.adversarial_to_string adv)
        ctx.Engarde.Policy.index (Engarde.Policy.callgraph_of ctx))
    Workloads.adversarial_all

(* No compiled workload puts an indirect call inside a table member.
   Here the last jump-table stub of jump-into-mask, whose function runs
   on over its bundle padding, gets one in place of a padding nop: the
   stub then reaches itself through its own site, and only that self
   edge makes it recursive. *)
let oracle_on_member_site () =
  let ctx = adversarial_ctx Workloads.Jump_into_mask in
  let idx = ctx.Engarde.Policy.index in
  let fns = idx.Engarde.Analysis.functions in
  let last_member =
    let k = ref (-1) in
    Array.iteri
      (fun i (f : Engarde.Analysis.func) ->
        if Engarde.Analysis.in_table idx f.Engarde.Analysis.fn_addr then k := i)
      fns;
    fns.(!k)
  in
  let pad =
    match last_member.Engarde.Analysis.fn_slice with
    | Some (lo, hi) when hi - lo > 2 -> lo + 2
    | _ -> Alcotest.fail "the last table stub has no padding"
  in
  let buffer = mutate ctx.Engarde.Policy.buffer [ (pad, 3) ] in
  let ctx = Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer ctx.Engarde.Policy.symbols in
  let idx = ctx.Engarde.Policy.index in
  let g = Engarde.Policy.callgraph_of ctx in
  let k =
    match
      Engarde.Analysis.function_at idx.Engarde.Analysis.functions
        last_member.Engarde.Analysis.fn_addr
    with
    | Some k -> k
    | None -> Alcotest.fail "no index for the last table stub"
  in
  Alcotest.(check bool) "still a table member" true
    (Engarde.Analysis.in_table idx last_member.Engarde.Analysis.fn_addr);
  Alcotest.(check bool) "recursive through its own site" true g.Engarde.Callgraph.recursive.(k);
  check_against_oracle ~what:"table member with a site" idx g

(* ------------------------------------------------------------------ *)
(* Allocation ceilings on stack+ifcc nginx                             *)
(* ------------------------------------------------------------------ *)

(* Bytes allocated by [f ()], read between two [Gc.minor ()] calls so
   that nothing still in the minor heap is under- or over-counted. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  Gc.minor ();
  (r, Gc.allocated_bytes () -. before)

let nginx_image = lazy (Linker.link (Workloads.build stack_ifcc Workloads.Nginx))

(* The call graph stores nginx's 700 indirect sites once each instead
   of as 924,000 edge records (651 MB with them), and the stack-interproc
   check asks each protected function for its tail edges only instead
   of listing all of its out-edges (43.3 MB), and finds a register's
   definitions without reversing operand lists (20.9 MB). The check is
   read on its second run, once the CFGs and summaries it uses are
   memoized, so the reading is the check's own. *)
let nginx_allocation () =
  let ctx = context_of_image (Lazy.force nginx_image) in
  let _, cg_bytes = allocated (fun () -> Engarde.Policy.callgraph_of ctx) in
  let check () = (stack_policy ~depth:`Interproc ()).Engarde.Policy.check ctx in
  ignore (check ());
  let v, check_bytes = allocated check in
  (match v with
  | Engarde.Policy.Compliant -> ()
  | v -> Alcotest.failf "stack-interproc rejected nginx: %s" (why v));
  let ceiling label bytes limit =
    if bytes > limit then
      Alcotest.failf "%s allocated %.0f bytes, over its %.0f-byte ceiling" label bytes limit
  in
  (* 8,614,672 and 2,829,720 bytes measured. *)
  ceiling "Policy.callgraph_of" cg_bytes 9_500_000.;
  ceiling "stack-interproc" check_bytes 3_100_000.

(* Callgraph.build never raises, every edge stays inside the function
   table with its site inside the source function, and the graph is the
   materializing oracle's. *)
let callgraph_total =
  let gen = QCheck.Gen.(list_size (int_range 0 48) (pair nat (int_bound 4096))) in
  QCheck.Test.make ~count:200 ~name:"callgraph closed on mutated buffers"
    (QCheck.make gen) (fun muts ->
      let ctx = mutated_ctx table_ctx muts in
      let idx = ctx.Engarde.Policy.index in
      let g = Engarde.Policy.callgraph_of ctx in
      let fns = idx.Engarde.Analysis.functions in
      let n = Array.length fns in
      let closed = ref true in
      Engarde.Callgraph.iter_edges
        (fun (e : Engarde.Callgraph.edge) ->
          closed :=
            !closed
            && e.Engarde.Callgraph.e_from >= 0
            && e.Engarde.Callgraph.e_from < n
            && e.Engarde.Callgraph.e_to >= 0
            && e.Engarde.Callgraph.e_to < n
            &&
            let f = fns.(e.Engarde.Callgraph.e_from) in
            e.Engarde.Callgraph.e_addr >= f.Engarde.Analysis.fn_addr
            && e.Engarde.Callgraph.e_addr < f.Engarde.Analysis.fn_end)
        g;
      check_against_oracle ~what:"mutated buffer" idx g;
      !closed && Array.length g.Engarde.Callgraph.bottom_up = n)

(* Summary.get is total and the interprocedural policies never raise. *)
let summaries_total =
  let gen = QCheck.Gen.(list_size (int_range 0 32) (pair nat (int_bound 4096))) in
  QCheck.Test.make ~count:100 ~name:"summaries and interproc policies total"
    (QCheck.make gen) (fun muts ->
      let ctx = mutated_ctx canary_ctx muts in
      let idx = ctx.Engarde.Policy.index in
      Array.iter
        (fun (f : Engarde.Analysis.func) ->
          ignore (Engarde.Policy.summary_of ctx ~addr:f.Engarde.Analysis.fn_addr))
        idx.Engarde.Analysis.functions;
      let _ = (stack_policy ~depth:`Interproc ()).Engarde.Policy.check ctx in
      let _ =
        (Engarde.Policy_ifcc.make ~depth:`Interproc ()).Engarde.Policy.check ctx
      in
      let _ = (Engarde.Policy_sanitize.make ()).Engarde.Policy.check ctx in
      true)

let () =
  Alcotest.run "interproc"
    [
      ( "gap-pairs",
        [
          Alcotest.test_case "jump into mask" `Quick jump_into_mask_gap;
          Alcotest.test_case "tail call skip" `Quick tail_call_skip_gap;
          Alcotest.test_case "mask in callee" `Quick mask_in_callee_precision;
          Alcotest.test_case "unsanitized entry" `Quick unsanitized_entry_findings;
        ] );
      ( "sanitize-clean",
        [ Alcotest.test_case "all seven workloads" `Slow sanitize_clean_workloads ] );
      ( "structure",
        [
          Alcotest.test_case "callgraph edges and order" `Quick callgraph_structure;
          Alcotest.test_case "summaries on the giant chain" `Quick summaries_on_giant;
          Alcotest.test_case "mask-in-callee summary" `Quick mask_in_callee_summary;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "seven apps under ifcc" `Slow
            (oracle_on_workloads Codegen.with_ifcc);
          Alcotest.test_case "seven apps under stack+ifcc" `Slow
            (oracle_on_workloads stack_ifcc);
          Alcotest.test_case "plain 429.mcf" `Quick oracle_on_plain_mcf;
          Alcotest.test_case "adversarial fixtures" `Quick oracle_on_fixtures;
          Alcotest.test_case "table member with its own site" `Quick oracle_on_member_site;
        ] );
      ( "allocation",
        [ Alcotest.test_case "callgraph and stack-interproc on nginx" `Quick nginx_allocation ]
      );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest callgraph_total;
          QCheck_alcotest.to_alcotest summaries_total;
        ] );
    ]
