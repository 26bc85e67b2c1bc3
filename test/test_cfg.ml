(* CFG recovery, dominators and the flow-sensitive policy upgrades:
   the adversarial fixtures the pattern-mode policies wrongly accept,
   qcheck structural properties over mutated instruction buffers, and
   the zero-lint guarantee on clean workloads. *)

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

let why = Engarde.Policy.verdict_to_string
let stack_policy ?mode () = Engarde.Policy_stack.make ~exempt:Libc.function_names ?mode ()

let find_insns (ctx : Engarde.Policy.context) pred =
  Array.to_list ctx.Engarde.Policy.buffer.Engarde.Disasm.entries
  |> List.filter_map (fun (e : Engarde.Disasm.entry) ->
         if pred e.Engarde.Disasm.insn then Some e.Engarde.Disasm.addr else None)

(* ------------------------------------------------------------------ *)
(* Adversarial fixtures: the soundness gap                             *)
(* ------------------------------------------------------------------ *)

let jump_past_mask_gap () =
  let ctx = context_of_image (Linker.link_adversarial Workloads.Jump_past_mask) in
  (* The paper's window check sees a perfect masking sequence before
     the call and accepts. *)
  (match (Engarde.Policy_ifcc.make ~mode:`Pattern ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | Engarde.Policy.Violations _ as v ->
      Alcotest.failf "pattern mode unexpectedly rejected: %s" (why v));
  (* Flow mode sees the branch that lands on the call with the target
     register unmasked. *)
  let call_addr =
    match
      find_insns ctx (fun i ->
          match i.X86.Insn.mnem with X86.Insn.CALL_IND -> true | _ -> false)
    with
    | [ a ] -> a
    | l -> Alcotest.failf "expected one indirect call, found %d" (List.length l)
  in
  match (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> Alcotest.fail "flow mode accepted the bypassable mask"
  | Engarde.Policy.Violations [ f ] ->
      Alcotest.(check string) "code" "ifcc-unmasked-on-path" f.Engarde.Policy.code;
      Alcotest.(check int) "finding at the call site" call_addr f.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let early_ret_gap () =
  let ctx = context_of_image (Linker.link_adversarial Workloads.Early_ret) in
  (* The epilogue pattern exists somewhere in the function, so the
     paper's scan accepts. *)
  (match (stack_policy ~mode:`Pattern ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | Engarde.Policy.Violations _ as v ->
      Alcotest.failf "pattern mode unexpectedly rejected: %s" (why v));
  (* "guarded" has two returns; the second (the early exit under its
     label) is reachable without passing the canary compare. *)
  let rets =
    find_insns ctx (fun i ->
        match i.X86.Insn.mnem with X86.Insn.RET -> true | _ -> false)
  in
  let early_ret =
    match rets with
    | [ _; second ] -> second
    | l -> Alcotest.failf "expected two rets, found %d" (List.length l)
  in
  match (stack_policy ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> Alcotest.fail "flow mode accepted the early return"
  | Engarde.Policy.Violations [ f ] ->
      Alcotest.(check string) "code" "stack-ret-unprotected" f.Engarde.Policy.code;
      Alcotest.(check int) "finding at the early ret" early_ret f.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Clean workloads: flow mode stays compliant, lint finds nothing      *)
(* ------------------------------------------------------------------ *)

let clean_workloads_flow_and_lint () =
  let cases =
    [
      (Codegen.with_ifcc, Workloads.Otpgen);
      (Codegen.with_stack_protector, Workloads.Mcf);
      ({ Codegen.stack_protector = true; ifcc = true }, Workloads.Bzip2);
    ]
  in
  List.iter
    (fun (inst, bench) ->
      let ctx = context_of_image (Linker.link (Workloads.build inst bench)) in
      let policies =
        (if inst.Codegen.stack_protector then [ stack_policy () ] else [])
        @ (if inst.Codegen.ifcc then [ Engarde.Policy_ifcc.make () ] else [])
        @ [ Engarde.Policy_lint.make () ]
      in
      List.iter
        (fun (p : Engarde.Policy.t) ->
          match p.Engarde.Policy.check ctx with
          | Engarde.Policy.Compliant -> ()
          | Engarde.Policy.Violations _ as v ->
              Alcotest.failf "%s rejected clean %s: %s" p.Engarde.Policy.name
                (Workloads.to_string bench) (why v))
        policies)
    cases

(* ------------------------------------------------------------------ *)
(* DOT export                                                          *)
(* ------------------------------------------------------------------ *)

let dot_export () =
  let ctx = context_of_image (Linker.link_adversarial Workloads.Early_ret) in
  let idx = ctx.Engarde.Policy.index in
  let fn =
    match
      Array.to_list idx.Engarde.Analysis.functions
      |> List.find_opt (fun (f : Engarde.Analysis.func) ->
             f.Engarde.Analysis.fn_name = "guarded")
    with
    | Some f -> f
    | None -> Alcotest.fail "guarded not found"
  in
  match Engarde.Cfg.build (Sgx.Perf.create ()) idx fn with
  | None -> Alcotest.fail "no CFG for guarded"
  | Some cfg ->
      Alcotest.(check bool) "several blocks" true (Array.length cfg.Engarde.Cfg.blocks >= 5);
      let dot = Engarde.Cfg.to_dot cfg ctx.Engarde.Policy.buffer in
      Alcotest.(check bool) "digraph" true (Astring.String.is_prefix ~affix:"digraph" dot);
      Alcotest.(check bool) "has edges" true (Astring.String.is_infix ~affix:"->" dot);
      Array.iteri
        (fun k _ ->
          Alcotest.(check bool)
            (Printf.sprintf "mentions b%d" k)
            true
            (Astring.String.is_infix ~affix:(Printf.sprintf "b%d " k) dot))
        cfg.Engarde.Cfg.blocks

(* Symbol names are untrusted input; a stray quote or backslash in a
   label must not break the DOT double-quoted string syntax. *)
let dot_escaping () =
  Alcotest.(check string) "quote" {|fn\"; evil|} (Engarde.Cfg.dot_escape {|fn"; evil|});
  Alcotest.(check string) "backslash" {|a\\b|} (Engarde.Cfg.dot_escape {|a\b|});
  Alcotest.(check string) "newline" {|a\nb|} (Engarde.Cfg.dot_escape "a\nb");
  Alcotest.(check string) "clean passthrough" "plain_name.42"
    (Engarde.Cfg.dot_escape "plain_name.42");
  (* Escaping composes: escaping an already-escaped string only doubles
     the backslashes, never reopens the quote. *)
  let once = Engarde.Cfg.dot_escape {|x"\|} in
  Alcotest.(check string) "idempotent shape" {|x\\\"\\\\|}
    (Engarde.Cfg.dot_escape once)

(* ------------------------------------------------------------------ *)
(* qcheck: structural properties under adversarial mutation            *)
(* ------------------------------------------------------------------ *)

let base_ctx =
  lazy (context_of_image (Linker.link_adversarial Workloads.Early_ret))

(* Replace random entries with random control flow, keeping addresses
   and lengths: decoded-buffer shapes no toolchain would emit. *)
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

(* Reference dominator sets by the classic iterative set intersection,
   independent of the CHK idom computation under test. *)
let reference_doms (cfg : Engarde.Cfg.t) =
  let nb = Array.length cfg.Engarde.Cfg.blocks in
  let all = List.init nb (fun i -> i) in
  let doms = Array.make nb all in
  doms.(cfg.Engarde.Cfg.entry) <- [ cfg.Engarde.Cfg.entry ];
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to nb - 1 do
      if k <> cfg.Engarde.Cfg.entry && cfg.Engarde.Cfg.reachable.(k) then begin
        let preds =
          List.filter
            (fun p -> cfg.Engarde.Cfg.reachable.(p))
            cfg.Engarde.Cfg.blocks.(k).Engarde.Cfg.b_pred
        in
        let meet =
          match preds with
          | [] -> []
          | p :: ps ->
              List.fold_left
                (fun acc q -> List.filter (fun d -> List.mem d doms.(q)) acc)
                doms.(p) ps
        in
        let next = k :: List.filter (fun d -> d <> k) meet in
        if List.sort compare next <> List.sort compare doms.(k) then begin
          doms.(k) <- next;
          changed := true
        end
      end
    done
  done;
  doms

let cfg_properties (cfg : Engarde.Cfg.t) =
  let blocks = cfg.Engarde.Cfg.blocks in
  let nb = Array.length blocks in
  let ok = ref (nb > 0) in
  let check b = if not b then ok := false in
  (* Blocks partition the slice contiguously. *)
  Array.iteri
    (fun k (b : Engarde.Cfg.block) ->
      check (b.Engarde.Cfg.b_hi > b.Engarde.Cfg.b_lo);
      if k + 1 < nb then
        check (blocks.(k + 1).Engarde.Cfg.b_lo = b.Engarde.Cfg.b_hi))
    blocks;
  (* Edges are closed and succ/pred are duals. *)
  Array.iteri
    (fun k (b : Engarde.Cfg.block) ->
      List.iter
        (fun k' ->
          check (k' >= 0 && k' < nb);
          check (List.mem k blocks.(k').Engarde.Cfg.b_pred))
        b.Engarde.Cfg.b_succ;
      List.iter
        (fun k' ->
          check (k' >= 0 && k' < nb);
          check (List.mem k blocks.(k').Engarde.Cfg.b_succ))
        b.Engarde.Cfg.b_pred)
    blocks;
  (* Dominators agree with an independent reference computation. *)
  let doms = reference_doms cfg in
  check cfg.Engarde.Cfg.reachable.(cfg.Engarde.Cfg.entry);
  check (cfg.Engarde.Cfg.idom.(cfg.Engarde.Cfg.entry) = cfg.Engarde.Cfg.entry);
  for k = 0 to nb - 1 do
    if cfg.Engarde.Cfg.reachable.(k) then begin
      (* Entry dominates everything reachable; the computed idom is a
         real dominator. *)
      check (List.mem cfg.Engarde.Cfg.entry doms.(k));
      check (Engarde.Cfg.dominates cfg cfg.Engarde.Cfg.entry k);
      if k <> cfg.Engarde.Cfg.entry then begin
        let id = cfg.Engarde.Cfg.idom.(k) in
        check (id >= 0 && id < nb);
        check (List.mem id doms.(k))
      end;
      (* [dominates] agrees with the reference sets on every pair. *)
      for a = 0 to nb - 1 do
        if cfg.Engarde.Cfg.reachable.(a) then
          check (Engarde.Cfg.dominates cfg a k = List.mem a doms.(k))
      done
    end
    else check (cfg.Engarde.Cfg.idom.(k) = -1)
  done;
  !ok

let mutated_cfg_prop muts =
  let ctx = Lazy.force base_ctx in
  let buffer = mutate ctx.Engarde.Policy.buffer muts in
  let idx =
    Engarde.Analysis.build (Sgx.Perf.create ()) buffer ctx.Engarde.Policy.symbols
  in
  Array.for_all
    (fun (fn : Engarde.Analysis.func) ->
      match Engarde.Cfg.build (Sgx.Perf.create ()) idx fn with
      | None -> true
      | Some cfg -> cfg_properties cfg)
    idx.Engarde.Analysis.functions

let qcheck_mutations =
  let gen =
    QCheck.Gen.(list_size (int_range 0 48) (pair nat (int_bound 4096)))
  in
  QCheck.Test.make ~count:300 ~name:"CFG sound on mutated buffers" (QCheck.make gen)
    mutated_cfg_prop

(* And the flow-sensitive policies never raise on the same garbage
   (their verdicts may be anything; the service runs them on
   provider-supplied bytes). *)
let policies_never_raise =
  let gen =
    QCheck.Gen.(list_size (int_range 0 32) (pair nat (int_bound 4096)))
  in
  QCheck.Test.make ~count:100 ~name:"flow policies total on mutated buffers"
    (QCheck.make gen) (fun muts ->
      let ctx = Lazy.force base_ctx in
      let buffer = mutate ctx.Engarde.Policy.buffer muts in
      let ctx' =
        Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer
          ctx.Engarde.Policy.symbols
      in
      let _ = (stack_policy ()).Engarde.Policy.check ctx' in
      let _ = (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx' in
      let _ = (Engarde.Policy_lint.make ()).Engarde.Policy.check ctx' in
      true)

(* ------------------------------------------------------------------ *)
(* Address lookups against a linear scan                               *)
(* ------------------------------------------------------------------ *)

(* Sorted, non-overlapping half-open ranges from (gap, length) pairs:
   a zero gap makes a range end exactly where the next starts. *)
let ranges_of ~base spans =
  let cursor = ref base in
  List.map
    (fun (gap, len) ->
      let lo = !cursor + gap in
      cursor := lo + len;
      (lo, lo + len))
    spans

(* Every interesting probe of a range table: below and above it all,
   and each range's start, its neighbours, its last element, its end
   and one past its end. *)
let probes_of ~base ranges =
  (base - 3) :: (base - 1) :: base
  :: List.concat_map (fun (lo, hi) -> [ lo - 1; lo; lo + 1; hi - 1; hi; hi + 1 ]) ranges
  @ [ List.fold_left (fun _ (_, hi) -> hi + 7) (base + 7) ranges ]

let first_index p l =
  let rec go k = function [] -> None | x :: rest -> if p x then Some k else go (k + 1) rest in
  go 0 l

let show_spans = QCheck.Print.(pair int (list (pair int int)))

let spans_gen ~max_gap =
  QCheck.Gen.(
    pair (int_range 0 64)
      (list_size (int_range 0 8) (pair (oneofl [ 0; 0; 1; max_gap ]) (int_range 1 9))))

(* Both function lookups agree with a linear scan of the table on every
   probe, whatever the table: empty, one function, gaps between
   functions, or one function ending where the next starts. *)
let function_lookup_matches_scan =
  QCheck.Test.make ~count:500 ~name:"function lookups = linear scan"
    (QCheck.make ~print:show_spans (spans_gen ~max_gap:5))
    (fun (base, spans) ->
      let base = 0x1000 + base in
      let ranges = ranges_of ~base spans in
      let fns =
        Array.of_list
          (List.map
             (fun (lo, hi) ->
               {
                 Engarde.Analysis.fn_addr = lo;
                 fn_name = Printf.sprintf "f%x" lo;
                 fn_end = hi;
                 fn_slice = None;
               })
             ranges)
      in
      List.for_all
        (fun a ->
          Engarde.Analysis.function_containing fns a
          = first_index (fun (lo, hi) -> lo <= a && a < hi) ranges
          && Engarde.Analysis.function_at fns a = first_index (fun (lo, _) -> lo = a) ranges)
        (probes_of ~base ranges))

(* The block lookup agrees with a linear scan over any partition of an
   entry-index slice into blocks. *)
let block_lookup_matches_scan =
  QCheck.Test.make ~count:500 ~name:"block lookup = linear scan"
    (QCheck.make ~print:show_spans (spans_gen ~max_gap:0))
    (fun (base, spans) ->
      let ranges = ranges_of ~base (List.map (fun (_, len) -> (0, len)) spans) in
      let blocks =
        Array.of_list
          (List.map
             (fun (b_lo, b_hi) ->
               { Engarde.Cfg.b_lo; b_hi; b_addr = b_lo; b_succ = []; b_pred = []; b_padding = false })
             ranges)
      in
      let nb = Array.length blocks in
      let cfg =
        {
          Engarde.Cfg.fn =
            { Engarde.Analysis.fn_addr = 0; fn_name = "f"; fn_end = 0; fn_slice = None };
          blocks;
          entry = 0;
          idom = Array.make nb 0;
          reachable = Array.make nb true;
          rpo_order = Array.init nb Fun.id;
          n_edges = 0;
        }
      in
      List.for_all
        (fun i ->
          Engarde.Cfg.block_of_index cfg i
          = first_index (fun (lo, hi) -> lo <= i && i < hi) ranges)
        (probes_of ~base ranges))

let () =
  Alcotest.run "cfg"
    [
      ( "soundness-gap",
        [
          Alcotest.test_case "jump past mask" `Quick jump_past_mask_gap;
          Alcotest.test_case "early ret" `Quick early_ret_gap;
        ] );
      ( "clean",
        [
          Alcotest.test_case "flow + lint on clean workloads" `Slow
            clean_workloads_flow_and_lint;
        ] );
      ( "dot",
        [
          Alcotest.test_case "export" `Quick dot_export;
          Alcotest.test_case "escaping" `Quick dot_escaping;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_mutations;
          QCheck_alcotest.to_alcotest policies_never_raise;
          QCheck_alcotest.to_alcotest function_lookup_matches_scan;
          QCheck_alcotest.to_alcotest block_lookup_matches_scan;
        ] );
    ]
