(* Binary-rewriter tests: the paper's sketched "instrument client code"
   extension. A plain (canary-free) binary is rejected by the
   stack-protection policy, rewritten, and then accepted — while staying
   a valid NaCl binary, keeping its libc hashes intact, and preserving
   its relocation structure. *)

open Toolchain

let db = lazy (Libc.hash_db Libc.V1_0_5)

let parse raw = Result.get_ok (Elf64.Reader.parse raw)

let ctx_of raw =
  let elf = parse raw in
  let text = List.hd (Elf64.Reader.text_sections elf) in
  match
    Engarde.Disasm.run (Sgx.Perf.create ()) ~code:text.Elf64.Reader.data
      ~base:text.Elf64.Reader.addr ~symbols:elf.Elf64.Reader.symbols
  with
  | Ok (buffer, symbols) -> Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer symbols
  | Error v -> Alcotest.failf "disasm: %s" (X86.Nacl.violation_to_string v)

let why = Engarde.Policy.verdict_to_string

let stack_policy () = Engarde.Policy_stack.make ~exempt:Libc.function_names ()

let plain_mcf = lazy (Linker.link (Workloads.build Codegen.plain Workloads.Mcf))

let rewritten_mcf =
  lazy
    (match
       Toolchain.Rewrite.add_stack_protection ~exempt:Libc.function_names
         (parse (Lazy.force plain_mcf).Linker.elf)
     with
    | Ok raw -> raw
    | Error e -> Alcotest.failf "rewrite failed: %s" (Toolchain.Rewrite.error_to_string e))

let rejected_before_accepted_after () =
  (* Before: rejected. *)
  (match (stack_policy ()).Engarde.Policy.check (ctx_of (Lazy.force plain_mcf).Linker.elf) with
  | Engarde.Policy.Violations _ -> ()
  | Engarde.Policy.Compliant -> Alcotest.fail "plain binary unexpectedly compliant");
  (* After: accepted. *)
  match (stack_policy ()).Engarde.Policy.check (ctx_of (Lazy.force rewritten_mcf)) with
  | Engarde.Policy.Compliant -> ()
  | Engarde.Policy.Violations _ as v ->
      Alcotest.failf "rewritten binary rejected: %s" (why v)

let rewritten_still_nacl_valid () =
  let elf = parse (Lazy.force rewritten_mcf) in
  let text = List.hd (Elf64.Reader.text_sections elf) in
  let roots =
    List.filter_map
      (fun (s : Elf64.Types.symbol) ->
        if Elf64.Types.symbol_is_func s then Some (s.st_value - text.Elf64.Reader.addr)
        else None)
      elf.Elf64.Reader.symbols
  in
  match X86.Nacl.validate ~roots text.Elf64.Reader.data with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "nacl: %s" (X86.Nacl.violation_to_string v)

let rewritten_keeps_libc_hashes () =
  (* The exempt list protects the libc bodies, so the library-linking
     policy still passes on the rewritten binary. *)
  match
    (Engarde.Policy_libc.make ~db:(Lazy.force db) ()).Engarde.Policy.check
      (ctx_of (Lazy.force rewritten_mcf))
  with
  | Engarde.Policy.Compliant -> ()
  | Engarde.Policy.Violations _ as v -> Alcotest.failf "libc policy broke: %s" (why v)

let rewritten_preserves_structure () =
  let before = parse (Lazy.force plain_mcf).Linker.elf in
  let after = parse (Lazy.force rewritten_mcf) in
  Alcotest.(check int) "same relocation count"
    (List.length before.Elf64.Reader.relocations)
    (List.length after.Elf64.Reader.relocations);
  let fn_names elf =
    Elf64.Reader.function_symbols elf
    |> List.map (fun (s : Elf64.Types.symbol) -> s.st_name)
    |> List.filter (fun n -> n <> Codegen.stack_chk_fail_sym)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "same function set (modulo __stack_chk_fail)"
    (fn_names before) (fn_names after);
  (* Every relocation addend still lands on a function start. *)
  List.iter
    (fun (r : Elf64.Types.rela) ->
      Alcotest.(check bool) "addend on a function" true
        (List.exists
           (fun (s : Elf64.Types.symbol) -> s.st_value = r.Elf64.Types.r_addend)
           after.Elf64.Reader.symbols))
    after.Elf64.Reader.relocations;
  (* And the entry still points at _start. *)
  let start = List.find (fun (s : Elf64.Types.symbol) -> s.st_name = "_start")
      after.Elf64.Reader.symbols in
  Alcotest.(check int) "entry = _start" start.Elf64.Types.st_value after.Elf64.Reader.entry

let rewrite_idempotent_on_protected () =
  (* A binary that is already protected gains nothing: every function
     either has a canary or is exempt, so the policy passes and a second
     rewrite leaves the verdict unchanged. *)
  let img = Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf) in
  match Toolchain.Rewrite.add_stack_protection ~exempt:Libc.function_names (parse img.Linker.elf) with
  | Error e -> Alcotest.failf "rewrite failed: %s" (Toolchain.Rewrite.error_to_string e)
  | Ok raw -> (
      match (stack_policy ()).Engarde.Policy.check (ctx_of raw) with
      | Engarde.Policy.Compliant -> ()
      | Engarde.Policy.Violations _ as v -> Alcotest.failf "rejected: %s" (why v))

let rewrite_rejects_stripped () =
  let img = Linker.link ~strip:true (Workloads.build Codegen.plain Workloads.Mcf) in
  match Toolchain.Rewrite.add_stack_protection (parse img.Linker.elf) with
  | Error (Toolchain.Rewrite.Not_rewritable _) -> ()
  | Ok _ -> Alcotest.fail "stripped binary rewritten"

let rewrite_rejects_ifcc_tables () =
  let img = Linker.link (Workloads.build Codegen.with_ifcc Workloads.Otpgen) in
  match Toolchain.Rewrite.add_stack_protection (parse img.Linker.elf) with
  | Error (Toolchain.Rewrite.Not_rewritable why) ->
      Alcotest.(check bool) "mentions tables" true
        (Astring.String.is_infix ~affix:"jump table" why)
  | Ok _ -> Alcotest.fail "IFCC binary rewritten"

let end_to_end_provision_after_rewrite () =
  (* Full pipeline: rejected -> rewritten -> provisioned. *)
  let cfg =
    { Engarde.Provision.default_config with
      Engarde.Provision.heap_pages = 512; image_pages = 1600; seed = "rewrite-e2e" }
  in
  let policies () = [ stack_policy () ] in
  let before =
    Engarde.Provision.run ~policies:(policies ()) cfg
      ~payload:(Lazy.force plain_mcf).Linker.elf
  in
  (match before.Engarde.Provision.result with
  | Error (Engarde.Provision.Policy_violations _) -> ()
  | _ -> Alcotest.fail "expected policy rejection before rewrite");
  let after =
    Engarde.Provision.run ~policies:(policies ()) cfg ~payload:(Lazy.force rewritten_mcf)
  in
  match after.Engarde.Provision.result with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "rewritten binary rejected: %s"
      (Engarde.Provision.rejection_to_string r)

let () =
  Alcotest.run "rewrite"
    [
      ( "stack-protection retrofit",
        [
          Alcotest.test_case "rejected before, accepted after" `Quick
            rejected_before_accepted_after;
          Alcotest.test_case "still NaCl valid" `Quick rewritten_still_nacl_valid;
          Alcotest.test_case "libc hashes intact" `Quick rewritten_keeps_libc_hashes;
          Alcotest.test_case "structure preserved" `Quick rewritten_preserves_structure;
          Alcotest.test_case "idempotent on protected" `Quick rewrite_idempotent_on_protected;
          Alcotest.test_case "rejects stripped" `Quick rewrite_rejects_stripped;
          Alcotest.test_case "rejects ifcc tables" `Quick rewrite_rejects_ifcc_tables;
          Alcotest.test_case "end-to-end provision" `Slow end_to_end_provision_after_rewrite;
        ] );
    ]
