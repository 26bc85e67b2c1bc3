(* Toolchain tests: assembler layout and symbol resolution, codegen
   instrumentation shapes, libc corpus determinism and hash databases,
   workload calibration, and linker output. *)

open Toolchain

let simple_fn name body =
  { Asm.fname = name; items = List.map (fun i -> Asm.Ins i) body }

(* ------------------------------------------------------------------ *)
(* Assembler                                                           *)
(* ------------------------------------------------------------------ *)

let asm_layout_aligns_functions () =
  let f1 = simple_fn "f1" [ X86.Insn.ret ] in
  let f2 = simple_fn "f2" [ X86.Insn.nop; X86.Insn.ret ] in
  let r = Asm.assemble [ f1; f2 ] in
  Alcotest.(check int) "f1 at 0" 0 (Hashtbl.find r.Asm.labels "f1");
  Alcotest.(check int) "f2 at 32" 32 (Hashtbl.find r.Asm.labels "f2");
  Alcotest.(check int) "code padded to bundle" 64 (String.length r.Asm.code)

let asm_function_sizes () =
  let r = Asm.assemble [ simple_fn "a" [ X86.Insn.ret ]; simple_fn "b" [ X86.Insn.ret ] ] in
  match r.Asm.functions with
  | [ ("a", 0, 32); ("b", 32, 32) ] -> ()
  | fns ->
      Alcotest.failf "unexpected functions: %s"
        (String.concat ";" (List.map (fun (n, o, s) -> Printf.sprintf "%s@%d+%d" n o s) fns))

let asm_call_resolution () =
  (* f1 calls f2 at offset 32: rel32 = 32 - 5 = 27. *)
  let f1 = { Asm.fname = "f1"; items = [ Asm.Call_sym "f2"; Asm.Ins X86.Insn.ret ] } in
  let f2 = simple_fn "f2" [ X86.Insn.ret ] in
  let r = Asm.assemble [ f1; f2 ] in
  match X86.Decoder.decode_one r.Asm.code ~pos:0 with
  | Ok d -> Alcotest.(check bool) "call rel" true (X86.Insn.equal d.X86.Decoder.insn (X86.Insn.call 27))
  | Error e -> Alcotest.failf "decode: %s" (X86.Decoder.error_to_string e)

let asm_undefined_symbol () =
  let f = { Asm.fname = "f"; items = [ Asm.Call_sym "missing" ] } in
  Alcotest.check_raises "undefined" (Asm.Undefined_symbol "missing") (fun () ->
      ignore (Asm.assemble [ f ]))

let asm_duplicate_symbol () =
  let f = simple_fn "dup" [ X86.Insn.ret ] in
  Alcotest.check_raises "duplicate" (Asm.Duplicate_symbol "dup") (fun () ->
      ignore (Asm.assemble [ f; f ]))

let asm_extern_resolution () =
  (* lea data(%rip),%rax with data at absolute 0x5000 and blob base
     0x1000: instruction at 0, rel = 0x5000 - (0x1000 + 7). *)
  let f = { Asm.fname = "f"; items = [ Asm.Lea_sym (X86.Reg.RAX, "data"); Asm.Ins X86.Insn.ret ] } in
  let r = Asm.assemble ~base:0x1000 ~extern:[ ("data", 0x5000) ] [ f ] in
  match X86.Decoder.decode_one r.Asm.code ~pos:0 with
  | Ok d ->
      Alcotest.(check bool) "lea extern" true
        (X86.Insn.equal d.X86.Decoder.insn (X86.Insn.lea_rip X86.Reg.RAX (0x5000 - 0x1007)))
  | Error e -> Alcotest.failf "decode: %s" (X86.Decoder.error_to_string e)

let asm_count_matches_decode () =
  let drbg = Crypto.Fastrand.create "count-test" in
  let spec =
    { Codegen.name = "f"; body_size = 200; calls = []; data_refs = []; protected = false;
      stack_density = 0.1 }
  in
  let f = Codegen.gen_function drbg Codegen.plain ~entry_of_table:(fun _ -> "") spec in
  let r = Asm.assemble [ f ] in
  Alcotest.(check int) "layout count = decoded count" (Asm.instruction_count r) r.Asm.n_instructions;
  Alcotest.(check int) "count_only agrees" r.Asm.n_instructions (Asm.count_only [ f ])

let asm_bundle_discipline =
  QCheck.Test.make ~name:"assembled functions satisfy NaCl" ~count:40
    (QCheck.pair QCheck.small_nat (QCheck.int_range 0 1000)) (fun (seed, size) ->
      let drbg = Crypto.Fastrand.create (string_of_int seed) in
      let spec =
        { Codegen.name = "f"; body_size = size; calls = []; data_refs = []; protected = false;
          stack_density = 0.1 }
      in
      let f = Codegen.gen_function drbg Codegen.plain ~entry_of_table:(fun _ -> "") spec in
      let r = Asm.assemble [ f ] in
      match X86.Nacl.validate ~roots:[ 0 ] r.Asm.code with Ok _ -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Codegen instrumentation shapes                                      *)
(* ------------------------------------------------------------------ *)

let decode_fn code (name, off, size) =
  match X86.Decoder.decode_all ~pos:off ~len:size code with
  | Ok ds -> (name, ds)
  | Error e -> Alcotest.failf "decode %s: %s" name (X86.Decoder.error_to_string e)

let protected_fn_has_canary () =
  let drbg = Crypto.Fastrand.create "canary-test" in
  let spec =
    { Codegen.name = "f"; body_size = 60; calls = []; data_refs = []; protected = true;
      stack_density = 0.1 }
  in
  let f = Codegen.gen_function drbg Codegen.with_stack_protector ~entry_of_table:(fun _ -> "") spec in
  let chk = { Asm.fname = Codegen.stack_chk_fail_sym; items = [ Asm.Ins X86.Insn.ud2 ] } in
  let r = Asm.assemble [ f; chk ] in
  let _, ds = decode_fn r.Asm.code (List.hd r.Asm.functions) in
  let has p = Array.exists (fun (d : X86.Decoder.decoded) -> p d.X86.Decoder.insn) ds in
  Alcotest.(check bool) "canary load present" true
    (has (X86.Insn.equal (X86.Insn.mov_fs_canary X86.Reg.RAX)));
  Alcotest.(check bool) "canary store present" true
    (has (X86.Insn.equal (X86.Insn.store_rsp X86.Reg.RAX)));
  Alcotest.(check bool) "canary cmp present" true
    (has (X86.Insn.equal (X86.Insn.cmp_rsp X86.Reg.RAX)))

let plain_fn_has_no_canary () =
  let drbg = Crypto.Fastrand.create "canary-test" in
  let spec =
    { Codegen.name = "f"; body_size = 60; calls = []; data_refs = []; protected = true;
      stack_density = 0.1 }
  in
  let f = Codegen.gen_function drbg Codegen.plain ~entry_of_table:(fun _ -> "") spec in
  let r = Asm.assemble [ f ] in
  let _, ds = decode_fn r.Asm.code (List.hd r.Asm.functions) in
  Alcotest.(check bool) "no canary load" false
    (Array.exists
       (fun (d : X86.Decoder.decoded) ->
         X86.Insn.equal d.X86.Decoder.insn (X86.Insn.mov_fs_canary X86.Reg.RAX))
       ds)

let ifcc_site_shape () =
  let drbg = Crypto.Fastrand.create "ifcc-test" in
  let target = simple_fn "target" [ X86.Insn.ret ] in
  let spec =
    { Codegen.name = "f"; body_size = 10; calls = [ Codegen.Indirect 0 ]; data_refs = [];
      protected = false; stack_density = 0.1 }
  in
  let f =
    Codegen.gen_function drbg Codegen.with_ifcc ~entry_of_table:Codegen.jump_table_entry_sym spec
  in
  let table = Codegen.gen_jump_table ~targets:[ "target" ] in
  let r = Asm.assemble [ f; table; target ] in
  let _, ds = decode_fn r.Asm.code (List.hd r.Asm.functions) in
  (* The masking mask must be the paper's 0x1ff8 and the call indirect. *)
  Alcotest.(check bool) "and-mask present" true
    (Array.exists
       (fun (d : X86.Decoder.decoded) ->
         X86.Insn.equal d.X86.Decoder.insn (X86.Insn.and_ri X86.Reg.RCX 0x1ff8))
       ds);
  Alcotest.(check bool) "indirect call present" true
    (Array.exists
       (fun (d : X86.Decoder.decoded) ->
         X86.Insn.equal d.X86.Decoder.insn (X86.Insn.call_ind X86.Reg.RCX))
       ds)

let jump_table_entries_are_8_bytes () =
  let table = Codegen.gen_jump_table ~targets:[ "t0"; "t1"; "t2" ] in
  let t0 = simple_fn "t0" [ X86.Insn.ret ] in
  let t1 = simple_fn "t1" [ X86.Insn.ret ] in
  let t2 = simple_fn "t2" [ X86.Insn.ret ] in
  let r = Asm.assemble [ table; t0; t1; t2 ] in
  let base = Hashtbl.find r.Asm.labels Codegen.jump_table_sym in
  List.iteri
    (fun k _ ->
      Alcotest.(check int)
        (Printf.sprintf "entry %d offset" k)
        (base + (8 * k))
        (Hashtbl.find r.Asm.labels (Codegen.jump_table_entry_sym k)))
    [ (); (); () ]

(* ------------------------------------------------------------------ *)
(* Libc corpus                                                         *)
(* ------------------------------------------------------------------ *)

let libc_deterministic () =
  let db1 = Libc.hash_db Libc.V1_0_5 in
  let db2 = Libc.hash_db Libc.V1_0_5 in
  Alcotest.(check bool) "hash db reproducible" true (db1 = db2)

let libc_versions_differ () =
  let h v name = List.assoc name (Libc.hash_db v) in
  Alcotest.(check bool) "memcpy differs across versions" true
    (h Libc.V1_0_5 "memcpy" <> h Libc.V1_0_4 "memcpy");
  Alcotest.(check bool) "strlen differs across versions" true
    (h Libc.V1_0_5 "strlen" <> h Libc.V1_0_4 "strlen")

let libc_tampered_only_memcpy () =
  let good = Libc.hash_db Libc.V1_0_5 and bad = Libc.hash_db Libc.Tampered_1_0_5 in
  let diffs =
    List.filter (fun (name, h) -> List.assoc name bad <> h) good |> List.map fst
  in
  Alcotest.(check (list string)) "only memcpy tampered" [ "memcpy" ] diffs

let libc_hash_matches_linked_bytes () =
  (* The property the whole policy rests on: the standalone hash equals
     the hash of the function's bytes inside any linked subset. *)
  let funcs = Libc.build Codegen.plain Libc.V1_0_5 in
  let subset =
    List.filter
      (fun (f : Asm.func) -> List.mem f.Asm.fname [ "strlen"; "malloc"; "qsort" ])
      funcs
  in
  let r = Asm.assemble subset in
  let db = Libc.hash_db Libc.V1_0_5 in
  List.iter
    (fun (name, off, size) ->
      Alcotest.(check string) (name ^ " layout-invariant hash") (List.assoc name db)
        (Crypto.Sha256.digest_hex (String.sub r.Asm.code off size)))
    r.Asm.functions

(* ------------------------------------------------------------------ *)
(* Workloads + linker                                                  *)
(* ------------------------------------------------------------------ *)

let workload_hits_paper_count () =
  let b = Workloads.build Codegen.plain Workloads.Mcf in
  Alcotest.(check int) "mcf #inst = paper" 12903 b.Workloads.instructions;
  let b = Workloads.build Codegen.with_stack_protector Workloads.Mcf in
  Alcotest.(check int) "mcf stack #inst = paper" 12985 b.Workloads.instructions

let workload_deterministic () =
  let b1 = Workloads.build Codegen.plain Workloads.Otpgen in
  let b2 = Workloads.build Codegen.plain Workloads.Otpgen in
  let img1 = Linker.link b1 and img2 = Linker.link b2 in
  Alcotest.(check bool) "identical ELF bytes" true
    (img1.Linker.elf = img2.Linker.elf)

let workload_names_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (Workloads.to_string n) true
        (Workloads.of_string (Workloads.to_string n) = Some n))
    Workloads.all;
  Alcotest.(check bool) "unknown name" true (Workloads.of_string "solaris" = None)

let linked_image_parses_and_validates () =
  let b = Workloads.build Codegen.plain Workloads.Mcf in
  let img = Linker.link b in
  match Elf64.Reader.parse img.Linker.elf with
  | Error e -> Alcotest.failf "reader: %s" (Elf64.Reader.error_to_string e)
  | Ok elf ->
      Alcotest.(check int) "entry" img.Linker.entry elf.Elf64.Reader.entry;
      let text = List.hd (Elf64.Reader.text_sections elf) in
      Alcotest.(check string) "text bytes" img.Linker.text text.Elf64.Reader.data;
      (* The whole text must satisfy the NaCl constraints with function
         symbols as roots. *)
      let roots =
        List.filter_map
          (fun (s : Elf64.Types.symbol) ->
            if Elf64.Types.symbol_is_func s then Some (s.st_value - img.Linker.text_addr)
            else None)
          elf.Elf64.Reader.symbols
      in
      (match X86.Nacl.validate ~roots text.Elf64.Reader.data with
      | Ok _ -> ()
      | Error v -> Alcotest.failf "nacl: %s" (X86.Nacl.violation_to_string v));
      (* Relocation addends must be real function addresses. *)
      List.iter
        (fun (r : Elf64.Types.rela) ->
          Alcotest.(check bool) "addend targets a function" true
            (List.exists
               (fun (s : Elf64.Types.symbol) -> s.st_value = r.r_addend)
               elf.Elf64.Reader.symbols))
        elf.Elf64.Reader.relocations

let stripped_image_has_no_symbols () =
  let b = Workloads.build Codegen.plain Workloads.Mcf in
  let img = Linker.link ~strip:true b in
  match Elf64.Reader.parse img.Linker.elf with
  | Ok elf -> Alcotest.(check int) "no symbols" 0 (List.length elf.Elf64.Reader.symbols)
  | Error e -> Alcotest.failf "reader: %s" (Elf64.Reader.error_to_string e)

let data_addr_override_mixes_pages () =
  let b = Workloads.build Codegen.plain Workloads.Mcf in
  let img = Linker.link b in
  (* Place .data on the page where .text ends. *)
  let text_end = img.Linker.text_addr + String.length img.Linker.text in
  let mixed = Linker.link ~data_addr_override:text_end b in
  match Elf64.Reader.parse mixed.Linker.elf with
  | Ok elf -> (
      match Engarde.Loader.check_page_separation elf with
      | Error (Engarde.Loader.Mixed_page _) -> ()
      | Ok () -> Alcotest.fail "mixed page not detected"
      | Error e -> Alcotest.failf "wrong error: %s" (Engarde.Loader.error_to_string e))
  | Error e -> Alcotest.failf "reader: %s" (Elf64.Reader.error_to_string e)

let ifcc_build_has_table_symbols () =
  let b = Workloads.build Codegen.with_ifcc Workloads.Memcached in
  let img = Linker.link b in
  match Elf64.Reader.parse img.Linker.elf with
  | Ok elf ->
      let entries =
        List.filter
          (fun (s : Elf64.Types.symbol) -> Codegen.is_jump_table_entry s.st_name)
          elf.Elf64.Reader.symbols
      in
      (* 17 entries for memcached, plus the table symbol itself. *)
      Alcotest.(check int) "table entry symbols" 18 (List.length entries)
  | Error e -> Alcotest.failf "reader: %s" (Elf64.Reader.error_to_string e)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "toolchain"
    [
      ( "asm",
        [
          Alcotest.test_case "layout aligns" `Quick asm_layout_aligns_functions;
          Alcotest.test_case "function sizes" `Quick asm_function_sizes;
          Alcotest.test_case "call resolution" `Quick asm_call_resolution;
          Alcotest.test_case "undefined symbol" `Quick asm_undefined_symbol;
          Alcotest.test_case "duplicate symbol" `Quick asm_duplicate_symbol;
          Alcotest.test_case "extern resolution" `Quick asm_extern_resolution;
          Alcotest.test_case "count matches decode" `Quick asm_count_matches_decode;
        ]
        @ qsuite [ asm_bundle_discipline ] );
      ( "codegen",
        [
          Alcotest.test_case "canary emitted" `Quick protected_fn_has_canary;
          Alcotest.test_case "canary absent when plain" `Quick plain_fn_has_no_canary;
          Alcotest.test_case "ifcc site shape" `Quick ifcc_site_shape;
          Alcotest.test_case "jump table stride" `Quick jump_table_entries_are_8_bytes;
        ] );
      ( "libc",
        [
          Alcotest.test_case "deterministic" `Quick libc_deterministic;
          Alcotest.test_case "versions differ" `Quick libc_versions_differ;
          Alcotest.test_case "tampered only memcpy" `Quick libc_tampered_only_memcpy;
          Alcotest.test_case "layout-invariant hashes" `Quick libc_hash_matches_linked_bytes;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "paper #inst" `Quick workload_hits_paper_count;
          Alcotest.test_case "deterministic" `Quick workload_deterministic;
          Alcotest.test_case "names" `Quick workload_names_roundtrip;
          Alcotest.test_case "linked image validates" `Quick linked_image_parses_and_validates;
          Alcotest.test_case "stripped image" `Quick stripped_image_has_no_symbols;
          Alcotest.test_case "mixed pages seeded" `Quick data_addr_override_mixes_pages;
          Alcotest.test_case "ifcc table symbols" `Quick ifcc_build_has_table_symbols;
        ] );
    ]
