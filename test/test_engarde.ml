(* EnGarde core tests: symbol hash table, in-enclave disassembly,
   the three policy modules (accept + seeded violations), the loader,
   and the full provisioning protocol with every rejection path the
   paper describes. *)

open Toolchain

let fast_config = { Engarde.Provision.fast_config with Engarde.Provision.seed = "test-seed" }

let libc_db = lazy (Libc.hash_db Libc.V1_0_5)

let mcf_plain = lazy (Linker.link (Workloads.build Codegen.plain Workloads.Mcf))
let mcf_stack = lazy (Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf))
let otp_ifcc = lazy (Linker.link (Workloads.build Codegen.with_ifcc Workloads.Otpgen))

(* Build a disassembly context directly from an image (no enclave). *)
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
          (Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer symbols, elf))

(* Render a verdict's messages for affix checks / failure output. *)
let why v = Engarde.Policy.verdict_to_string v

(* ------------------------------------------------------------------ *)
(* Symhash + disasm                                                    *)
(* ------------------------------------------------------------------ *)

let symhash_basics () =
  let perf = Sgx.Perf.create () in
  let fn name addr size =
    Elf64.Types.{ st_name = name; st_value = addr; st_size = size;
                  st_info = (stb_global lsl 4) lor stt_func }
  in
  let obj = Elf64.Types.{ st_name = "obj"; st_value = 0x900; st_size = 8;
                          st_info = (stb_global lsl 4) lor stt_object } in
  let t = Engarde.Symhash.build perf [ fn "a" 0x100 32; fn "b" 0x200 32; obj ] in
  Alcotest.(check int) "only functions" 2 (Engarde.Symhash.size t);
  Alcotest.(check (option string)) "name at addr" (Some "a") (Engarde.Symhash.name_of_addr t 0x100);
  Alcotest.(check (option string)) "miss" None (Engarde.Symhash.name_of_addr t 0x104);
  Alcotest.(check (option int)) "function_end a" (Some 0x200) (Engarde.Symhash.function_end t 0x100);
  Alcotest.(check (option int)) "function_end b" None (Engarde.Symhash.function_end t 0x200);
  Alcotest.(check bool) "insert cost charged" true (Sgx.Perf.total_cycles perf > 0)

let disasm_builds_buffer () =
  let img = Lazy.force mcf_plain in
  let ctx, _ = context_of_image img in
  let b = ctx.Engarde.Policy.buffer in
  Alcotest.(check int) "every instruction decoded" 12903 (Array.length b.Engarde.Disasm.entries);
  (* Entries are in address order and contiguous. *)
  let ok = ref true in
  Array.iteri
    (fun i (e : Engarde.Disasm.entry) ->
      if i > 0 then begin
        let p = b.Engarde.Disasm.entries.(i - 1) in
        if p.Engarde.Disasm.addr + p.Engarde.Disasm.len <> e.Engarde.Disasm.addr then ok := false
      end)
    b.Engarde.Disasm.entries;
  Alcotest.(check bool) "contiguous" true !ok

let disasm_charges_cycles () =
  let img = Lazy.force mcf_plain in
  let perf = Sgx.Perf.create () in
  (match Elf64.Reader.parse img.Linker.elf with
  | Ok elf ->
      let text = List.hd (Elf64.Reader.text_sections elf) in
      (match
         Engarde.Disasm.run perf ~code:text.Elf64.Reader.data ~base:text.Elf64.Reader.addr
           ~symbols:elf.Elf64.Reader.symbols
       with
      | Ok _ -> ()
      | Error v -> Alcotest.failf "disasm: %s" (X86.Nacl.violation_to_string v))
  | Error e -> Alcotest.failf "parse: %s" (Elf64.Reader.error_to_string e));
  (* At least decode_base per instruction plus malloc trampolines. *)
  Alcotest.(check bool) "cycles charged" true
    (Sgx.Perf.total_cycles perf > 12903 * Engarde.Costmodel.decode_base);
  Alcotest.(check bool) "trampolines counted" true (Sgx.Perf.sgx_instructions perf > 0)

(* ------------------------------------------------------------------ *)
(* Policy: library linking                                             *)
(* ------------------------------------------------------------------ *)

let policy_libc_accepts_good () =
  let ctx, _ = context_of_image (Lazy.force mcf_plain) in
  let p = Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () in
  match p.Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | Engarde.Policy.Violations _ as v -> Alcotest.failf "rejected good binary: %s" (why v)

let policy_libc_rejects_old_version () =
  (* Linked against v1.0.4; provider demands v1.0.5. *)
  let img = Linker.link (Workloads.build ~libc:Libc.V1_0_4 Codegen.plain Workloads.Mcf) in
  let ctx, _ = context_of_image img in
  let p = Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () in
  match p.Engarde.Policy.check ctx with
  | Engarde.Policy.Violations _ as v ->
      Alcotest.(check bool) "mentions the approved release" true
        (Astring.String.is_infix ~affix:"approved library release" (why v))
  | Engarde.Policy.Compliant -> Alcotest.fail "old libc accepted"

let policy_libc_rejects_tampered_memcpy () =
  (* Client ships v1.0.5 with a backdoored memcpy. mcf must actually
     call memcpy for the policy to notice; memcpy is in every pool. *)
  let img = Linker.link (Workloads.build ~libc:Libc.Tampered_1_0_5 Codegen.plain Workloads.Mcf) in
  let ctx, _ = context_of_image img in
  let p = Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () in
  match p.Engarde.Policy.check ctx with
  | Engarde.Policy.Violations _ as v ->
      Alcotest.(check bool) "names memcpy" true
        (Astring.String.is_infix ~affix:"memcpy" (why v))
  | Engarde.Policy.Compliant -> Alcotest.fail "tampered memcpy accepted"

let policy_libc_charges_hashing () =
  let run p =
    let ctx, _ = context_of_image (Lazy.force mcf_plain) in
    ignore (p.Engarde.Policy.check ctx);
    Sgx.Perf.total_cycles ctx.Engarde.Policy.perf
  in
  let db = Lazy.force libc_db in
  let memoized = run (Engarde.Policy_libc.make ~db ()) in
  let unmemoized = run (Engarde.Policy_libc.make ~memoize:false ~db ()) in
  let no_db = run (Engarde.Policy_libc.make ~db:[] ()) in
  (* Hashing is charged only for callees named in the reference db:
     with an empty db nothing is hashed at all. *)
  Alcotest.(check bool) "db callees cost hashing" true (memoized > no_db);
  (* The shared hash store pays the full hash once per function, not
     once per call site. *)
  Alcotest.(check bool) "memoization cheaper" true (memoized < unmemoized)

(* ------------------------------------------------------------------ *)
(* Policy: stack protection                                            *)
(* ------------------------------------------------------------------ *)

let stack_policy () = Engarde.Policy_stack.make ~exempt:Libc.function_names ()

let policy_stack_accepts_protected () =
  let ctx, _ = context_of_image (Lazy.force mcf_stack) in
  match (stack_policy ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | Engarde.Policy.Violations _ as v ->
      Alcotest.failf "rejected protected binary: %s" (why v)

let policy_stack_rejects_unprotected () =
  let ctx, _ = context_of_image (Lazy.force mcf_plain) in
  match (stack_policy ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Violations _ -> ()
  | Engarde.Policy.Compliant -> Alcotest.fail "unprotected binary accepted"

(* One function compiled without the flag: build a tiny binary by hand. *)
let handmade_image ~protect_f2 =
  let drbg = Crypto.Fastrand.create "handmade" in
  let inst = Codegen.with_stack_protector in
  let mk name protected =
    Codegen.gen_function drbg
      (if protected then inst else Codegen.plain)
      ~entry_of_table:(fun _ -> "")
      { Codegen.name; body_size = 30; calls = []; data_refs = []; protected;
        stack_density = 0.2 }
  in
  let funcs =
    [ Codegen.gen_start ~main:"f1"; mk "f1" true; mk "f2" protect_f2;
      { Asm.fname = Codegen.stack_chk_fail_sym; items = [ Asm.Ins X86.Insn.ud2 ] } ]
  in
  let asm = Asm.assemble ~base:0x1000 funcs in
  let symbols =
    List.map
      (fun (name, off, size) ->
        Elf64.Types.{ st_name = name; st_value = 0x1000 + off; st_size = size;
                      st_info = (stb_global lsl 4) lor stt_func })
      asm.Asm.functions
  in
  Elf64.Writer.build
    { Elf64.Writer.default_input with
      Elf64.Writer.entry = 0x1000; text_addr = 0x1000; text = asm.Asm.code; symbols }

let policy_stack_pinpoints_one_function () =
  let raw = handmade_image ~protect_f2:false in
  let elf = Result.get_ok (Elf64.Reader.parse raw) in
  let text = List.hd (Elf64.Reader.text_sections elf) in
  let perf = Sgx.Perf.create () in
  let buffer, symbols =
    Result.get_ok
      (Engarde.Disasm.run perf ~code:text.Elf64.Reader.data ~base:text.Elf64.Reader.addr
         ~symbols:elf.Elf64.Reader.symbols)
  in
  let ctx = Engarde.Policy.context ~perf buffer symbols in
  (match (stack_policy ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Violations _ as v ->
      Alcotest.(check bool) "blames f2" true (Astring.String.is_infix ~affix:"f2" (why v))
  | Engarde.Policy.Compliant -> Alcotest.fail "missing canary accepted");
  (* And the fully protected variant passes. *)
  let raw = handmade_image ~protect_f2:true in
  let elf = Result.get_ok (Elf64.Reader.parse raw) in
  let text = List.hd (Elf64.Reader.text_sections elf) in
  let buffer, symbols =
    Result.get_ok
      (Engarde.Disasm.run (Sgx.Perf.create ()) ~code:text.Elf64.Reader.data
         ~base:text.Elf64.Reader.addr ~symbols:elf.Elf64.Reader.symbols)
  in
  let ctx = Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer symbols in
  match (stack_policy ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | Engarde.Policy.Violations _ as v ->
      Alcotest.failf "protected variant rejected: %s" (why v)

let policy_stack_quadratic_cost () =
  (* Same total instructions, one function vs eight: under the paper's
     pattern mode the single big function must cost substantially more
     to check (the per-candidate epilogue probe is quadratic), while
     flow mode — one linear site scan plus CFG dominance — stays near
     parity and far below the pattern price on the big function. *)
  let build ?mode n_fns size =
    let drbg = Crypto.Fastrand.create "quad" in
    let funcs =
      List.init n_fns (fun k ->
          Codegen.gen_function drbg Codegen.with_stack_protector
            ~entry_of_table:(fun _ -> "")
            { Codegen.name = Printf.sprintf "q%d" k; body_size = size; calls = [];
              data_refs = []; protected = true; stack_density = 0.2 })
      @ [ { Asm.fname = Codegen.stack_chk_fail_sym; items = [ Asm.Ins X86.Insn.ud2 ] } ]
    in
    let asm = Asm.assemble ~base:0x1000 funcs in
    let symbols =
      List.map
        (fun (name, off, size) ->
          Elf64.Types.{ st_name = name; st_value = 0x1000 + off; st_size = size;
                        st_info = (stb_global lsl 4) lor stt_func })
        asm.Asm.functions
    in
    let buffer, symhash =
      Result.get_ok
        (Engarde.Disasm.run (Sgx.Perf.create ()) ~code:asm.Asm.code ~base:0x1000 ~symbols)
    in
    let ctx = Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer symhash in
    let policy = Engarde.Policy_stack.make ~exempt:Libc.function_names ?mode () in
    (match policy.Engarde.Policy.check ctx with
    | Engarde.Policy.Compliant -> ()
    | Engarde.Policy.Violations _ as v -> Alcotest.failf "rejected: %s" (why v));
    Sgx.Perf.total_cycles ctx.Engarde.Policy.perf
  in
  let one_big = build ~mode:`Pattern 1 4000 in
  let many_small = build ~mode:`Pattern 8 500 in
  Alcotest.(check bool)
    (Printf.sprintf "quadratic: one big (%d) > 2x many small (%d)" one_big many_small)
    true
    (one_big > 2 * many_small);
  let one_big_flow = build ~mode:`Flow 1 4000 in
  Alcotest.(check bool)
    (Printf.sprintf "flow is linear: one big flow (%d) < one big pattern (%d) / 2"
       one_big_flow one_big)
    true
    (one_big_flow < one_big / 2)

(* ------------------------------------------------------------------ *)
(* Policy: IFCC                                                        *)
(* ------------------------------------------------------------------ *)

let policy_ifcc_accepts_instrumented () =
  let ctx, _ = context_of_image (Lazy.force otp_ifcc) in
  match (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | Engarde.Policy.Violations _ as v ->
      Alcotest.failf "rejected instrumented binary: %s" (why v)

let policy_ifcc_rejects_raw_indirect () =
  (* The plain build has raw lea+callq* sites without masking. *)
  let img = Linker.link (Workloads.build Codegen.plain Workloads.Otpgen) in
  let ctx, _ = context_of_image img in
  match (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Violations _ as v ->
      Alcotest.(check bool) "mentions masking" true
        (Astring.String.is_infix ~affix:"IFCC masking" (why v)
        || Astring.String.is_infix ~affix:"unprotected" (why v))
  | Engarde.Policy.Compliant -> Alcotest.fail "raw indirect call accepted"

let policy_ifcc_accepts_no_indirect_calls () =
  (* mcf has no indirect calls at all: trivially compliant. *)
  let ctx, _ = context_of_image (Lazy.force mcf_plain) in
  match (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | Engarde.Policy.Violations _ as v -> Alcotest.failf "mcf rejected: %s" (why v)

let policy_ifcc_rejects_pointer_outside_table () =
  (* Handmade site whose masking sequence is correct but whose pointer
     aims at a function, not a table entry. *)
  let target = { Asm.fname = "victim"; items = [ Asm.Ins X86.Insn.ret ] } in
  let site =
    { Asm.fname = "attacker";
      items =
        [
          Asm.Lea_sym (X86.Reg.RCX, "victim"); (* outside the table *)
          Asm.Lea_sym (X86.Reg.RAX, Codegen.jump_table_sym);
          Asm.Ins (X86.Insn.sub_rr ~w:X86.Insn.W32 X86.Reg.RAX X86.Reg.RCX);
          Asm.Ins (X86.Insn.and_ri X86.Reg.RCX 0x1ff8);
          Asm.Ins (X86.Insn.add_rr X86.Reg.RAX X86.Reg.RCX);
          Asm.Ins (X86.Insn.call_ind X86.Reg.RCX);
          Asm.Ins X86.Insn.ret;
        ] }
  in
  let table = Codegen.gen_jump_table ~targets:[ "victim"; "victim" ] in
  let asm = Asm.assemble ~base:0x1000 [ Codegen.gen_start ~main:"attacker"; site; table; target ] in
  let symbols =
    List.map
      (fun (name, off, size) ->
        Elf64.Types.{ st_name = name; st_value = 0x1000 + off; st_size = size;
                      st_info = (stb_global lsl 4) lor stt_func })
      asm.Asm.functions
    @ List.filter_map
        (fun k ->
          Option.map
            (fun off ->
              Elf64.Types.{ st_name = Codegen.jump_table_entry_sym k;
                            st_value = 0x1000 + off; st_size = 8;
                            st_info = (stb_global lsl 4) lor stt_func })
            (Hashtbl.find_opt asm.Asm.labels (Codegen.jump_table_entry_sym k)))
        [ 0; 1 ]
  in
  let buffer, symhash =
    Result.get_ok
      (Engarde.Disasm.run (Sgx.Perf.create ()) ~code:asm.Asm.code ~base:0x1000 ~symbols)
  in
  let ctx = Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer symhash in
  match (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Violations _ as v ->
      (* Masked pointer falls back inside the table only if it happens
         to; the lea base is the table though, and the pointer points
         outside — the masked result must betray it. *)
      Alcotest.(check bool) "flags the site" true (String.length (why v) > 0)
  | Engarde.Policy.Compliant -> Alcotest.fail "out-of-table pointer accepted"

(* ------------------------------------------------------------------ *)
(* Full provisioning protocol                                          *)
(* ------------------------------------------------------------------ *)

let provision ?tamper ?(policies = []) ?(cfg = fast_config) payload =
  Engarde.Provision.run ?tamper ~policies cfg ~payload

let provisioning_accepts_compliant () =
  let img = Lazy.force mcf_plain in
  let o = provision ~policies:[ Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () ]
      img.Linker.elf in
  (match o.Engarde.Provision.result with
  | Ok loaded ->
      Alcotest.(check int) "9 relocations" 9 loaded.Engarde.Loader.relocations_applied;
      Alcotest.(check bool) "entry is biased" true
        (loaded.Engarde.Loader.entry
        = img.Linker.entry + Engarde.Provision.image_region_base)
  | Error r -> Alcotest.failf "rejected: %s" (Engarde.Provision.rejection_to_string r));
  (match o.Engarde.Provision.client_verdict with
  | Some (true, _) -> ()
  | Some (false, d) -> Alcotest.failf "client saw rejection: %s" d
  | None -> Alcotest.fail "client saw no verdict");
  (* The enclave is sealed and code pages are X^W at both levels. *)
  Alcotest.(check bool) "sealed" true
    (Sgx.Enclave.state o.Engarde.Provision.enclave = Sgx.Enclave.Sealed);
  match o.Engarde.Provision.result with
  | Ok loaded ->
      let code_page = List.hd loaded.Engarde.Loader.exec_pages in
      let eff =
        Sgx.Host_os.effective o.Engarde.Provision.host o.Engarde.Provision.enclave
          ~vaddr:code_page
      in
      Alcotest.(check string) "code page r-x" "r-x" (Sgx.Enclave.perm_to_string eff)
  | Error _ -> ()

let provisioning_counts_instructions () =
  let img = Lazy.force mcf_plain in
  let o = provision img.Linker.elf in
  Alcotest.(check int) "report #inst" 12903
    o.Engarde.Provision.report.Engarde.Report.instructions

let provisioning_rejects_stripped () =
  let b = Workloads.build Codegen.plain Workloads.Mcf in
  let img = Linker.link ~strip:true b in
  let o = provision img.Linker.elf in
  match o.Engarde.Provision.result with
  | Error Engarde.Provision.Stripped_binary -> ()
  | Ok _ -> Alcotest.fail "stripped binary accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Engarde.Provision.rejection_to_string r)

let provisioning_rejects_mixed_pages () =
  let b = Workloads.build Codegen.plain Workloads.Mcf in
  let img0 = Linker.link b in
  let text_end = img0.Linker.text_addr + String.length img0.Linker.text in
  let img = Linker.link ~data_addr_override:text_end b in
  let o = provision img.Linker.elf in
  match o.Engarde.Provision.result with
  | Error (Engarde.Provision.Mixed_pages _) -> ()
  | Ok _ -> Alcotest.fail "mixed pages accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Engarde.Provision.rejection_to_string r)

let provisioning_rejects_garbage () =
  let o = provision (String.make 100_000 '\x41') in
  match o.Engarde.Provision.result with
  | Error (Engarde.Provision.Bad_elf _) -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Engarde.Provision.rejection_to_string r)

let provisioning_rejects_policy_violation () =
  let img = Linker.link (Workloads.build ~libc:Libc.V1_0_4 Codegen.plain Workloads.Mcf) in
  let o = provision ~policies:[ Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () ]
      img.Linker.elf in
  (match o.Engarde.Provision.result with
  | Error (Engarde.Provision.Policy_violations _) -> ()
  | Ok _ -> Alcotest.fail "old libc accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Engarde.Provision.rejection_to_string r));
  (* The client is told, and told why. *)
  match o.Engarde.Provision.client_verdict with
  | Some (false, detail) ->
      Alcotest.(check bool) "details reach the client" true
        (Astring.String.is_infix ~affix:"library-linking" detail)
  | Some (true, _) -> Alcotest.fail "client saw acceptance"
  | None -> Alcotest.fail "client saw no verdict"

let provisioning_rejects_tampered_block () =
  let img = Lazy.force mcf_plain in
  let tamper = function
    | Channel.Wire.Code_block { seq = 3; offset; ciphertext; tag } ->
        let c = Bytes.of_string ciphertext in
        Bytes.set c 0 (Char.chr (Char.code (Bytes.get c 0) lxor 0xff));
        Channel.Wire.Code_block { seq = 3; offset; ciphertext = Bytes.to_string c; tag }
    | m -> m
  in
  let o = provision ~tamper img.Linker.elf in
  match o.Engarde.Provision.result with
  | Error (Engarde.Provision.Transfer_tampered _) -> ()
  | Ok _ -> Alcotest.fail "tampered transfer accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Engarde.Provision.rejection_to_string r)

let provisioning_detects_quote_tamper () =
  let img = Lazy.force mcf_plain in
  let tamper = function
    | Channel.Wire.Quote_response { quote; enclave_pub = _ } ->
        (* MITM swaps in its own key to read the session key. *)
        Channel.Wire.Quote_response { quote; enclave_pub = "attacker-key-bytes" }
    | m -> m
  in
  let o = provision ~tamper img.Linker.elf in
  match o.Engarde.Provision.attestation_failure with
  | Some Channel.Client.Bad_enclave_key -> ()
  | Some f -> Alcotest.failf "wrong failure: %s" (Channel.Client.failure_to_string f)
  | None -> Alcotest.fail "client accepted a swapped key"

let provisioning_verdict_flip_is_detectable () =
  (* The provider can lie about the verdict on the wire, but the paper
     notes the client can detect cheating: here the flipped verdict
     still carries the rejection detail, which contradicts it. *)
  let img = Linker.link ~strip:true (Workloads.build Codegen.plain Workloads.Mcf) in
  let tamper = function
    | Channel.Wire.Verdict { accepted = false; detail } ->
        Channel.Wire.Verdict { accepted = true; detail }
    | m -> m
  in
  let o = provision ~tamper img.Linker.elf in
  (match o.Engarde.Provision.result with
  | Error Engarde.Provision.Stripped_binary -> ()
  | _ -> Alcotest.fail "expected stripped rejection inside the enclave");
  match o.Engarde.Provision.client_verdict with
  | Some (true, detail) ->
      Alcotest.(check bool) "detail betrays the flip" true
        (Astring.String.is_infix ~affix:"symbol table" detail)
  | _ -> Alcotest.fail "tampered verdict lost"

let provisioning_different_policies_different_measurement () =
  let c1 = { fast_config with Engarde.Provision.policy_names = [ "library-linking" ] } in
  let c2 = { fast_config with Engarde.Provision.policy_names = [ "stack-protection" ] } in
  Alcotest.(check bool) "policy set changes measurement" true
    (Engarde.Provision.expected_measurement c1 <> Engarde.Provision.expected_measurement c2)

(* ------------------------------------------------------------------ *)
(* Measurement: the memoized build against an independent log          *)
(* ------------------------------------------------------------------ *)

let u64le v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

(* The enclave's measurement written out from its layout with nothing
   but SHA-256 and the bootstrap DRBG: the ECREATE record over the
   64 MB range; then the bootstrap pages (r-x, drawn from the DRBG the
   policy set personalizes), the staging heap after them and the image
   region (rw-, zero), each page as its EADD record and one EEXTEND
   record per 256 bytes; then the EGPOLICY record. *)
let reference_measurement (c : Engarde.Provision.config) =
  let page = 4096 and base = Engarde.Provision.enclave_base and size = 0x400_0000 in
  let ctx = Crypto.Sha256.init () in
  let add = Crypto.Sha256.update ctx in
  add "ECREATE\x00";
  add (u64le base);
  add (u64le size);
  let page_records vaddr perms content =
    add "EADD\x00\x00\x00\x00";
    add (u64le vaddr);
    add perms;
    add "\x00";
    for i = 0 to (page / 256) - 1 do
      add "EEXTEND\x00";
      add (u64le (vaddr + (256 * i)));
      Crypto.Sha256.update_sub ctx content ~pos:(256 * i) ~len:256
    done
  in
  let drbg =
    Crypto.Drbg.create ~personalization:"engarde-bootstrap-v1"
      (String.concat "," c.Engarde.Provision.policy_names)
  in
  for i = 0 to c.Engarde.Provision.bootstrap_pages - 1 do
    page_records (base + (i * page)) "r-x" (Crypto.Drbg.generate drbg page)
  done;
  let zero = String.make page '\x00' in
  let staging = base + (c.Engarde.Provision.bootstrap_pages * page) in
  for i = 0 to c.Engarde.Provision.heap_pages - 1 do
    page_records (staging + (i * page)) "rw-" zero
  done;
  let image = Engarde.Provision.image_region_base in
  for i = 0 to min c.Engarde.Provision.image_pages ((base + size - image) / page) - 1 do
    page_records (image + (i * page)) "rw-" zero
  done;
  let digest = c.Engarde.Provision.policy_digest in
  if digest <> "" then begin
    add "EGPOLICY";
    add (u64le (String.length digest));
    add digest
  end;
  Crypto.Sha256.hex (Crypto.Sha256.finalize ctx)

(* Both parties' measurements: the client's replay, and the one EINIT
   returns for the enclave [Provision.run] builds (a payload that is not
   an ELF is refused after the build, so the run stays cheap). *)
let check_measurements ?(programs = []) what (c : Engarde.Provision.config) =
  let expect = reference_measurement c in
  Alcotest.(check string) (what ^ ": expected_measurement") expect
    (Crypto.Sha256.hex (Engarde.Provision.expected_measurement c));
  let o = Engarde.Provision.run ~programs c ~payload:"not an ELF" in
  Alcotest.(check string) (what ^ ": einit") expect
    (Crypto.Sha256.hex o.Engarde.Provision.measurement)

let with_policies names = { fast_config with Engarde.Provision.policy_names = names }

let measurement_cold_and_warm () =
  let c = with_policies [ "oracle-cold" ] in
  check_measurements "cold" c;
  check_measurements "warm" c;
  check_measurements "warm, another EPC" { c with Engarde.Provision.epc_pages = 4099 }

let measurement_interleaved () =
  let a = with_policies [ "libc" ] and b = with_policies [ "stack"; "ifcc" ] in
  check_measurements "A" a;
  check_measurements "B" b;
  check_measurements "A again" a

let measurement_with_policy_digest () =
  let programs = [ ("libc", "oracle program") ] in
  let c =
    { (with_policies [ "libc" ]) with
      Engarde.Provision.policy_digest = Channel.Session.policy_set_digest programs }
  in
  check_measurements ~programs "with digest" c;
  check_measurements ~programs "with digest, warm" c

(* Two domains replay interleaved policy sets at once, each also running
   one pipeline. A reduced layout keeps it quick. *)
let measurement_two_domains () =
  let small names =
    { fast_config with Engarde.Provision.policy_names = names; heap_pages = 64; image_pages = 64 }
  in
  let a = small [ "domain-a" ] and b = small [ "domain-b" ] in
  let ra = reference_measurement a and rb = reference_measurement b in
  let work first second =
    let replays =
      List.init 8 (fun i ->
          let c, expect = if i mod 2 = 0 then first else second in
          (expect, Crypto.Sha256.hex (Engarde.Provision.expected_measurement c)))
    in
    let c, expect = first in
    let o = Engarde.Provision.run c ~payload:"not an ELF" in
    (expect, Crypto.Sha256.hex o.Engarde.Provision.measurement) :: replays
  in
  let d1 = Domain.spawn (fun () -> work (a, ra) (b, rb)) in
  let d2 = Domain.spawn (fun () -> work (b, rb) (a, ra)) in
  List.iter
    (fun (expect, got) -> Alcotest.(check string) "concurrent measurement" expect got)
    (Domain.join d1 @ Domain.join d2)

(* More distinct fast-config plans than the page memo holds entries:
   every replay stays exact and the memo within its cap. *)
let measurement_memo_bound () =
  let pages_per_plan =
    fast_config.Engarde.Provision.bootstrap_pages + fast_config.Engarde.Provision.heap_pages
    + fast_config.Engarde.Provision.image_pages
  in
  let plans = (Sgx.Measurement.memo_cap / pages_per_plan) + 1 in
  for i = 1 to plans do
    let c = with_policies [ Printf.sprintf "bound-%d" i ] in
    Alcotest.(check string) (Printf.sprintf "plan %d" i) (reference_measurement c)
      (Crypto.Sha256.hex (Engarde.Provision.expected_measurement c));
    if Sgx.Measurement.memo_entries () > Sgx.Measurement.memo_cap then
      Alcotest.failf "plan %d: memo holds %d entries, cap %d" i (Sgx.Measurement.memo_entries ())
        Sgx.Measurement.memo_cap
  done

(* Allocation ceilings for the client's replay, read after a second
   [Gc.minor ()], because OCaml 5.1 counts what is still in the minor
   heap short. Each sits about 10% above its measured value. *)
let replay_allocated c =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Engarde.Provision.expected_measurement c));
  Gc.minor ();
  Gc.allocated_bytes () -. before

let check_replay_ceiling what ~ceiling bytes =
  if bytes > ceiling then
    Alcotest.failf "%s allocated %.0f bytes, ceiling %.0f" what bytes ceiling

(* A layout the process has replayed, under another EPC size (as
   benchmark/service_loop.ml varies [epc_pages] per service instance):
   the plan and every page come from the memos, so the replay hashes
   nothing. Measured: 205,072 bytes. *)
let measurement_replay_allocation () =
  (* Two warm-ups: should the first fill the memo and empty it part-way,
     the second re-hashes the pages it lost. *)
  let warm = { fast_config with Engarde.Provision.epc_pages = 4097 } in
  ignore (Engarde.Provision.expected_measurement warm);
  ignore (Engarde.Provision.expected_measurement warm);
  check_replay_ceiling "warm fast-config replay" ~ceiling:226_000.
    (replay_allocated { fast_config with Engarde.Provision.epc_pages = 4098 })

(* A policy set the process has never seen: the bootstrap DRBG, the
   plan and 8.7 MB of hashing, with the memo's entries. Measured:
   3,590,464 bytes. *)
let measurement_cold_replay_allocation () =
  check_replay_ceiling "cold fast-config replay" ~ceiling:3.95e6
    (replay_allocated (with_policies [ "never-seen policy set" ]))

(* The inspector's front half, read between two [Gc.minor ()] calls on
   the second of two runs. The sweep decodes into one array that NaCl
   and Disasm keep as it is, so Disasm.run_src stays within 200 bytes
   per instruction (about 600 with the list, the entry copy and the two
   hash tables), and examine within about 10% of its reading. *)
let second_run_allocated f =
  ignore (f ());
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  Gc.allocated_bytes () -. before

let disasm_allocation () =
  let img = Linker.link (Workloads.build Codegen.plain Workloads.Nginx) in
  let elf =
    match Elf64.Reader.parse img.Linker.elf with Ok e -> e | Error _ -> Alcotest.fail "parse"
  in
  let text = List.hd (Elf64.Reader.text_sections elf) in
  let src = X86.Decoder.Big (Elf64.Buf.Big.of_string text.Elf64.Reader.data) in
  let n = ref 0 in
  let bytes =
    second_run_allocated (fun () ->
        match
          Engarde.Disasm.run_src (Sgx.Perf.create ()) ~src ~base:text.Elf64.Reader.addr
            ~symbols:elf.Elf64.Reader.symbols
        with
        | Ok (b, _) -> n := Array.length b.Engarde.Disasm.entries
        | Error v -> Alcotest.failf "disasm: %s" (X86.Nacl.violation_to_string v))
  in
  (* 36,068,538 bytes measured for 262,228 instructions. *)
  if bytes > 200. *. float !n then
    Alcotest.failf "Disasm.run_src allocated %.0f bytes for %d instructions, over 200 per instruction"
      bytes !n

let examine_allocation () =
  let check what img ~ceiling =
    let bytes =
      second_run_allocated (fun () ->
          match Engarde.Provision.examine (Engarde.Report.create ()) img.Linker.elf with
          | Ok _ -> ()
          | Error r -> Alcotest.failf "%s: %s" what (Engarde.Provision.rejection_to_string r))
    in
    if bytes > ceiling then Alcotest.failf "examine %s allocated %.0f bytes, ceiling %.0f" what bytes ceiling
  in
  (* 2,081,546 and 47,616,778 bytes measured. *)
  check "plain 429.mcf" (Lazy.force mcf_plain) ~ceiling:2.3e6;
  check "stack+ifcc nginx"
    (Linker.link (Workloads.build { Codegen.stack_protector = true; ifcc = true } Workloads.Nginx))
    ~ceiling:52.4e6

(* The enclave's keypair comes from a process-wide memo: it must be the
   key a fresh DRBG draws, on a miss and on a hit, and the memo must stay
   within its cap. *)
let key_hex (k : Crypto.Rsa.keypair) =
  List.map Crypto.Bignum.to_hex
    Crypto.Rsa.[ k.pub.n; k.pub.e; k.d; k.p; k.q ]

let fresh_keypair (c : Engarde.Provision.config) measurement =
  Crypto.Rsa.generate
    (Crypto.Drbg.create ~personalization:"engarde-enclave" (c.Engarde.Provision.seed ^ measurement))
    ~bits:c.Engarde.Provision.rsa_bits

let keypair_memo_exact () =
  (* A seed no other test runs on, so the first call misses. *)
  let c = { fast_config with Engarde.Provision.seed = "keypair memo" } in
  let measurement = Engarde.Provision.expected_measurement c in
  let expected = key_hex (fresh_keypair c measurement) in
  let cold = Engarde.Provision.enclave_keypair c ~measurement in
  Alcotest.(check (list string)) "cold" expected (key_hex cold);
  let warm = Engarde.Provision.enclave_keypair c ~measurement in
  Alcotest.(check (list string)) "warm" expected (key_hex warm);
  Alcotest.(check bool) "warm is the memoized key" true (warm == cold)

let keypair_memo_bound () =
  let c = { fast_config with Engarde.Provision.seed = "keypair bound"; rsa_bits = 64 } in
  for i = 1 to Engarde.Provision.plan_cap + 3 do
    let measurement = Printf.sprintf "measurement %d" i in
    Alcotest.(check (list string)) measurement (key_hex (fresh_keypair c measurement))
      (key_hex (Engarde.Provision.enclave_keypair c ~measurement));
    if Engarde.Provision.keypairs_memoized () > Engarde.Provision.plan_cap then
      Alcotest.failf "key %d: memo holds %d keys, cap %d" i (Engarde.Provision.keypairs_memoized ())
        Engarde.Provision.plan_cap
  done

let provisioning_seals_against_extension () =
  let img = Lazy.force mcf_plain in
  let o = provision img.Linker.elf in
  match o.Engarde.Provision.result with
  | Ok _ -> (
      match
        Sgx.Enclave.eaug o.Engarde.Provision.enclave
          ~vaddr:(Engarde.Provision.enclave_base + 0x3f00000) ~perm:Sgx.Enclave.rw
      with
      | () -> Alcotest.fail "post-provisioning EADD/EAUG succeeded"
      | exception Sgx.Enclave.Sgx_fault _ -> ())
  | Error r -> Alcotest.failf "rejected: %s" (Engarde.Provision.rejection_to_string r)

let loader_applies_relocations () =
  let img = Lazy.force mcf_plain in
  let o = provision img.Linker.elf in
  match o.Engarde.Provision.result with
  | Error r -> Alcotest.failf "rejected: %s" (Engarde.Provision.rejection_to_string r)
  | Ok loaded ->
      (* Read the first pointer slot out of enclave memory: it must hold
         the biased address of its target function. *)
      let elf = Result.get_ok (Elf64.Reader.parse img.Linker.elf) in
      let r0 = List.hd elf.Elf64.Reader.relocations in
      let e = o.Engarde.Provision.enclave in
      Sgx.Enclave.eenter e;
      let bytes =
        Sgx.Enclave.read e ~vaddr:(r0.Elf64.Types.r_offset + loaded.Engarde.Loader.load_bias)
          ~len:8
      in
      Sgx.Enclave.eexit e;
      let v = ref 0 in
      for i = 7 downto 0 do v := (!v lsl 8) lor Char.code bytes.[i] done;
      Alcotest.(check int) "slot holds biased function address"
        (r0.Elf64.Types.r_addend + loaded.Engarde.Loader.load_bias) !v

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

let provisioning_epc_exhaustion () =
  (* The machine does not have enough EPC pages to commit the enclave:
     ECREATE/EADD must fault, not corrupt. *)
  let cfg = { fast_config with Engarde.Provision.epc_pages = 64 } in
  match Engarde.Provision.run cfg ~payload:(Lazy.force mcf_plain).Linker.elf with
  | _ -> Alcotest.fail "expected EPC exhaustion fault"
  | exception Sgx.Enclave.Sgx_fault why ->
      Alcotest.(check bool) "mentions EPC" true (Astring.String.is_infix ~affix:"EPC" why)

let provisioning_image_too_large () =
  (* The committed image region is smaller than the binary: the loader
     write faults and provisioning reports a load failure. *)
  let cfg = { fast_config with Engarde.Provision.image_pages = 8 } in
  let o = Engarde.Provision.run cfg ~payload:(Lazy.force mcf_plain).Linker.elf in
  match o.Engarde.Provision.result with
  | Error (Engarde.Provision.Load_failed _) -> ()
  | Ok _ -> Alcotest.fail "oversized image accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Engarde.Provision.rejection_to_string r)

let provisioning_dropped_block () =
  (* A block replaced by noise on the wire: the completeness check
     trips before any content is believed. *)
  let img = Lazy.force mcf_plain in
  let dropped = ref false in
  let tamper = function
    | Channel.Wire.Code_block { seq = 2; _ } when not !dropped ->
        dropped := true;
        Channel.Wire.Client_hello { challenge = "dropped" }
    | m -> m
  in
  let o = Engarde.Provision.run ~tamper fast_config ~payload:img.Linker.elf in
  match o.Engarde.Provision.result with
  | Error (Engarde.Provision.Transfer_tampered _) -> ()
  | Ok _ -> Alcotest.fail "missing block accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Engarde.Provision.rejection_to_string r)

(* Matrix: every small benchmark x variant pair provisions cleanly
   under its matching policy. *)
let all_workloads_provision () =
  List.iter
    (fun (inst, policies) ->
      List.iter
        (fun bench ->
          let img = Linker.link (Workloads.build inst bench) in
          let cfg =
            { fast_config with
              Engarde.Provision.image_pages = 2048; heap_pages = 1024;
              seed = "matrix/" ^ Workloads.to_string bench }
          in
          let o = Engarde.Provision.run ~policies:(policies ()) cfg ~payload:img.Linker.elf in
          match o.Engarde.Provision.result with
          | Ok _ -> ()
          | Error r ->
              Alcotest.failf "%s rejected: %s" (Workloads.to_string bench)
                (Engarde.Provision.rejection_to_string r))
        [ Workloads.Bzip2; Workloads.Mcf; Workloads.Otpgen ])
    [
      (Codegen.plain, fun () -> [ Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () ]);
      (Codegen.with_stack_protector, fun () -> [ stack_policy () ]);
      (Codegen.with_ifcc, fun () -> [ Engarde.Policy_ifcc.make () ]);
    ]

(* ------------------------------------------------------------------ *)
(* Structured findings                                                 *)
(* ------------------------------------------------------------------ *)

let ascending addrs =
  let rec go = function a :: (b :: _ as rest) -> a <= b && go rest | _ -> true in
  go addrs

let findings_report_every_site () =
  (* A plain build trips both the stack and the IFCC policies; every
     offending site must surface as its own finding, in address order,
     deterministically. *)
  let img = Linker.link (Workloads.build Codegen.plain Workloads.Otpgen) in
  let run () =
    let ctx, _ = context_of_image img in
    Engarde.Policy.run_all ctx [ stack_policy (); Engarde.Policy_ifcc.make () ]
  in
  let results = run () in
  let fs = Engarde.Policy.findings results in
  let policies = List.sort_uniq compare (List.map (fun f -> f.Engarde.Policy.policy) fs) in
  Alcotest.(check bool) "both policies report" true (List.length policies >= 2);
  List.iter
    (fun (pname, v) ->
      match v with
      | Engarde.Policy.Compliant -> Alcotest.failf "%s unexpectedly compliant" pname
      | Engarde.Policy.Violations per ->
          Alcotest.(check bool) (pname ^ ": ascending addresses") true
            (ascending (List.map (fun f -> f.Engarde.Policy.addr) per));
          List.iter
            (fun f ->
              Alcotest.(check string) (pname ^ ": policy field") pname f.Engarde.Policy.policy;
              Alcotest.(check bool) (pname ^ ": code set") true
                (String.length f.Engarde.Policy.code > 0))
            per)
    results;
  let multi_site =
    List.exists
      (function _, Engarde.Policy.Violations (_ :: _ :: _) -> true | _ -> false)
      results
  in
  Alcotest.(check bool) "some policy reports >= 2 sites" true multi_site;
  Alcotest.(check bool) "deterministic across runs" true (results = run ())

let findings_pinpoint_address () =
  (* The one unprotected function in the handmade image is blamed by
     address, not merely by name in prose. *)
  let raw = handmade_image ~protect_f2:false in
  let elf = Result.get_ok (Elf64.Reader.parse raw) in
  let text = List.hd (Elf64.Reader.text_sections elf) in
  let buffer, symbols =
    Result.get_ok
      (Engarde.Disasm.run (Sgx.Perf.create ()) ~code:text.Elf64.Reader.data
         ~base:text.Elf64.Reader.addr ~symbols:elf.Elf64.Reader.symbols)
  in
  let f2_addr =
    (List.find (fun s -> s.Elf64.Types.st_name = "f2") elf.Elf64.Reader.symbols)
      .Elf64.Types.st_value
  in
  let ctx = Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer symbols in
  match (stack_policy ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> Alcotest.fail "missing canary accepted"
  | Engarde.Policy.Violations [ f ] ->
      Alcotest.(check int) "addr is f2's entry" f2_addr f.Engarde.Policy.addr;
      Alcotest.(check string) "code" "missing-stack-protector" f.Engarde.Policy.code
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let () =
  Alcotest.run "engarde"
    [
      ( "symhash",
        [ Alcotest.test_case "basics" `Quick symhash_basics ] );
      ( "disasm",
        [
          Alcotest.test_case "builds buffer" `Quick disasm_builds_buffer;
          Alcotest.test_case "charges cycles" `Quick disasm_charges_cycles;
        ] );
      ( "policy-libc",
        [
          Alcotest.test_case "accepts good" `Quick policy_libc_accepts_good;
          Alcotest.test_case "rejects old version" `Quick policy_libc_rejects_old_version;
          Alcotest.test_case "rejects tampered memcpy" `Quick policy_libc_rejects_tampered_memcpy;
          Alcotest.test_case "charges hashing" `Quick policy_libc_charges_hashing;
        ] );
      ( "policy-stack",
        [
          Alcotest.test_case "accepts protected" `Quick policy_stack_accepts_protected;
          Alcotest.test_case "rejects unprotected" `Quick policy_stack_rejects_unprotected;
          Alcotest.test_case "pinpoints one function" `Quick policy_stack_pinpoints_one_function;
          Alcotest.test_case "quadratic cost" `Quick policy_stack_quadratic_cost;
        ] );
      ( "policy-ifcc",
        [
          Alcotest.test_case "accepts instrumented" `Quick policy_ifcc_accepts_instrumented;
          Alcotest.test_case "rejects raw indirect" `Quick policy_ifcc_rejects_raw_indirect;
          Alcotest.test_case "no indirect calls ok" `Quick policy_ifcc_accepts_no_indirect_calls;
          Alcotest.test_case "pointer outside table" `Quick policy_ifcc_rejects_pointer_outside_table;
        ] );
      ( "provisioning",
        [
          Alcotest.test_case "accepts compliant" `Slow provisioning_accepts_compliant;
          Alcotest.test_case "counts instructions" `Slow provisioning_counts_instructions;
          Alcotest.test_case "rejects stripped" `Slow provisioning_rejects_stripped;
          Alcotest.test_case "rejects mixed pages" `Slow provisioning_rejects_mixed_pages;
          Alcotest.test_case "rejects garbage" `Slow provisioning_rejects_garbage;
          Alcotest.test_case "rejects policy violation" `Slow provisioning_rejects_policy_violation;
          Alcotest.test_case "rejects tampered block" `Slow provisioning_rejects_tampered_block;
          Alcotest.test_case "detects quote tamper" `Slow provisioning_detects_quote_tamper;
          Alcotest.test_case "verdict flip detectable" `Slow provisioning_verdict_flip_is_detectable;
          Alcotest.test_case "policy set in measurement" `Quick
            provisioning_different_policies_different_measurement;
          Alcotest.test_case "seals against extension" `Slow provisioning_seals_against_extension;
          Alcotest.test_case "relocations applied" `Slow loader_applies_relocations;
        ] );
      ( "findings",
        [
          Alcotest.test_case "reports every site" `Quick findings_report_every_site;
          Alcotest.test_case "pinpoints address" `Quick findings_pinpoint_address;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "EPC exhaustion" `Slow provisioning_epc_exhaustion;
          Alcotest.test_case "image too large" `Slow provisioning_image_too_large;
          Alcotest.test_case "dropped block" `Slow provisioning_dropped_block;
          Alcotest.test_case "all workloads matrix" `Slow all_workloads_provision;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "cold and warm" `Quick measurement_cold_and_warm;
          Alcotest.test_case "policy sets A, B, A" `Quick measurement_interleaved;
          Alcotest.test_case "with a policy digest" `Quick measurement_with_policy_digest;
          Alcotest.test_case "two domains" `Quick measurement_two_domains;
          Alcotest.test_case "memo bounded" `Slow measurement_memo_bound;
        ] );
      ( "keypair",
        [
          Alcotest.test_case "memo equals a fresh keygen" `Quick keypair_memo_exact;
          Alcotest.test_case "memo bounded" `Quick keypair_memo_bound;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "fast-config measurement replay" `Quick measurement_replay_allocation;
          Alcotest.test_case "cold replay of a new policy set" `Quick
            measurement_cold_replay_allocation;
          Alcotest.test_case "Disasm.run_src on plain nginx" `Quick disasm_allocation;
          Alcotest.test_case "examine on 429.mcf and nginx" `Quick examine_allocation;
        ] );
    ]
