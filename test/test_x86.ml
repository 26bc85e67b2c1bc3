(* x86 substrate tests: byte-exact encodings (including every sequence
   the paper quotes), encode/decode round-trip properties, decoder
   metadata, NaCl validation rules, and the one-array instruction table
   (decoder, NaCl, Disasm.run_src) against the list-and-Hashtbl oracle
   in disasm_oracle.ml. *)

open X86

let hex_of s = Crypto.Sha256.hex s

let check_bytes name expected insn =
  Alcotest.(check string) name expected (hex_of (Encoder.encode insn))

(* ------------------------------------------------------------------ *)
(* Byte-exact encodings                                                *)
(* ------------------------------------------------------------------ *)

let enc_paper_canary_load () =
  (* Paper Section 5: 19311: mov %fs:0x28, %rax *)
  check_bytes "mov %fs:0x28,%rax" "64488b042528000000" (Insn.mov_fs_canary Reg.RAX)

let enc_paper_canary_store () =
  (* 1931a: mov %rax, (%rsp) *)
  check_bytes "mov %rax,(%rsp)" "48890424" (Insn.store_rsp Reg.RAX)

let enc_paper_canary_cmp () =
  (* 19407: cmp (%rsp), %rax *)
  check_bytes "cmp (%rsp),%rax" "483b0424" (Insn.cmp_rsp Reg.RAX)

let enc_paper_ifcc_mask () =
  (* 1b462: and $0x1ff8, %rcx *)
  check_bytes "and $0x1ff8,%rcx" "4881e1f81f0000" (Insn.and_ri Reg.RCX 0x1ff8)

let enc_paper_ifcc_lea () =
  (* 1b459: lea 0x85c70(%rip), %rax *)
  check_bytes "lea 0x85c70(%rip),%rax" "488d05705c0800" (Insn.lea_rip Reg.RAX 0x85c70)

let enc_paper_ifcc_sub32 () =
  (* 1b460: sub %eax, %ecx *)
  check_bytes "sub %eax,%ecx" "29c1" (Insn.sub_rr ~w:Insn.W32 Reg.RAX Reg.RCX)

let enc_paper_ifcc_add () =
  (* 1b469: add %rax, %rcx *)
  check_bytes "add %rax,%rcx" "4801c1" (Insn.add_rr Reg.RAX Reg.RCX)

let enc_paper_ifcc_call_ind () =
  (* 1b475: callq *%rcx *)
  check_bytes "callq *%rcx" "ffd1" (Insn.call_ind Reg.RCX)

let enc_paper_jump_table_entry () =
  (* a19d0: jmpq rel32 ; a19d5: nopl (%rax) *)
  (* a19d0: jmpq 41090 -> rel32 = 0x41090 - 0xa19d5 = -0x60945 *)
  check_bytes "jmpq rel32" "e9bbf6f9ff" (Insn.jmp (-0x60945));
  check_bytes "nopl (%rax)" "0f1f00" Insn.nopl

let enc_basic_forms () =
  check_bytes "push %rbp" "55" (Insn.push Reg.RBP);
  check_bytes "push %r12" "4154" (Insn.push Reg.R12);
  check_bytes "pop %rbp" "5d" (Insn.pop Reg.RBP);
  check_bytes "ret" "c3" Insn.ret;
  check_bytes "nop" "90" Insn.nop;
  check_bytes "ud2" "0f0b" Insn.ud2;
  check_bytes "mov %rdi,%rsi" "4889fe" (Insn.mov_rr Reg.RDI Reg.RSI);
  check_bytes "mov $5,%rax" "48c7c005000000" (Insn.mov_ri Reg.RAX 5);
  check_bytes "callq rel" "e804000000" (Insn.call 4);
  check_bytes "jne rel32" "0f8510000000" (Insn.jcc Insn.NE 0x10);
  check_bytes "xor %eax,%eax" "31c0" (Insn.xor_rr ~w:Insn.W32 Reg.RAX Reg.RAX);
  check_bytes "add $8,%rsp (imm8 form)" "4883c408" (Insn.add_ri Reg.RSP 8);
  check_bytes "imul %rsi,%rdi" "480faffe" (Insn.imul_rr Reg.RSI Reg.RDI);
  check_bytes "shl $3,%rdx" "48c1e203" (Insn.shl_ri Reg.RDX 3)

let enc_extended_regs () =
  check_bytes "mov %r8,%r15" "4d89c7" (Insn.mov_rr Reg.R8 Reg.R15);
  check_bytes "mov (%r13),%rax" "498b4500" (Insn.mov_load (Insn.mem ~base:Reg.R13 0) Reg.RAX);
  check_bytes "mov (%r12),%rax" "498b0424" (Insn.mov_load (Insn.mem ~base:Reg.R12 0) Reg.RAX)

let enc_rsp_index_rejected () =
  Alcotest.check_raises "RSP index" (Encoder.Unsupported "RSP cannot be an index") (fun () ->
      ignore
        (Encoder.encode
           (Insn.mov_load (Insn.mem ~base:Reg.RAX ~index:(Reg.RSP, 2) 0) Reg.RBX)))

(* ------------------------------------------------------------------ *)
(* Decoder: metadata and canonical decode                              *)
(* ------------------------------------------------------------------ *)

let of_hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let decode_exn bytes =
  match Decoder.decode_one bytes ~pos:0 with
  | Ok d -> d
  | Error e -> Alcotest.failf "decode failed: %s" (Decoder.error_to_string e)

let dec_canary_metadata () =
  let d = decode_exn (of_hex "64488b042528000000") in
  Alcotest.(check int) "len" 9 d.Decoder.meta.len;
  Alcotest.(check int) "prefix bytes" 2 d.Decoder.meta.n_prefix;
  Alcotest.(check int) "opcode bytes" 1 d.Decoder.meta.n_opcode;
  Alcotest.(check int) "disp bytes" 4 d.Decoder.meta.n_disp;
  Alcotest.(check bool) "is canary load" true
    (Insn.equal d.Decoder.insn (Insn.mov_fs_canary Reg.RAX))

let dec_jcc_rel8 () =
  (* 75 fe = jne .-2 : short form decodes to the same IR as rel32. *)
  let d = decode_exn (of_hex "75fe") in
  Alcotest.(check bool) "jne -2" true (Insn.equal d.Decoder.insn (Insn.jcc Insn.NE (-2)))

let dec_jmp_rel8 () =
  let d = decode_exn (of_hex "eb10") in
  Alcotest.(check bool) "jmp +16" true (Insn.equal d.Decoder.insn (Insn.jmp 16))

let dec_truncated () =
  (match Decoder.decode_one (of_hex "48") ~pos:0 with
  | Error (Decoder.Truncated _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Truncated");
  match Decoder.decode_one (of_hex "e801") ~pos:0 with
  | Error (Decoder.Truncated _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Truncated imm"

let dec_unknown_opcode () =
  match Decoder.decode_one (of_hex "f4") ~pos:0 (* hlt: not user-mode enclave code *) with
  | Error (Decoder.Unknown_opcode (0, 0xf4)) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Unknown_opcode"

let dec_all_stops_at_bad_byte () =
  let bytes = Encoder.encode Insn.ret ^ of_hex "f4" in
  match Decoder.decode_all bytes with
  | Error (Decoder.Unknown_opcode (1, 0xf4)) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected failure at offset 1"

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                               *)
(* ------------------------------------------------------------------ *)

let gen_reg = QCheck.Gen.oneofl Reg.all
let gen_reg_no_rsp = QCheck.Gen.oneofl (List.filter (fun r -> r <> Reg.RSP) Reg.all)
let gen_width = QCheck.Gen.oneofl [ Insn.W32; Insn.W64 ]
let gen_disp = QCheck.Gen.oneofl [ 0; 1; -1; 8; 0x28; 127; -128; 128; 0x1000; -0x1000; 0x7fffffff ]
let gen_imm = QCheck.Gen.oneofl [ 0; 1; -1; 127; -128; 128; 0x1ff8; 0x12345678; -0x10000 ]

let gen_mem =
  QCheck.Gen.(
    let* base = opt gen_reg in
    let* index =
      opt
        (let* r = gen_reg_no_rsp in
         let* s = oneofl [ 1; 2; 4; 8 ] in
         return (r, s))
    in
    let* disp = gen_disp in
    return (Insn.mem ?base ?index disp))

let gen_insn =
  QCheck.Gen.(
    oneof
      [
        (let* r = gen_reg and* i = gen_imm in return (Insn.mov_ri r i));
        (let* w = gen_width and* a = gen_reg and* b = gen_reg in return (Insn.mov_rr ~w a b));
        (let* w = gen_width and* m = gen_mem and* r = gen_reg in return (Insn.mov_load ~w m r));
        (let* w = gen_width and* m = gen_mem and* r = gen_reg in return (Insn.mov_store ~w r m));
        (let* r = gen_reg in return (Insn.mov_fs_canary r));
        (let* r = gen_reg and* d = gen_disp in return (Insn.lea_rip r d));
        (let* w = gen_width
         and* op = oneofl [ Insn.add_rr; Insn.sub_rr; Insn.and_rr; Insn.or_rr; Insn.xor_rr; Insn.cmp_rr; Insn.test_rr ]
         and* a = gen_reg
         and* b = gen_reg in
         return (op ~w a b));
        (let* op = oneofl [ Insn.add_ri; Insn.sub_ri; Insn.and_ri; Insn.cmp_ri ]
         and* r = gen_reg
         and* i = gen_imm in
         return (op r i));
        (let* a = gen_reg and* b = gen_reg in return (Insn.imul_rr a b));
        (let* op = oneofl [ Insn.shl_ri; Insn.shr_ri ] and* r = gen_reg and* i = int_range 0 63 in
         return (op r i));
        (let* r = gen_reg in return (Insn.push r));
        (let* r = gen_reg in return (Insn.pop r));
        (let* d = gen_disp in return (Insn.call d));
        (let* d = gen_disp in return (Insn.jmp d));
        (let* c = oneofl Insn.[ E; NE; L; LE; G; GE; B; BE; A; AE; S; NS ] and* d = gen_disp in
         return (Insn.jcc c d));
        (let* r = gen_reg in return (Insn.call_ind r));
        (let* r = gen_reg in return (Insn.jmp_ind r));
        return Insn.ret;
        return Insn.nop;
        return Insn.nopl;
        return Insn.ud2;
      ])

let arb_insn = QCheck.make ~print:Insn.to_string gen_insn

let prop_roundtrip =
  QCheck.Test.make ~name:"decode(encode i) = i" ~count:2000 arb_insn (fun i ->
      let bytes = Encoder.encode i in
      match Decoder.decode_one bytes ~pos:0 with
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" (Decoder.error_to_string e)
      | Ok d ->
          if not (Insn.equal d.Decoder.insn i) then
            QCheck.Test.fail_reportf "got %s" (Insn.to_string d.Decoder.insn)
          else d.Decoder.meta.len = String.length bytes)

let prop_stream_roundtrip =
  QCheck.Test.make ~name:"decode_all over concatenated stream" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 50) arb_insn) (fun insns ->
      let bytes = String.concat "" (List.map Encoder.encode insns) in
      match Decoder.decode_all bytes with
      | Error e -> QCheck.Test.fail_reportf "decode_all error: %s" (Decoder.error_to_string e)
      | Ok ds ->
          Array.length ds = List.length insns
          && List.for_all2 (fun (d : Decoder.decoded) i -> Insn.equal d.insn i) (Array.to_list ds) insns)

let prop_length_consistent =
  QCheck.Test.make ~name:"meta fields sum to len" ~count:1000 arb_insn (fun i ->
      let bytes = Encoder.encode i in
      match Decoder.decode_one bytes ~pos:0 with
      | Error _ -> false
      | Ok d ->
          let m = d.Decoder.meta in
          (* prefix + opcode + (modrm/sib inferred) + disp + imm = len *)
          m.n_prefix + m.n_opcode + m.n_disp + m.n_imm <= m.len
          && m.len <= m.n_prefix + m.n_opcode + m.n_disp + m.n_imm + 2)

(* ------------------------------------------------------------------ *)
(* NaCl validation                                                     *)
(* ------------------------------------------------------------------ *)

let pad_to_bundle insns =
  (* Append single-byte nops so no instruction straddles a bundle. *)
  let buf = Buffer.create 256 in
  List.iter
    (fun i ->
      let b = Encoder.encode i in
      let pos = Buffer.length buf in
      let room = X86.Nacl.bundle_size - (pos mod X86.Nacl.bundle_size) in
      if String.length b > room then Buffer.add_string buf (String.make room '\x90');
      Buffer.add_string buf b)
    insns;
  Buffer.contents buf

let nacl_accepts_straightline () =
  let code =
    pad_to_bundle
      [ Insn.push Reg.RBP; Insn.mov_rr Reg.RSP Reg.RBP; Insn.mov_ri Reg.RAX 42;
        Insn.pop Reg.RBP; Insn.ret ]
  in
  match Nacl.validate code with
  | Ok insns -> Alcotest.(check bool) "decoded all" true (Array.length insns >= 5)
  | Error v -> Alcotest.failf "unexpected violation: %s" (Nacl.violation_to_string v)

let nacl_rejects_bundle_straddle () =
  (* 31 single-byte nops then a 2-byte instruction crossing offset 32. *)
  let code = String.make 31 '\x90' ^ Encoder.encode (Insn.xor_rr ~w:Insn.W32 Reg.RAX Reg.RAX) in
  match Nacl.validate code with
  | Error (Nacl.Bundle_overlap { off = 31; len = 2 }) -> ()
  | Ok _ -> Alcotest.fail "expected bundle violation"
  | Error v -> Alcotest.failf "wrong violation: %s" (Nacl.violation_to_string v)

let nacl_rejects_bad_branch_target () =
  (* call into the middle of the following 5-byte mov-imm. *)
  let code =
    Encoder.encode (Insn.call 2) ^ Encoder.encode (Insn.mov_ri Reg.RAX 1) ^ Encoder.encode Insn.ret
  in
  match Nacl.validate code with
  | Error (Nacl.Bad_branch_target { off = 0; target = 7 }) -> ()
  | Ok _ -> Alcotest.fail "expected target violation"
  | Error v -> Alcotest.failf "wrong violation: %s" (Nacl.violation_to_string v)

let nacl_rejects_unreachable () =
  (* ret; mov — dead non-nop code with no root pointing at it. *)
  let code = Encoder.encode Insn.ret ^ Encoder.encode (Insn.mov_ri Reg.RAX 1) in
  (match Nacl.validate code with
  | Error (Nacl.Unreachable { off = 1 }) -> ()
  | Ok _ -> Alcotest.fail "expected unreachable violation"
  | Error v -> Alcotest.failf "wrong violation: %s" (Nacl.violation_to_string v));
  (* Same code accepted when the mov is declared a root (function entry). *)
  (match Nacl.validate ~roots:[ 1 ] code with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "roots should fix it: %s" (Nacl.violation_to_string v));
  (* Unreachable nops are alignment padding and are tolerated. *)
  match Nacl.validate (Encoder.encode Insn.ret ^ Encoder.encode Insn.nop) with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "padding nop flagged: %s" (Nacl.violation_to_string v)

let nacl_reachability_through_branches () =
  (* jmp over a dead mov to a ret: island unreachable unless jcc used. *)
  let dead = Insn.mov_ri Reg.RAX 7 in
  let dead_len = String.length (Encoder.encode dead) in
  let code = Encoder.encode (Insn.jmp dead_len) ^ Encoder.encode dead ^ Encoder.encode Insn.ret in
  (match Nacl.validate code with
  | Error (Nacl.Unreachable { off = 5 }) -> ()
  | Ok _ -> Alcotest.fail "dead island should be unreachable"
  | Error v -> Alcotest.failf "wrong violation: %s" (Nacl.violation_to_string v));
  (* With a conditional jump both paths are live. *)
  let code = Encoder.encode (Insn.jcc Insn.NE 1) ^ Encoder.encode Insn.nop ^ Encoder.encode Insn.ret in
  match Nacl.validate code with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "jcc fallthrough: %s" (Nacl.violation_to_string v)

let nacl_decode_error_surfaces () =
  match Nacl.validate (Encoder.encode Insn.ret ^ "\xf4") with
  | Error (Nacl.Decode_error _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected decode error"

let prop_nacl_accepts_padded_streams =
  QCheck.Test.make ~name:"nacl accepts bundle-padded non-branch streams" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 60)
       (QCheck.make ~print:Insn.to_string
          QCheck.Gen.(
            oneof
              [
                (let* r = gen_reg and* i = gen_imm in return (Insn.mov_ri r i));
                (let* w = gen_width and* a = gen_reg and* b = gen_reg in
                 return (Insn.add_rr ~w a b));
                (let* r = gen_reg in return (Insn.push r));
                return Insn.nop;
              ])))
    (fun insns ->
      let code = pad_to_bundle (insns @ [ Insn.ret ]) in
      match Nacl.validate code with Ok _ -> true | Error _ -> false)

(* Fuzz: the decoder is total — random bytes produce Ok or Error, never
   an exception, and a reported length never overruns the input. *)
let prop_decoder_total_on_garbage =
  QCheck.Test.make ~name:"decoder total on random bytes" ~count:2000
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 40) QCheck.Gen.char) (fun s ->
      match Decoder.decode_one s ~pos:0 with
      | Ok d -> d.Decoder.meta.len > 0 && d.Decoder.meta.len <= String.length s
      | Error _ -> true)

let prop_decoder_total_at_any_offset =
  QCheck.Test.make ~name:"decoder total at any offset" ~count:1000
    (QCheck.pair
       (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 60) QCheck.Gen.char)
       QCheck.small_nat) (fun (s, pos) ->
      match Decoder.decode_one s ~pos with Ok _ | Error _ -> true)

let prop_nacl_total_on_garbage =
  QCheck.Test.make ~name:"nacl validation total on random bytes" ~count:500
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.char) (fun s ->
      match Nacl.validate s with Ok _ | Error _ -> true)

(* Truncation: any prefix of a valid instruction fails cleanly. *)
let prop_decoder_prefix_closed =
  QCheck.Test.make ~name:"prefixes of valid encodings fail cleanly" ~count:500 arb_insn
    (fun i ->
      let bytes = Encoder.encode i in
      let ok = ref true in
      for k = 0 to String.length bytes - 1 do
        match Decoder.decode_one (String.sub bytes 0 k) ~pos:0 with
        | Ok d -> if d.Decoder.meta.len > k then ok := false
        | Error _ -> ()
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The instruction table against the list-and-Hashtbl oracle           *)
(* ------------------------------------------------------------------ *)

module O = Disasm_oracle

let meta_tuple (m : Decoder.meta) = (m.len, m.n_prefix, m.n_opcode, m.n_disp, m.n_imm)
let oracle_meta (m : O.meta) = (m.O.len, m.O.n_prefix, m.O.n_opcode, m.O.n_disp, m.O.n_imm)

(* Address, instruction, length and meta of every record, in order. *)
let same_records what (got : Decoder.decoded array) expected =
  let got = Array.map (fun (d : Decoder.decoded) -> (d.addr, d.insn, d.len, meta_tuple d.meta)) got in
  if Array.length got <> Array.length expected then
    Alcotest.failf "%s: %d records, the oracle's %d" what (Array.length got) (Array.length expected);
  Array.iteri
    (fun i r -> if r <> expected.(i) then Alcotest.failf "%s: record %d differs from the oracle's" what i)
    got

let of_oracle ~base (ds : O.decoded list) =
  Array.of_list
    (List.map (fun (d : O.decoded) -> (base + d.O.off, d.O.insn, d.O.meta.O.len, oracle_meta d.O.meta)) ds)

(* The same records or the same exact error or violation. *)
let same_result what same got expected =
  match (got, expected) with
  | Ok g, Ok e -> same g e
  | Error g, Error e when g = e -> ()
  | _ -> Alcotest.failf "%s: one of the table and the oracle accepted, or their errors differ" what

let check_decode what ~base src =
  same_result (what ^ ": decode_all_src")
    (same_records (what ^ ": decode_all_src"))
    (Decoder.decode_all_src ~base src)
    (Result.map (of_oracle ~base) (O.decode_all_src src))

(* [lower_bound] and [index_of_addr] on every byte address of the text
   and one past each end, against a scan of the oracle's addresses and
   its table. *)
let same_lookups what ~base ~len ds index_of_addr table (addrs : int array) =
  let k = ref 0 in
  for a = base - 1 to base + len do
    while !k < Array.length addrs && addrs.(!k) < a do incr k done;
    if Decoder.lower_bound ds a <> !k then
      Alcotest.failf "%s: lower_bound 0x%x differs from the oracle's" what a;
    if index_of_addr a <> Hashtbl.find_opt table a then
      Alcotest.failf "%s: index_of_addr 0x%x differs from the oracle's" what a
  done

let check_validate what ~base ~roots ~check_reachability src =
  let got = Nacl.validate_src ~base ~roots ~check_reachability src in
  let expected = O.validate_src ~roots ~check_reachability src in
  same_result (what ^ ": validate_src") (same_records (what ^ ": validate_src")) got
    (Result.map (fun ds -> of_oracle ~base (Array.to_list ds)) expected);
  match (got, expected) with
  | Ok ds, Ok os ->
      let addrs = Array.map (fun (o : O.decoded) -> base + o.O.off) os in
      let table = Hashtbl.create 64 in
      Array.iteri (fun i a -> Hashtbl.replace table a i) addrs;
      same_lookups what ~base ~len:(Decoder.src_length src) ds (Decoder.index_of_addr ds) table addrs
  | _ -> ()

(* [Disasm.run_src] against the oracle's: records or violation, every
   modelled cycle and SGX instruction, and every lookup. *)
let check_run what ~base ~symbols src =
  let perf = Sgx.Perf.create () and operf = Sgx.Perf.create () in
  let got = Engarde.Disasm.run_src perf ~src ~base ~symbols in
  let expected = O.run_src operf ~src ~base ~symbols in
  let entries (es, _, _) =
    Array.map (fun (e : O.entry) -> (e.O.addr, e.O.insn, e.O.len, oracle_meta e.O.meta)) es
  in
  same_result (what ^ ": run_src")
    (fun (b, _) es -> same_records (what ^ ": run_src") b.Engarde.Disasm.entries es)
    got (Result.map entries expected);
  Alcotest.(check int) (what ^ ": cycles") (Sgx.Perf.total_cycles operf) (Sgx.Perf.total_cycles perf);
  Alcotest.(check int) (what ^ ": SGX instructions") (Sgx.Perf.sgx_instructions operf)
    (Sgx.Perf.sgx_instructions perf);
  match (got, expected) with
  | Ok (b, _), Ok (es, table, _) ->
      same_lookups what ~base ~len:(Decoder.src_length src) b.Engarde.Disasm.entries
        (Engarde.Disasm.index_of_addr b) table
        (Array.map (fun (e : O.entry) -> e.O.addr) es)
  | _ -> ()

let text_of (img : Toolchain.Linker.image) =
  match Elf64.Reader.parse img.Toolchain.Linker.elf with
  | Error e -> Alcotest.failf "parse: %s" (Elf64.Reader.error_to_string e)
  | Ok elf -> (List.hd (Elf64.Reader.text_sections elf), elf.Elf64.Reader.symbols)

let check_image what img =
  let text, symbols = text_of img in
  let src = Decoder.src_of_string text.Elf64.Reader.data in
  let base = text.Elf64.Reader.addr in
  check_decode what ~base src;
  check_run what ~base ~symbols src

let oracle_on_apps () =
  let module C = Toolchain.Codegen in
  List.iter
    (fun (vname, variant) ->
      List.iter
        (fun bench ->
          check_image
            (vname ^ " " ^ Toolchain.Workloads.to_string bench)
            (Toolchain.Linker.link (Toolchain.Workloads.build variant bench)))
        Toolchain.Workloads.all)
    [ ("plain", C.plain); ("stack", C.with_stack_protector); ("ifcc", C.with_ifcc);
      ("stack+ifcc", { C.stack_protector = true; ifcc = true }) ]

let oracle_on_fixtures () =
  List.iter
    (fun adv ->
      check_image (Toolchain.Workloads.adversarial_to_string adv)
        (Toolchain.Linker.link_adversarial adv))
    Toolchain.Workloads.adversarial_all

(* Byte mutations of stack+ifcc 429.mcf's text, roots and all: most
   break the decode or a NaCl rule somewhere, and the table must report
   exactly what the oracle reports. *)
let mcf_text =
  lazy
    (text_of
       (Toolchain.Linker.link
          (Toolchain.Workloads.build
             { Toolchain.Codegen.stack_protector = true; ifcc = true }
             Toolchain.Workloads.Mcf)))

let prop_oracle_mutations =
  QCheck.Test.make ~name:"table matches the oracle on mutated text" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) (QCheck.pair QCheck.int QCheck.char))
    (fun muts ->
      let text, symbols = Lazy.force mcf_text in
      let code = Bytes.of_string text.Elf64.Reader.data in
      List.iter (fun (pos, c) -> Bytes.set code (abs (pos mod Bytes.length code)) c) muts;
      let src = Decoder.src_of_string (Bytes.to_string code) in
      let base = text.Elf64.Reader.addr in
      check_decode "mutated" ~base src;
      check_run "mutated" ~base ~symbols src;
      true)

(* Random valid encodings, bundle-padded or not, at a random base with
   random roots (instruction starts or not), with and without the
   reachability rule. *)
let prop_oracle_streams =
  QCheck.Test.make ~name:"table matches the oracle on encoded streams" ~count:300
    QCheck.(
      quad (list_of_size (Gen.int_range 0 80) arb_insn) bool (list_of_size (Gen.int_range 0 6) small_nat)
        (pair (int_bound 0xffff) bool))
    (fun (insns, padded, roots, (page, check_reachability)) ->
      let code =
        if padded then pad_to_bundle insns else String.concat "" (List.map Encoder.encode insns)
      in
      let src = Decoder.src_of_string code and base = 0x400000 + (page * 0x1000) in
      check_decode "stream" ~base src;
      check_validate "stream" ~base ~roots ~check_reachability src;
      true)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "x86"
    [
      ( "encoder",
        [
          Alcotest.test_case "paper: canary load" `Quick enc_paper_canary_load;
          Alcotest.test_case "paper: canary store" `Quick enc_paper_canary_store;
          Alcotest.test_case "paper: canary cmp" `Quick enc_paper_canary_cmp;
          Alcotest.test_case "paper: ifcc and-mask" `Quick enc_paper_ifcc_mask;
          Alcotest.test_case "paper: ifcc lea" `Quick enc_paper_ifcc_lea;
          Alcotest.test_case "paper: ifcc sub32" `Quick enc_paper_ifcc_sub32;
          Alcotest.test_case "paper: ifcc add" `Quick enc_paper_ifcc_add;
          Alcotest.test_case "paper: ifcc indirect call" `Quick enc_paper_ifcc_call_ind;
          Alcotest.test_case "paper: jump table entry" `Quick enc_paper_jump_table_entry;
          Alcotest.test_case "basic forms" `Quick enc_basic_forms;
          Alcotest.test_case "extended registers" `Quick enc_extended_regs;
          Alcotest.test_case "rsp index rejected" `Quick enc_rsp_index_rejected;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "canary metadata" `Quick dec_canary_metadata;
          Alcotest.test_case "jcc rel8" `Quick dec_jcc_rel8;
          Alcotest.test_case "jmp rel8" `Quick dec_jmp_rel8;
          Alcotest.test_case "truncated" `Quick dec_truncated;
          Alcotest.test_case "unknown opcode" `Quick dec_unknown_opcode;
          Alcotest.test_case "decode_all stops" `Quick dec_all_stops_at_bad_byte;
        ]
        @ qsuite
            [ prop_roundtrip; prop_stream_roundtrip; prop_length_consistent;
              prop_decoder_total_on_garbage; prop_decoder_total_at_any_offset;
              prop_decoder_prefix_closed ] );
      ( "nacl",
        [
          Alcotest.test_case "accepts straightline" `Quick nacl_accepts_straightline;
          Alcotest.test_case "rejects bundle straddle" `Quick nacl_rejects_bundle_straddle;
          Alcotest.test_case "rejects bad branch target" `Quick nacl_rejects_bad_branch_target;
          Alcotest.test_case "rejects unreachable" `Quick nacl_rejects_unreachable;
          Alcotest.test_case "reachability through branches" `Quick nacl_reachability_through_branches;
          Alcotest.test_case "decode error surfaces" `Quick nacl_decode_error_surfaces;
        ]
        @ qsuite [ prop_nacl_accepts_padded_streams; prop_nacl_total_on_garbage ] );
      ( "oracle",
        [
          Alcotest.test_case "seven apps under four variants" `Slow oracle_on_apps;
          Alcotest.test_case "adversarial fixtures" `Quick oracle_on_fixtures;
        ]
        @ qsuite [ prop_oracle_mutations; prop_oracle_streams ] );
    ]
