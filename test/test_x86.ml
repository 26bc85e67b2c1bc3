(* x86 substrate tests: byte-exact encodings (including every sequence
   the paper quotes), encode/decode round-trip properties, decoder
   metadata, and NaCl validation rules. *)

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
          List.length ds = List.length insns
          && List.for_all2 (fun (d : Decoder.decoded) i -> Insn.equal d.insn i) ds insns)

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
    ]
