(* The negotiated policy VM: canonical codec round-trips, decoder
   fuzzing (mutated blobs must error or terminate within fuel, never
   crash or over-charge), and the differential guarantee — the five
   builtin DSL programs reproduce the native modules' verdicts,
   findings and modelled cycles bit for bit, and both reproduce a
   checked-in golden table over every workload and fixture. *)

open Toolchain

let db = Libc.hash_db Libc.V1_0_5
let exempt = Libc.function_names

let context_of_elf elf =
  let analysis_perf = Sgx.Perf.create () in
  match Elf64.Reader.parse elf with
  | Error e -> Alcotest.failf "parse: %s" (Elf64.Reader.error_to_string e)
  | Ok elf -> (
      let text = List.hd (Elf64.Reader.text_sections elf) in
      match
        Engarde.Disasm.run (Sgx.Perf.create ()) ~code:text.Elf64.Reader.data
          ~base:text.Elf64.Reader.addr ~symbols:elf.Elf64.Reader.symbols
      with
      | Error v -> Alcotest.failf "disasm: %s" (X86.Nacl.violation_to_string v)
      | Ok (buffer, symbols) ->
          let perf = Sgx.Perf.create () in
          let cfg_perf = Sgx.Perf.create () in
          ( Engarde.Policy.context ~analysis_perf ~cfg_perf ~perf buffer symbols,
            perf,
            cfg_perf,
            analysis_perf ))

let context_of_image (img : Linker.image) = context_of_elf img.Linker.elf

let native_policies () =
  [
    Engarde.Policy_libc.make ~db ();
    Engarde.Policy_stack.make ~exempt ();
    Engarde.Policy_ifcc.make ();
    Engarde.Policy_lint.make ();
    Engarde.Policy_sanitize.make ();
  ]

let vm_policies vm_perf =
  List.map (fun (_, p) -> Policyvm.Vm.policy ~vm_perf p) (Policyvm.Builtin.all ~db ~exempt)

let show_verdict (name, v) = name ^ ": " ^ Engarde.Policy.verdict_to_string v

(* Run the native modules and the DSL programs over two fresh contexts
   of the same image and require identical results and identical
   modelled cycles on every counter. *)
let check_differential what img =
  let ctx_n, perf_n, cfg_n, an_n = context_of_image img in
  let ctx_v, perf_v, cfg_v, an_v = context_of_image img in
  let res_n = Engarde.Policy.run_all ctx_n (native_policies ()) in
  let vm_perf = Sgx.Perf.create () in
  let res_v = Engarde.Policy.run_all ctx_v (vm_policies vm_perf) in
  if res_n <> res_v then begin
    let dump res = String.concat "\n  " (List.map show_verdict res) in
    Alcotest.failf "%s: verdicts differ\nnative:\n  %s\nvm:\n  %s" what (dump res_n)
      (dump res_v)
  end;
  let pair p = (Sgx.Perf.native_cycles p, Sgx.Perf.sgx_instructions p) in
  Alcotest.(check (pair int int))
    (what ^ ": policy cycles") (pair perf_n) (pair perf_v);
  Alcotest.(check (pair int int)) (what ^ ": cfg cycles") (pair cfg_n) (pair cfg_v);
  Alcotest.(check (pair int int)) (what ^ ": analysis cycles") (pair an_n) (pair an_v);
  Alcotest.(check bool)
    (what ^ ": vm overhead metered") true
    (Sgx.Perf.native_cycles vm_perf > 0)

let differential_small () =
  check_differential "mcf/plain" (Linker.link (Workloads.build Codegen.plain Workloads.Mcf));
  check_differential "mcf/stack"
    (Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf));
  check_differential "mcf/ifcc"
    (Linker.link (Workloads.build Codegen.with_ifcc Workloads.Mcf));
  List.iter
    (fun adv ->
      check_differential
        ("adversarial/" ^ Workloads.adversarial_to_string adv)
        (Linker.link_adversarial adv))
    Workloads.adversarial_all

(* ------------------------------------------------------------------ *)
(* Golden table: the full native-vs-DSL sweep                          *)
(* ------------------------------------------------------------------ *)

(* Every fully instrumented (stack+ifcc) workload and every adversarial
   fixture, judged by the five builtins through the enclave's front half
   ([Provision.examine]). Per input: the context's policy cycles, its
   CFG cycles, and each non-compliant builtin with its finding count and
   the SHA-256 of its findings ([Service.Cache.findings_digest]); every
   builtin not listed is compliant. Recorded from the native modules and
   the DSL programs, which agreed bit for bit, before the service
   stopped running the DSL programs. *)
let golden =
  [
    ("nginx", 76857765, 6151027, []);
    ("401.bzip2", 9613108, 552330, []);
    ("graph-500", 19703863, 2350663, []);
    ("429.mcf", 5131581, 302255, []);
    ("memcached", 24014822, 1668745, []);
    ("netperf", 18877028, 1210766, []);
    ("otp-gen", 11447189, 643036, []);
    ("adv/jump-past-mask", 9545, 1594,
     [ ("indirect-function-calls", 1, "66e96e640cc84c07869f7daaab668b3715ead5c6214b10ad7d16f8edfdc7d7c2") ]);
    ("adv/early-ret", 30791, 1784,
     [ ("stack-protection", 1, "b58ad421883b19cd3730868ae87032ddef908a4c1021bcf3ec0360abe415c649") ]);
    ("adv/jump-into-mask", 9690, 1498, []);
    ("adv/tail-call-skip", 30268, 1836, []);
    ("adv/mask-in-callee", 9505, 1579,
     [ ("indirect-function-calls", 1, "ae083f1ba9f8ceceea764f448f76b0625859d04a975c9cde54c93de774a87887") ]);
    ("adv/unsanitized-entry", 9095, 1345,
     [ ("sanitize", 2, "d0d7008ed7b16a72c3c1ec015c8614c0f1f8ac6694de16d027685e7c6270395d") ]);
    ("adv/giant-16", 56375, 10037, []);
  ]

let golden_inputs =
  lazy
    (let both = { Codegen.stack_protector = true; ifcc = true } in
     List.map (fun b -> (Workloads.to_string b, Linker.link (Workloads.build both b))) Workloads.all
     @ List.map
         (fun adv -> ("adv/" ^ Workloads.adversarial_to_string adv, Linker.link_adversarial adv))
         Workloads.adversarial_all)

let check_golden engine policies =
  let inputs = Lazy.force golden_inputs in
  Alcotest.(check (list string))
    "golden inputs" (List.map (fun (l, _, _, _) -> l) golden) (List.map fst inputs);
  List.iter2
    (fun (label, policy_cycles, cfg_cycles, violations) (_, (img : Linker.image)) ->
      let what = engine ^ " " ^ label in
      let report = Engarde.Report.create () in
      match Engarde.Provision.examine report img.Linker.elf with
      | Error r -> Alcotest.failf "%s: %s" what (Engarde.Provision.rejection_to_string r)
      | Ok (_, ctx) ->
          let results = Engarde.Policy.run_all ctx (policies ()) in
          let bad =
            List.filter_map
              (fun (name, v) ->
                match v with
                | Engarde.Policy.Compliant -> None
                | Engarde.Policy.Violations fs ->
                    let digest = Service.Cache.findings_digest fs in
                    Some (name, List.length fs, Crypto.Sha256.hex digest))
              results
          in
          Alcotest.(check int) (what ^ ": five verdicts") 5 (List.length results);
          Alcotest.(check (list (triple string int string))) (what ^ ": findings") violations bad;
          Alcotest.(check int)
            (what ^ ": policy cycles") policy_cycles
            (Sgx.Perf.total_cycles report.Engarde.Report.policy);
          Alcotest.(check int)
            (what ^ ": cfg cycles") cfg_cycles (Sgx.Perf.total_cycles report.Engarde.Report.cfg))
    golden inputs

let golden_native () = check_golden "native" native_policies
let golden_dsl () = check_golden "DSL" (fun () -> vm_policies (Sgx.Perf.create ()))

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let builtin_programs () = Policyvm.Builtin.all ~db ~exempt

let roundtrip () =
  List.iter
    (fun (short, p) ->
      let blob = Policyvm.Encode.to_bytes p in
      match Policyvm.Encode.decode blob with
      | Error e -> Alcotest.failf "%s: decode failed: %s" short e
      | Ok p' ->
          Alcotest.(check bool) (short ^ ": roundtrip") true (p = p');
          Alcotest.(check string)
            (short ^ ": canonical")
            (Policyvm.Encode.digest_hex p) (Policyvm.Encode.digest_hex p'))
    (builtin_programs ())

let digests_distinct () =
  let ds = List.map (fun (_, p) -> Policyvm.Encode.digest_hex p) (builtin_programs ()) in
  Alcotest.(check int) "distinct" (List.length ds) (List.length (List.sort_uniq compare ds))

let reject_oversized () =
  let p = List.assoc "libc" (builtin_programs ()) in
  let too_big =
    { p with tables = [| List.init (Policyvm.Prog.max_table_entries + 1) (fun i -> (string_of_int i, "")) |] }
  in
  (match Policyvm.Encode.decode (Policyvm.Encode.to_bytes too_big) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized table accepted");
  match Policyvm.Encode.decode (Policyvm.Encode.to_bytes p ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

(* ------------------------------------------------------------------ *)
(* Negotiation: the digest round-trip                                  *)
(* ------------------------------------------------------------------ *)

let service_config =
  {
    Service.Scheduler.default_config with
    Service.Scheduler.workers = 1;
    audit = true;
    provision = Engarde.Provision.fast_config;
  }

(* One job end to end: the program-set digest the scheduler computes is
   the one the enclave measures, the client offers, the verdict
   carries, the audit leaf records, and the cache key folds in. *)
let negotiation_e2e () =
  let img = Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf) in
  let names = [ "libc"; "stack" ] in
  let t = Service.Scheduler.create service_config in
  let expected = Service.Scheduler.programs_digest t names in
  Alcotest.(check int) "digest is a SHA-256" 32 (String.length expected);
  (match
     Service.Scheduler.submit t
       { Service.Scheduler.client = "e2e"; payload = img.Linker.elf; policy_names = names }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit: %s" e);
  let v =
    match Service.Scheduler.run_until_idle t with
    | [ { Service.Scheduler.verdict = Ok v; _ } ] -> v
    | _ -> Alcotest.fail "expected one successful completion"
  in
  Alcotest.(check bool) "accepted" true v.Service.Cache.accepted;
  Alcotest.(check string)
    "verdict carries the negotiated digest" (Crypto.Sha256.hex expected)
    (Crypto.Sha256.hex v.Service.Cache.programs_digest);
  (* the digest is bound into the enclave measurement: replaying the
     build with it reproduces the judging measurement, without it the
     identity is a different enclave *)
  let pcfg digest =
    {
      Engarde.Provision.fast_config with
      Engarde.Provision.policy_names = names;
      policy_digest = digest;
    }
  in
  Alcotest.(check string)
    "measurement binds the digest"
    (Crypto.Sha256.hex (Engarde.Provision.expected_measurement (pcfg expected)))
    (Crypto.Sha256.hex v.Service.Cache.measurement);
  Alcotest.(check bool)
    "digest-free measurement differs" true
    (Engarde.Provision.expected_measurement (pcfg "") <> v.Service.Cache.measurement);
  (* the audit leaf records it *)
  (match Service.Scheduler.audit_log t with
  | None -> Alcotest.fail "audit log missing"
  | Some log -> (
      match Audit.Log.leaf log 0 with
      | Some leaf ->
          Alcotest.(check string)
            "audit leaf records the digest" (Crypto.Sha256.hex expected)
            (Crypto.Sha256.hex leaf.Audit.Log.programs_digest)
      | None -> Alcotest.fail "no audit leaf"));
  (* and the cache key separates program sets *)
  let key d =
    Service.Cache.key ~payload:img.Linker.elf ~policy_names:names
      ~libc_db_version:"1.0.5" ~programs_digest:d
  in
  Alcotest.(check bool) "cache key is digest-sensitive" true (key expected <> key "")

(* Every builtin negotiates as a native marker. The libc marker carries
   the SHA-256 of the reference hash database, so a database rollover
   changes the libc digest and, through it, the judging enclave's
   measurement; the other eight builtins' markers do not depend on it. *)
let libc_marker_binds_db () =
  let sched db = Service.Scheduler.create { service_config with Service.Scheduler.libc_db = db } in
  let v104 = sched Libc.V1_0_4 and v105 = sched Libc.V1_0_5 in
  let blob t name = List.assoc name (Service.Scheduler.program_set t [ name ]) in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ ": negotiates as a native marker") true
        (String.starts_with ~prefix:"EGNATIVE1\x00" (blob v105 name));
      Alcotest.(check bool)
        (name ^ ": digest moves with the database iff libc") (name = "libc")
        (Service.Scheduler.programs_digest v104 [ name ]
        <> Service.Scheduler.programs_digest v105 [ name ]))
    Service.Scheduler.known_policies;
  let judging t =
    Engarde.Provision.expected_measurement
      {
        Engarde.Provision.fast_config with
        Engarde.Provision.policy_names = [ "libc" ];
        policy_digest = Service.Scheduler.programs_digest t [ "libc" ];
      }
  in
  Alcotest.(check bool) "judging measurements differ" true (judging v104 <> judging v105)

(* An authentic sealed blob from the previous state format must be
   refused as stale, not silently reused under the new cache keying. *)
let stale_sealed_state () =
  let t = Service.Scheduler.create service_config in
  let device = Sgx.Quote.device_create ~seed:"policyvm-stale-state" in
  let measurement = Service.Scheduler.measurement t in
  let counter =
    Sgx.Quote.counter_read device ~id:(Service.Scheduler.state_counter_id t)
  in
  let v1_blob =
    Audit.Seal.seal
      ~key:(Sgx.Quote.seal_key device ~measurement)
      ~measurement ~counter "EGSTATE1"
  in
  match Service.Scheduler.load_state t ~device v1_blob with
  | Error (Audit.Seal.Stale { sealed = 1; current = 2 }) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Audit.Seal.error_to_string e)
  | Ok _ -> Alcotest.fail "v1 sealed state accepted"

(* ------------------------------------------------------------------ *)
(* Canary recognition                                                  *)
(* ------------------------------------------------------------------ *)

(* Every [mov %fs:0x28, %reg] of an image, rewritten in place to
   [mov %fs:0x28(,%rcx,8), %reg]: the same 9 bytes (fs prefix, REX.W,
   8b, ModRM with a SIB byte, SIB, disp32 0x28) but for the SIB, 0x25
   (no index, no base) -> 0xcd (index rcx, scale 8, no base). The
   rewritten load reads fs:0x28 + 8*rcx, not the canary. Returns the
   new bytes and the number of loads rewritten. *)
let index_canary_loads elf =
  let b = Bytes.of_string elf in
  let n = ref 0 in
  for i = 0 to Bytes.length b - 9 do
    let at k = Char.code (Bytes.get b (i + k)) in
    if
      at 0 = 0x64
      && (at 1 = 0x48 || at 1 = 0x4c)
      && at 2 = 0x8b
      && at 3 land 0xc7 = 0x04
      && at 4 = 0x25
      && at 5 = 0x28 && at 6 = 0 && at 7 = 0 && at 8 = 0
    then begin
      Bytes.set b (i + 4) '\xcd';
      incr n
    end
  done;
  (Bytes.to_string b, !n)

(* The stack policies accept stack-protected 429.mcf and must reject it
   once its canary loads are indexed: native [stack], [stack-pattern]
   and [stack-interproc], and the DSL [stack] program. *)
let indexed_canary_rejected () =
  let elf = (Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf)).Linker.elf in
  let flipped, n = index_canary_loads elf in
  Alcotest.(check int) "canary loads rewritten" 24 n;
  let native name () =
    match Service.Scheduler.policies_of_names ~db [ name ] with
    | Ok [ p ] -> p
    | _ -> Alcotest.failf "no builtin %s" name
  in
  let dsl () =
    Policyvm.Vm.policy ~vm_perf:(Sgx.Perf.create ()) (List.assoc "stack" (builtin_programs ()))
  in
  List.iter
    (fun (mode, make) ->
      let compliant elf =
        let ctx, _, _, _ = context_of_elf elf in
        (make ()).Engarde.Policy.check ctx = Engarde.Policy.Compliant
      in
      Alcotest.(check bool) (mode ^ " accepts the canary") true (compliant elf);
      Alcotest.(check bool) (mode ^ " rejects an indexed fs load") false (compliant flipped))
    [
      ("stack", native "stack");
      ("stack-pattern", native "stack-pattern");
      ("stack-interproc", native "stack-interproc");
      ("DSL stack", dsl);
    ]

(* ------------------------------------------------------------------ *)
(* Fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let flip_byte s pos delta =
  let b = Bytes.of_string s in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + (delta mod 255))));
  Bytes.to_string b

let builtin_blobs =
  lazy (List.map (fun (_, p) -> Policyvm.Encode.to_bytes p) (builtin_programs ()))

let tiny_ctx =
  lazy
    (let ctx, _, _, _ = context_of_image (Linker.link_adversarial Workloads.Jump_past_mask) in
     ctx)

(* A mutated blob must either be rejected by the decoder or, if the
   mutation lands in a spot that keeps the program well-formed, run to
   a fuel-bounded completion without raising and without charging more
   than the per-node ceiling allows. *)
let fuzz_decoder =
  QCheck.Test.make ~name:"mutated blobs: reject, or bounded charged run" ~count:400
    QCheck.(triple (int_bound 3) small_nat small_nat)
    (fun (which, pos, delta) ->
      let blob = List.nth (Lazy.force builtin_blobs) which in
      match Policyvm.Encode.decode (flip_byte blob pos delta) with
      | Error _ -> true
      | Ok p ->
          let ctx = Lazy.force tiny_ctx in
          let fuel = 200_000 in
          let before = Sgx.Perf.native_cycles ctx.Engarde.Policy.perf in
          let o = Policyvm.Vm.run ~fuel p ctx in
          let charged = Sgx.Perf.native_cycles ctx.Engarde.Policy.perf - before in
          let max_charge_per_node =
            Engarde.Costmodel.vm_charge_cap * Engarde.Costmodel.range_probe
          in
          o.Policyvm.Vm.vm_nodes <= fuel
          && charged <= o.Policyvm.Vm.vm_nodes * max_charge_per_node)

(* Mutating the inspected binary itself must never split the engines:
   whatever a byte flip does to the ELF, native modules and DSL
   programs still agree bit for bit (or the image fails to parse for
   both, which is the same front door). *)
let fuzz_differential =
  QCheck.Test.make ~name:"mutated binaries: DSL still equals native" ~count:60
    QCheck.(triple (int_bound 1) small_nat small_nat)
    (fun (which, pos, delta) ->
      let adv = List.nth Workloads.adversarial_all which in
      let img = Linker.link_adversarial adv in
      let elf = flip_byte img.Linker.elf pos delta in
      match Elf64.Reader.parse elf with
      | Error _ -> true
      | Ok parsed -> (
          match Elf64.Reader.text_sections parsed with
          | [] -> true
          | text :: _ -> (
              let mk () =
                match
                  Engarde.Disasm.run (Sgx.Perf.create ())
                    ~code:text.Elf64.Reader.data ~base:text.Elf64.Reader.addr
                    ~symbols:parsed.Elf64.Reader.symbols
                with
                | Error _ -> None
                | Ok (buffer, symbols) ->
                    let perf = Sgx.Perf.create () in
                    let cfg_perf = Sgx.Perf.create () in
                    Some
                      ( Engarde.Policy.context ~analysis_perf:(Sgx.Perf.create ())
                          ~cfg_perf ~perf buffer symbols,
                        perf,
                        cfg_perf )
              in
              match (mk (), mk ()) with
              | None, None -> true
              | Some (ctx_n, perf_n, cfg_n), Some (ctx_v, perf_v, cfg_v) ->
                  let res_n = Engarde.Policy.run_all ctx_n (native_policies ()) in
                  let res_v =
                    Engarde.Policy.run_all ctx_v (vm_policies (Sgx.Perf.create ()))
                  in
                  res_n = res_v
                  && Sgx.Perf.native_cycles perf_n = Sgx.Perf.native_cycles perf_v
                  && Sgx.Perf.native_cycles cfg_n = Sgx.Perf.native_cycles cfg_v
              | _ -> false)))

let tests =
  [
    ( "codec",
      [
        Alcotest.test_case "builtins round-trip canonically" `Quick roundtrip;
        Alcotest.test_case "program digests are distinct" `Quick digests_distinct;
        Alcotest.test_case "oversized and trailing input rejected" `Quick reject_oversized;
      ] );
    ( "differential",
      [
        Alcotest.test_case "DSL = native on mcf + adversarial" `Quick differential_small;
        Alcotest.test_case "native modules = golden table" `Quick golden_native;
        Alcotest.test_case "DSL programs = golden table" `Quick golden_dsl;
        Alcotest.test_case "indexed fs load is no canary" `Quick indexed_canary_rejected;
      ] );
    ( "negotiation",
      [
        Alcotest.test_case "digest round-trips measurement/leaf/key" `Quick
          negotiation_e2e;
        Alcotest.test_case "v1 sealed state is stale" `Quick stale_sealed_state;
        Alcotest.test_case "libc marker binds the hash database" `Quick libc_marker_binds_db;
      ] );
    ( "fuzz",
      List.map QCheck_alcotest.to_alcotest [ fuzz_decoder; fuzz_differential ] );
  ]

let () = Alcotest.run "policyvm" tests
