(* Audit subsystem tests: the RFC-6962 Merkle tree (Certificate
   Transparency known-answer vectors + exhaustive proof verification),
   the verdict transparency log with quote-signed checkpoints, sealed
   persistence with distinct rejection errors, byte-mutation fuzz over
   the untrusted decoders, and the end-to-end acceptance property —
   every completion of a mixed accept/reject batch proves into a
   checkpoint a client verifies offline with just the device public
   key, while forgery, truncation and rollback are each rejected with
   their own error. *)

open Toolchain

let hex = Crypto.Sha256.hex

(* ------------------------------------------------------------------ *)
(* Merkle tree                                                         *)
(* ------------------------------------------------------------------ *)

(* The Certificate Transparency reference leaves (RFC 6962 tree as
   tested by the Go CT implementation). *)
let ct_leaves =
  [
    "";
    "\x00";
    "\x10";
    "\x20\x21";
    "\x30\x31";
    "\x40\x41\x42\x43";
    "\x50\x51\x52\x53\x54\x55\x56\x57";
    "\x60\x61\x62\x63\x64\x65\x66\x67\x68\x69\x6a\x6b\x6c\x6d\x6e\x6f";
  ]

let merkle_known_answers () =
  let t = Audit.Merkle.create () in
  Alcotest.(check string) "empty root = SHA-256(\"\")"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Audit.Merkle.root t));
  List.iter (fun l -> ignore (Audit.Merkle.append t l)) ct_leaves;
  List.iter
    (fun (size, want) ->
      Alcotest.(check string) (Printf.sprintf "CT root at size %d" size) want
        (hex (Audit.Merkle.root_at t ~size)))
    [
      (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
      (2, "fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125");
      (3, "aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77");
      (8, "5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328");
    ]

let merkle_exhaustive () =
  let n = 48 in
  let data i = Printf.sprintf "leaf-%d" i in
  let t = Audit.Merkle.create () in
  for i = 0 to n - 1 do
    ignore (Audit.Merkle.append t (data i))
  done;
  for size = 1 to n do
    (* Incremental prefix root agrees with a tree built from scratch. *)
    let fresh = Audit.Merkle.create () in
    for i = 0 to size - 1 do
      ignore (Audit.Merkle.append fresh (data i))
    done;
    let root = Audit.Merkle.root_at t ~size in
    if root <> Audit.Merkle.root fresh then
      Alcotest.failf "root_at %d disagrees with a from-scratch tree" size;
    (* Every leaf of every prefix proves in; a forged leaf never does. *)
    for index = 0 to size - 1 do
      let proof = Audit.Merkle.inclusion_proof t ~index ~size in
      if not (Audit.Merkle.verify_inclusion ~root ~size ~index ~leaf:(data index) ~proof)
      then Alcotest.failf "inclusion %d/%d failed" index size;
      if Audit.Merkle.verify_inclusion ~root ~size ~index ~leaf:"forged" ~proof then
        Alcotest.failf "forged leaf accepted at %d/%d" index size
    done;
    (* Every prefix is consistent with every extension of it. *)
    for old_size = 1 to size do
      let proof = Audit.Merkle.consistency_proof t ~old_size ~size in
      let old_root = Audit.Merkle.root_at t ~size:old_size in
      if not (Audit.Merkle.verify_consistency ~old_root ~old_size ~root ~size ~proof) then
        Alcotest.failf "consistency %d -> %d failed" old_size size
    done
  done;
  (* A forked history (different leaf 0) is not consistent with ours. *)
  let f = Audit.Merkle.create () in
  ignore (Audit.Merkle.append f "not-leaf-0");
  for i = 1 to n - 1 do
    ignore (Audit.Merkle.append f (data i))
  done;
  let proof = Audit.Merkle.consistency_proof f ~old_size:17 ~size:n in
  Alcotest.(check bool) "forked history rejected" false
    (Audit.Merkle.verify_consistency
       ~old_root:(Audit.Merkle.root_at t ~size:17)
       ~old_size:17 ~root:(Audit.Merkle.root f) ~size:n ~proof)

(* ------------------------------------------------------------------ *)
(* Log: leaves, checkpoints, proofs, export                            *)
(* ------------------------------------------------------------------ *)

let mk_leaf i =
  {
    Audit.Log.key = Crypto.Sha256.digest (Printf.sprintf "content-%d" i);
    accepted = i mod 3 <> 0;
    findings_digest = Crypto.Sha256.digest (if i mod 3 = 0 then "findings" else "");
    measurement = Crypto.Sha256.digest "judging-enclave";
    programs_digest = Crypto.Sha256.digest "agreed-programs";
    instructions = 12903 + i;
    disassembly_cycles = 18_242_127 + i;
    policy_cycles = 123_895_553 + i;
    loading_cycles = 4363 + i;
  }

let leaf_round_trip () =
  let l = mk_leaf 0 in
  let bytes = Audit.Log.leaf_bytes l in
  (match Audit.Log.leaf_of_bytes bytes with
  | Some l' -> Alcotest.(check bool) "round-trips" true (l = l')
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "trailing garbage rejected" true
    (Audit.Log.leaf_of_bytes (bytes ^ "x") = None);
  Alcotest.(check bool) "truncation rejected" true
    (Audit.Log.leaf_of_bytes (String.sub bytes 0 (String.length bytes - 1)) = None);
  Alcotest.(check bool) "empty rejected" true (Audit.Log.leaf_of_bytes "" = None)

let device = lazy (Sgx.Quote.device_create ~seed:"audit-test-device")
let other_device = lazy (Sgx.Quote.device_create ~seed:"not-that-device")
let enclave_m = Crypto.Sha256.digest "judging-enclave"

let checkpoint_signing () =
  let log = Audit.Log.create () in
  for i = 0 to 9 do
    ignore (Audit.Log.append log (mk_leaf i))
  done;
  let device = Lazy.force device in
  let pub = Sgx.Quote.device_public device in
  let ckpt = Audit.Log.checkpoint log ~device ~measurement:enclave_m in
  Alcotest.(check bool) "verifies under the device key" true
    (Audit.Log.verify_checkpoint pub ckpt = Ok ());
  Alcotest.(check bool) "other device's key rejects it" true
    (Audit.Log.verify_checkpoint (Sgx.Quote.device_public (Lazy.force other_device)) ckpt
    = Error Audit.Log.Quote_invalid);
  let wrong_root = { ckpt with Audit.Log.ckpt_root = Crypto.Sha256.digest "evil" } in
  Alcotest.(check bool) "swapped root breaks the binding" true
    (Audit.Log.verify_checkpoint pub wrong_root = Error Audit.Log.Binding_mismatch);
  let wrong_size = { ckpt with Audit.Log.ckpt_size = 9 } in
  Alcotest.(check bool) "swapped size breaks the binding" true
    (Audit.Log.verify_checkpoint pub wrong_size = Error Audit.Log.Binding_mismatch);
  (match Audit.Log.checkpoint_of_bytes (Audit.Log.checkpoint_to_bytes ckpt) with
  | Some c -> Alcotest.(check bool) "checkpoint round-trips" true (c = ckpt)
  | None -> Alcotest.fail "checkpoint decode failed");
  Alcotest.(check bool) "garbage is not a checkpoint" true
    (Audit.Log.checkpoint_of_bytes "not a checkpoint" = None)

let log_proofs_and_errors () =
  let device = Lazy.force device in
  let pub = Sgx.Quote.device_public device in
  let log = Audit.Log.create () in
  for i = 0 to 7 do
    ignore (Audit.Log.append log (mk_leaf i))
  done;
  let ckpt8 = Audit.Log.checkpoint log ~device ~measurement:enclave_m in
  for i = 8 to 11 do
    ignore (Audit.Log.append log (mk_leaf i))
  done;
  let ckpt12 = Audit.Log.checkpoint log ~device ~measurement:enclave_m in
  (* Inclusion against the older checkpoint even after the log grew. *)
  let leaf3 = Option.get (Audit.Log.leaf log 3) in
  let proof = Audit.Log.prove_inclusion log ~index:3 ~size:8 in
  Alcotest.(check bool) "leaf 3 proves into the size-8 checkpoint" true
    (Audit.Log.verify_inclusion pub ckpt8 ~index:3 ~leaf:leaf3 ~proof = Ok ());
  let forged = { leaf3 with Audit.Log.accepted = not leaf3.Audit.Log.accepted } in
  Alcotest.(check bool) "forged leaf -> Proof_invalid" true
    (Audit.Log.verify_inclusion pub ckpt8 ~index:3 ~leaf:forged ~proof
    = Error Audit.Log.Proof_invalid);
  Alcotest.(check bool) "index beyond the checkpoint -> Out_of_range" true
    (Audit.Log.verify_inclusion pub ckpt8 ~index:9
       ~leaf:(Option.get (Audit.Log.leaf log 9))
       ~proof:(Audit.Log.prove_inclusion log ~index:9 ~size:12)
    = Error Audit.Log.Out_of_range);
  (* Growth between the two checkpoints is provably append-only. *)
  let cons = Audit.Log.prove_consistency log ~old_size:8 ~size:12 in
  Alcotest.(check bool) "checkpoints are consistent" true
    (Audit.Log.verify_consistency pub ~old_ckpt:ckpt8 ~new_ckpt:ckpt12 ~proof:cons = Ok ());
  Alcotest.(check bool) "shrunk log -> Inconsistent" true
    (Audit.Log.verify_consistency pub ~old_ckpt:ckpt12 ~new_ckpt:ckpt8 ~proof:cons
    = Error Audit.Log.Inconsistent);
  (* A log that rewrote history (leaf 5 changed) cannot connect an
     honest old checkpoint to its new head. *)
  let rewritten = Audit.Log.create () in
  for i = 0 to 11 do
    ignore (Audit.Log.append rewritten (mk_leaf (if i = 5 then 100 else i)))
  done;
  let ckpt12' = Audit.Log.checkpoint rewritten ~device ~measurement:enclave_m in
  Alcotest.(check bool) "rewritten history -> Inconsistent" true
    (Audit.Log.verify_consistency pub ~old_ckpt:ckpt8 ~new_ckpt:ckpt12'
       ~proof:(Audit.Log.prove_consistency rewritten ~old_size:8 ~size:12)
    = Error Audit.Log.Inconsistent);
  (* Export / import round-trips size, entries and root. *)
  (match Audit.Log.import (Audit.Log.export log) with
  | Some log' ->
      Alcotest.(check int) "imported size" 12 (Audit.Log.size log');
      Alcotest.(check string) "imported root" (hex (Audit.Log.root log))
        (hex (Audit.Log.root log'));
      Alcotest.(check bool) "imported leaves" true
        (Audit.Log.leaf log' 5 = Audit.Log.leaf log 5)
  | None -> Alcotest.fail "import failed");
  Alcotest.(check bool) "garbage is not a log" true (Audit.Log.import "garbage" = None);
  let export = Audit.Log.export log in
  Alcotest.(check bool) "truncated export rejected" true
    (Audit.Log.import (String.sub export 0 (String.length export - 3)) = None)

(* ------------------------------------------------------------------ *)
(* Sealing: the three bindings, three distinct errors                  *)
(* ------------------------------------------------------------------ *)

let seal_distinct_errors () =
  let device = Lazy.force device in
  let m1 = Crypto.Sha256.digest "enclave-one" in
  let m2 = Crypto.Sha256.digest "enclave-two" in
  let key = Sgx.Quote.seal_key device ~measurement:m1 in
  let blob = Audit.Seal.seal ~key ~measurement:m1 ~counter:3 "service state" in
  Alcotest.(check bool) "round-trips at the right counter" true
    (Audit.Seal.unseal ~key ~measurement:m1 ~counter:3 blob = Ok "service state");
  Alcotest.(check (option int)) "claims its counter" (Some 3)
    (Audit.Seal.sealed_counter blob);
  Alcotest.(check bool) "empty -> Truncated" true
    (Audit.Seal.unseal ~key ~measurement:m1 ~counter:3 "" = Error Audit.Seal.Truncated);
  Alcotest.(check bool) "short blob -> Truncated" true
    (Audit.Seal.unseal ~key ~measurement:m1 ~counter:3 (String.sub blob 0 40)
    = Error Audit.Seal.Truncated);
  Alcotest.(check bool) "length mismatch -> Truncated" true
    (Audit.Seal.unseal ~key ~measurement:m1 ~counter:3 (blob ^ "x")
    = Error Audit.Seal.Truncated);
  (* Sealed by a different enclave identity: detected by the clear
     header and reported as such, not as generic corruption. *)
  let key2 = Sgx.Quote.seal_key device ~measurement:m2 in
  let blob2 = Audit.Seal.seal ~key:key2 ~measurement:m2 ~counter:3 "other state" in
  Alcotest.(check bool) "cross-enclave replay -> Wrong_enclave" true
    (Audit.Seal.unseal ~key ~measurement:m1 ~counter:3 blob2
    = Error (Audit.Seal.Wrong_enclave { sealed = m2 }));
  (* Any modified byte — header, counter, ciphertext or tag — fails
     authentication. *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string blob in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      let r = Audit.Seal.unseal ~key ~measurement:m1 ~counter:3 (Bytes.to_string b) in
      if r <> Error Audit.Seal.Tampered then
        Alcotest.failf "flip at %d: expected Tampered" pos)
    [ 47; 56; String.length blob - 1 ];
  (* An authentic but old blob is rollback, not tampering. *)
  Alcotest.(check bool) "rollback -> Stale" true
    (Audit.Seal.unseal ~key ~measurement:m1 ~counter:4 blob
    = Error (Audit.Seal.Stale { sealed = 3; current = 4 }));
  (* Different counter epochs produce unrelated ciphertexts (fresh
     keystream), yet both unseal at their own counter. *)
  let blob4 = Audit.Seal.seal ~key ~measurement:m1 ~counter:4 "service state" in
  Alcotest.(check bool) "epochs do not share keystream" true
    (String.sub blob 56 8 <> String.sub blob4 56 8);
  Alcotest.(check bool) "next epoch unseals" true
    (Audit.Seal.unseal ~key ~measurement:m1 ~counter:4 blob4 = Ok "service state")

(* ------------------------------------------------------------------ *)
(* End to end: the service's log, checkpoint and sealed restart        *)
(* ------------------------------------------------------------------ *)

let fast_provision =
  { Engarde.Provision.fast_config with Engarde.Provision.seed = "audit-test-seed" }

let audited_config () =
  {
    Service.Scheduler.default_config with
    Service.Scheduler.workers = 2;
    queue_capacity = 16;
    cache = `Enabled 32;
    audit = true;
    provision = fast_provision;
  }

let mcf_plain = lazy (Linker.link (Workloads.build Codegen.plain Workloads.Mcf)).Linker.elf
let mcf_stack =
  lazy (Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf)).Linker.elf

let job ?(client = "tenant") ?(policies = [ "libc" ]) payload =
  { Service.Scheduler.client; payload; policy_names = policies }

let run_jobs t jobs =
  List.iter
    (fun j ->
      match Service.Scheduler.submit t j with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "submit refused: %s" why)
    jobs;
  Service.Scheduler.run_until_idle t

let end_to_end_transparency () =
  let plain = Lazy.force mcf_plain and stack = Lazy.force mcf_stack in
  let jobs =
    [
      job ~client:"a" plain;                           (* accept *)
      job ~client:"b" ~policies:[ "stack" ] plain;     (* reject: no canaries *)
      job ~client:"c" plain;                           (* duplicate of a: cache hit *)
      job ~client:"d" ~policies:[ "stack" ] stack;     (* accept *)
    ]
  in
  let t = Service.Scheduler.create (audited_config ()) in
  let completions = run_jobs t jobs in
  Alcotest.(check int) "all complete" 4 (List.length completions);
  Alcotest.(check bool) "the duplicate hit the cache" true
    (List.exists (fun (c : Service.Scheduler.completion) -> c.Service.Scheduler.cache_hit)
       completions);
  let log = Option.get (Service.Scheduler.audit_log t) in
  Alcotest.(check int) "every verdict left a leaf (cache hits included)" 4
    (Audit.Log.size log);
  let device = Lazy.force device in
  let pub = Sgx.Quote.device_public device in
  let ckpt = Option.get (Service.Scheduler.checkpoint t ~device) in
  Alcotest.(check bool) "checkpoint verifies" true
    (Audit.Log.verify_checkpoint pub ckpt = Ok ());
  (* The acceptance property: every completion's leaf proves into the
     quote-signed checkpoint with nothing but the device public key. *)
  for index = 0 to Audit.Log.size log - 1 do
    let leaf = Option.get (Audit.Log.leaf log index) in
    let proof = Audit.Log.prove_inclusion log ~index ~size:ckpt.Audit.Log.ckpt_size in
    if Audit.Log.verify_inclusion pub ckpt ~index ~leaf ~proof <> Ok () then
      Alcotest.failf "leaf %d does not prove into the checkpoint" index
  done;
  (* Each leaf records the measurement of the enclave that judged that
     job (template + the job's agreed policy set) — the same ones the
     completions reported to the clients. *)
  let leaf_ms =
    List.sort compare
      (List.init (Audit.Log.size log) (fun i ->
           (Option.get (Audit.Log.leaf log i)).Audit.Log.measurement))
  in
  let verdict_ms =
    List.sort compare
      (List.filter_map
         (fun (c : Service.Scheduler.completion) ->
           match c.Service.Scheduler.verdict with
           | Ok v -> Some v.Service.Cache.measurement
           | Error _ -> None)
         completions)
  in
  Alcotest.(check (list string)) "leaves bind the judging enclaves"
    (List.map hex verdict_ms) (List.map hex leaf_ms);
  let accepted_leaves = ref 0 in
  for index = 0 to Audit.Log.size log - 1 do
    if (Option.get (Audit.Log.leaf log index)).Audit.Log.accepted then incr accepted_leaves
  done;
  Alcotest.(check int) "3 accepts, 1 reject on the record" 3 !accepted_leaves;
  (* Forging any leaf field breaks its proof. *)
  let leaf0 = Option.get (Audit.Log.leaf log 0) in
  let proof0 = Audit.Log.prove_inclusion log ~index:0 ~size:ckpt.Audit.Log.ckpt_size in
  Alcotest.(check bool) "flipped verdict bit -> Proof_invalid" true
    (Audit.Log.verify_inclusion pub ckpt ~index:0
       ~leaf:{ leaf0 with Audit.Log.accepted = not leaf0.Audit.Log.accepted }
       ~proof:proof0
    = Error Audit.Log.Proof_invalid);
  Alcotest.(check bool) "substituted findings digest -> Proof_invalid" true
    (Audit.Log.verify_inclusion pub ckpt ~index:0
       ~leaf:{ leaf0 with Audit.Log.findings_digest = Crypto.Sha256.digest "clean" }
       ~proof:proof0
    = Error Audit.Log.Proof_invalid)

let sealed_warm_restart () =
  let plain = Lazy.force mcf_plain in
  let device = Sgx.Quote.device_create ~seed:"persist-test-device" in
  let cfg = audited_config () in
  let t1 = Service.Scheduler.create cfg in
  let first = run_jobs t1 [ job ~client:"a" plain; job ~client:"r" ~policies:[ "stack" ] plain ] in
  Alcotest.(check int) "two completions" 2 (List.length first);
  let original_reject =
    match
      List.find
        (fun (c : Service.Scheduler.completion) ->
          c.Service.Scheduler.job.Service.Scheduler.client = "r")
        first
    with
    | { Service.Scheduler.verdict = Ok v; _ } -> v
    | _ -> Alcotest.fail "reject job did not produce a verdict"
  in
  Alcotest.(check bool) "the reject verdict carries findings" true
    (original_reject.Service.Cache.findings <> []);
  let blob1 = Service.Scheduler.save_state t1 ~device in
  ignore (run_jobs t1 [ job ~client:"a2" plain ]);
  let blob2 = Service.Scheduler.save_state t1 ~device in
  Alcotest.(check int) "two sealing epochs on the counter" 2
    (Sgx.Quote.counter_read device ~id:(Service.Scheduler.state_counter_id t1));
  let saved_root = Audit.Log.root (Option.get (Service.Scheduler.audit_log t1)) in
  let saved_size = Audit.Log.size (Option.get (Service.Scheduler.audit_log t1)) in
  (* Rollback: yesterday's authentic blob is refused as Stale. *)
  let fresh () = Service.Scheduler.create cfg in
  Alcotest.(check bool) "stale blob -> Stale" true
    (Service.Scheduler.load_state (fresh ()) ~device blob1
    = Error (Audit.Seal.Stale { sealed = 1; current = 2 }));
  (* Tampering anywhere in the current blob is caught by the MAC. *)
  let b = Bytes.of_string blob2 in
  Bytes.set b (String.length blob2 / 2)
    (Char.chr (Char.code (Bytes.get b (String.length blob2 / 2)) lxor 0x40));
  Alcotest.(check bool) "tampered blob -> Tampered" true
    (Service.Scheduler.load_state (fresh ()) ~device (Bytes.to_string b)
    = Error Audit.Seal.Tampered);
  Alcotest.(check bool) "garbage -> Truncated" true
    (Service.Scheduler.load_state (fresh ()) ~device "EGSEAL1\x00 nope"
    = Error Audit.Seal.Truncated);
  (* A different enclave identity cannot open it — and the error says
     whose state it is rather than pretending corruption. *)
  let other_cfg =
    { cfg with Service.Scheduler.provision = { fast_provision with heap_pages = 256 } }
  in
  let t_other = Service.Scheduler.create other_cfg in
  Alcotest.(check bool) "identities actually differ" true
    (Service.Scheduler.measurement t_other <> Service.Scheduler.measurement t1);
  (match Service.Scheduler.load_state t_other ~device blob2 with
  | Error (Audit.Seal.Wrong_enclave { sealed }) ->
      Alcotest.(check string) "names the sealing enclave"
        (hex (Service.Scheduler.measurement t1))
        (hex sealed)
  | r ->
      Alcotest.failf "expected Wrong_enclave, got %s"
        (match r with
        | Ok _ -> "success"
        | Error e -> Audit.Seal.error_to_string e));
  (* The real warm restart: log and cache come back intact, a
     previously judged binary is answered from the cache with the very
     same structured findings, and the log keeps growing on top. *)
  let t2 = fresh () in
  (match Service.Scheduler.load_state t2 ~device blob2 with
  | Ok (log_n, cache_n) ->
      Alcotest.(check int) "all leaves restored" saved_size log_n;
      Alcotest.(check int) "both verdicts restored" 2 cache_n
  | Error e -> Alcotest.failf "warm restart refused: %s" (Audit.Seal.error_to_string e));
  let log2 = Option.get (Service.Scheduler.audit_log t2) in
  Alcotest.(check string) "restored log root" (hex saved_root) (hex (Audit.Log.root log2));
  (match run_jobs t2 [ job ~client:"r-again" ~policies:[ "stack" ] plain ] with
  | [ c ] -> (
      Alcotest.(check bool) "answered from the warmed cache" true
        c.Service.Scheduler.cache_hit;
      match c.Service.Scheduler.verdict with
      | Ok v ->
          Alcotest.(check bool) "identical structured findings" true
            (v.Service.Cache.findings = original_reject.Service.Cache.findings
            && v.Service.Cache.detail = original_reject.Service.Cache.detail)
      | Error f -> Alcotest.failf "failure: %s" (Service.Scheduler.failure_to_string f))
  | l -> Alcotest.failf "expected one completion, got %d" (List.length l));
  Alcotest.(check int) "the restored log grew" (saved_size + 1) (Audit.Log.size log2)

(* The state files under a crash at every write boundary of a save:
   before and after each rename, with the next file's [.tmp] absent,
   whole or torn. Each restart (a fresh device whose counter NVRAM is
   only what the sidecar restores, and a fresh scheduler) must be warm
   at N, warm at N+1, or — with no blob on disk yet — an announced cold
   start: never [Stale], never a rollback to N once the blob at N+1 is
   in place, and the restarted service must save and restart again. *)
let state_file_crash_consistency () =
  let cfg = audited_config () in
  let dir = "state-crash" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir "state" in
  let read file = In_channel.with_open_bin file In_channel.input_all in
  let write file data = Out_channel.with_open_bin file (fun oc -> output_string oc data) in
  let clear () = Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir) in
  let restart () =
    let device = Sgx.Quote.device_create ~seed:"crash-test-device" in
    let t = Service.Scheduler.create cfg in
    (device, t, Service.State_file.load t ~device path)
  in
  let leaves t = Audit.Log.size (Option.get (Service.Scheduler.audit_log t)) in
  let counter device t =
    Sgx.Quote.counter_read device ~id:(Service.Scheduler.state_counter_id t)
  in
  let warm = function
    | Ok (Service.State_file.Warm { counter; rolled_forward; log_leaves; _ }) ->
        Some (counter, rolled_forward, log_leaves)
    | Ok Service.State_file.Cold -> None
    | Error e -> Alcotest.failf "restart failed: %s" (Audit.Seal.error_to_string e)
  in
  (* The state at N = 1: one judged job, sealed once. Later jobs on the
     same payload are cache hits that still append a leaf. *)
  clear ();
  let device, t, _ = restart () in
  ignore (run_jobs t [ job ~client:"a" (Lazy.force mcf_plain) ]);
  Service.State_file.save t ~device path;
  let base = (read path, read (path ^ ".ctr")) in
  List.iter
    (fun first_save ->
      List.iter
        (fun (replaced, tmp) ->
          let what =
            Printf.sprintf "%s, %d file(s) replaced, %s .tmp"
              (if first_save then "first save" else "save over N")
              replaced
              (match tmp with `Absent -> "no" | `Whole -> "whole" | `Torn -> "torn")
          in
          clear ();
          if not first_save then begin
            write path (fst base);
            write (path ^ ".ctr") (snd base)
          end;
          let device, t, _ = restart () in
          let n = counter device t and leaves_n = leaves t in
          if not first_save then ignore (run_jobs t [ job ~client:"b" (Lazy.force mcf_plain) ]);
          (* The save at N+1, cut after [replaced] whole replacements. *)
          List.iteri
            (fun i (file, data) ->
              if i < replaced then Service.State_file.write_atomic file data
              else if i = replaced then
                match tmp with
                | `Absent -> ()
                | `Whole -> write (file ^ ".tmp") data
                | `Torn -> write (file ^ ".tmp") (String.sub data 0 (String.length data / 2)))
            (Service.State_file.writes t ~device path);
          let leaves_n1 = leaves t in
          let device, t, r = restart () in
          (match warm r with
          | None when first_save && replaced = 0 -> ()
          | Some got when replaced = 0 && not first_save ->
              Alcotest.(check (triple int bool int)) (what ^ ": warm at N") (n, false, leaves_n) got
          | Some got when replaced > 0 ->
              Alcotest.(check (triple int bool int))
                (what ^ ": warm at N+1") (n + 1, replaced = 1, leaves_n1) got
          | Some (c, _, l) -> Alcotest.failf "%s: warm start at %d (%d leaves)" what c l
          | None -> Alcotest.failf "%s: unannounced loss of state" what);
          Service.State_file.save t ~device path;
          let _, _, r = restart () in
          Alcotest.(check (option (triple int bool int)))
            (what ^ ": the next save restarts warm")
            (Some (counter device t, false, leaves t))
            (warm r);
          Alcotest.(check (list string))
            (what ^ ": no .tmp outlives a save") [ "state"; "state.ctr" ]
            (List.sort compare (Array.to_list (Sys.readdir dir))))
        ((2, `Absent)
        :: List.concat_map (fun k -> [ (k, `Absent); (k, `Whole); (k, `Torn) ]) [ 0; 1 ]))
    [ true; false ];
  (* Outside what a cut can leave: a blob behind its sidecar is a
     rollback and stays [Stale]; a missing blob is a cold start that
     still restores the sidecar's counter, so the next save cannot seal
     at a counter value already used. *)
  clear ();
  write path (fst base);
  write (path ^ ".ctr") "2";
  let _, _, r = restart () in
  Alcotest.(check bool) "blob behind its sidecar -> Stale" true
    (r = Error (Audit.Seal.Stale { sealed = 1; current = 2 }));
  Sys.remove path;
  let device, t, r = restart () in
  Alcotest.(check bool) "missing blob -> cold start" true (r = Ok Service.State_file.Cold);
  Alcotest.(check int) "the sidecar's counter survives a missing blob" 2 (counter device t);
  clear ();
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Fuzz: untrusted decoders never raise on mutated bytes               *)
(* ------------------------------------------------------------------ *)

let flip_byte s pos delta =
  let b = Bytes.of_string s in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + (delta mod 255))));
  Bytes.to_string b

let sample_verdict_bytes =
  Service.Cache.encode_verdict
    {
      Service.Cache.accepted = false;
      detail = "rejected: canary\tmissing";
      measurement = Crypto.Sha256.digest "m";
      programs_digest = Crypto.Sha256.digest "p";
      instructions = 12903;
      disassembly_cycles = 55;
      policy_cycles = 66;
      loading_cycles = 77;
      findings =
        [
          {
            Engarde.Policy.policy = "stack-protection";
            addr = 0x1040;
            code = "missing-stack-protector";
            message = "function f2";
          };
        ];
    }

let fuzz_decode_verdict =
  QCheck.Test.make ~name:"Cache.decode_verdict never raises on mutated bytes" ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (pos, delta) ->
      (* Any result is fine (a mutation can land in free text and stay
         decodable); an exception is the only failure. *)
      ignore (Service.Cache.decode_verdict (flip_byte sample_verdict_bytes pos delta));
      true)

let sample_quote =
  lazy
    (Sgx.Quote.quote_measured (Lazy.force device) ~measurement:enclave_m
       ~report_data:(Crypto.Sha256.digest "report"))

let fuzz_quote_of_bytes =
  QCheck.Test.make ~name:"Quote.of_bytes: mutated quotes decode to None or fail verify"
    ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (pos, delta) ->
      let pub = Sgx.Quote.device_public (Lazy.force device) in
      let bytes = Sgx.Quote.to_bytes (Lazy.force sample_quote) in
      match Sgx.Quote.of_bytes (flip_byte bytes pos delta) with
      | None -> true
      | Some q -> not (Sgx.Quote.verify pub q))

let fuzz_leaf_of_bytes =
  QCheck.Test.make ~name:"Log.leaf_of_bytes never raises on mutated bytes" ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (pos, delta) ->
      ignore (Audit.Log.leaf_of_bytes (flip_byte (Audit.Log.leaf_bytes (mk_leaf 1)) pos delta));
      true)

let () =
  Alcotest.run "audit"
    [
      ( "merkle",
        [
          Alcotest.test_case "CT known-answer vectors" `Quick merkle_known_answers;
          Alcotest.test_case "exhaustive proofs to 48 leaves" `Quick merkle_exhaustive;
        ] );
      ( "log",
        [
          Alcotest.test_case "leaf round-trip" `Quick leaf_round_trip;
          Alcotest.test_case "checkpoint signing and binding" `Quick checkpoint_signing;
          Alcotest.test_case "proofs, errors, export" `Quick log_proofs_and_errors;
        ] );
      ( "seal",
        [ Alcotest.test_case "three bindings, distinct errors" `Quick seal_distinct_errors ] );
      ( "service",
        [
          Alcotest.test_case "end-to-end verdict transparency" `Quick end_to_end_transparency;
          Alcotest.test_case "sealed warm restart and rollback" `Quick sealed_warm_restart;
          Alcotest.test_case "state files survive a cut at every write" `Quick
            state_file_crash_consistency;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ fuzz_decode_verdict; fuzz_quote_of_bytes; fuzz_leaf_of_bytes ] );
    ]
