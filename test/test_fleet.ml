(* Fleet tests: MAGE identity derivation from midstate snapshots,
   pairwise mutual attestation, the quote-verified shared verdict
   cache (with re-verifiable import provenance), cross-fleet
   determinism against standalone schedulers, rogue-peer rejection
   with distinct errors and metrics, unresponsive-node quarantine with
   job failover, and the 0-RTT ticket-stash LRU bound. *)

open Toolchain
module Scheduler = Service.Scheduler

let fast_provision =
  { Engarde.Provision.fast_config with Engarde.Provision.seed = "fleet-test-seed" }

let node_config ?(workers = 1) () =
  {
    Scheduler.default_config with
    Scheduler.workers;
    queue_capacity = 32;
    cache = `Enabled 32;
    audit = true;
    provision = fast_provision;
  }

let fleet_config ?(nodes = 2) () =
  { Fleet.Coordinator.default_config with Fleet.Coordinator.nodes; node_config = node_config () }

let mcf_plain = lazy (Linker.link (Workloads.build Codegen.plain Workloads.Mcf)).Linker.elf
let mcf_stack =
  lazy (Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf)).Linker.elf

let job ?(client = "tenant") ?(policies = [ "libc" ]) payload =
  { Scheduler.client; payload; policy_names = policies }

let contains hay needle = Astring.String.is_infix ~affix:needle hay

(* ------------------------------------------------------------------ *)
(* MAGE identity derivation                                            *)
(* ------------------------------------------------------------------ *)

let mage_identities () =
  let sm = Crypto.Sha256.digest "service" in
  let m = Fleet.Manifest.build ~nodes:3 ~service_measurement:sm in
  (* Any member derives any peer's final identity from its own copy of
     the aux record — the whole point of MAGE: no third party. *)
  for j = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "derive peer %d" j)
      true
      (String.equal (Fleet.Manifest.derive_peer m ~peer:j) (Fleet.Manifest.identity m j))
  done;
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "identity %d is 32 bytes" i)
      32
      (String.length (Fleet.Manifest.identity m i));
    for j = i + 1 to 2 do
      Alcotest.(check bool)
        (Printf.sprintf "identities %d/%d distinct" i j)
        false
        (String.equal (Fleet.Manifest.identity m i) (Fleet.Manifest.identity m j))
    done
  done;
  (* The identity really is resume-from-midstate: replaying the final
     EGMAGE1 record over the published snapshot reproduces it. *)
  (match Sgx.Mage.derive ~snapshot:(Fleet.Manifest.pre_aux_snapshot m 1) ~aux:(Fleet.Manifest.aux m) with
  | Some id -> Alcotest.(check bool) "midstate replay" true (String.equal id (Fleet.Manifest.identity m 1))
  | None -> Alcotest.fail "snapshot failed to resume");
  (* The aux record round-trips and pins the snapshots exactly. *)
  (match Sgx.Mage.snapshots_of_aux (Fleet.Manifest.aux m) with
  | Some snaps ->
      Alcotest.(check int) "aux carries all members" 3 (List.length snaps);
      List.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "aux snapshot %d" i)
            true
            (String.equal s (Fleet.Manifest.pre_aux_snapshot m i)))
        snaps
  | None -> Alcotest.fail "aux record does not parse");
  Alcotest.(check bool) "garbage aux rejected" true (Sgx.Mage.snapshots_of_aux "garbage" = None);
  (* Group membership is measured: adding a member changes everyone. *)
  let m4 = Fleet.Manifest.build ~nodes:4 ~service_measurement:sm in
  Alcotest.(check bool)
    "identity binds the group roster" false
    (String.equal (Fleet.Manifest.identity m 0) (Fleet.Manifest.identity m4 0))

(* ------------------------------------------------------------------ *)
(* Mutual attestation                                                  *)
(* ------------------------------------------------------------------ *)

let handshake () =
  let t = Fleet.Coordinator.create (fleet_config ~nodes:3 ()) in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then
        Alcotest.(check bool)
          (Printf.sprintf "%d attests %d" i j)
          true
          (Fleet.Node.attested (Fleet.Coordinator.node t i) j)
    done
  done

(* ------------------------------------------------------------------ *)
(* Shared verdict cache                                                *)
(* ------------------------------------------------------------------ *)

let shared_verdicts () =
  let t = Fleet.Coordinator.create (fleet_config ~nodes:2 ()) in
  let j = job (Lazy.force mcf_plain) in
  (match Fleet.Coordinator.submit t ~node:0 j with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Fleet.Coordinator.run_until_idle t with
  | [ (0, c) ] ->
      Alcotest.(check bool) "first run is a real inspection" false c.Scheduler.cache_hit
  | _ -> Alcotest.fail "expected exactly one completion on node 0");
  (* Same binary, other node: the pushed verdict must answer it. *)
  (match Fleet.Coordinator.submit t ~node:1 j with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Fleet.Coordinator.run_until_idle t with
  | [ (1, c) ] ->
      Alcotest.(check bool) "second node hits the imported verdict" true c.Scheduler.cache_hit
  | _ -> Alcotest.fail "expected exactly one completion on node 1");
  let st = Fleet.Coordinator.stats t in
  Alcotest.(check int)
    "the fleet inspected the binary exactly once" 1
    (Array.fold_left (fun acc s -> acc + s.Fleet.Coordinator.pipeline_runs) 0 st);
  Alcotest.(check int) "node 1 imported" 1 st.(1).Fleet.Coordinator.imported;
  Alcotest.(check int) "node 1 cross-hit" 1 st.(1).Fleet.Coordinator.cross_hits;
  (* The import left a fully re-verifiable provenance trail. *)
  let n1 = Fleet.Coordinator.node t 1 in
  let key = Scheduler.job_key (Fleet.Node.scheduler n1) j in
  match Fleet.Node.provenance n1 key with
  | None -> Alcotest.fail "no provenance for the imported verdict"
  | Some ev ->
      Alcotest.(check int) "provenance names node 0" 0 ev.Fleet.Node.peer;
      let manifest = Fleet.Coordinator.manifest t in
      let identity = Fleet.Manifest.derive_peer manifest ~peer:0 in
      let pub = Fleet.Node.peer_public n1 0 in
      let v =
        match Scheduler.verdict_cache (Fleet.Node.scheduler n1) with
        | Some cache -> (
            match Service.Cache.find cache key with
            | Some v -> v
            | None -> Alcotest.fail "imported verdict not in cache")
        | None -> Alcotest.fail "cache disabled"
      in
      let findings_digest = Service.Cache.findings_digest v.Service.Cache.findings in
      (match
         Sgx.Mage.check_quote pub ~identity
           ~report_data:(Fleet.Manifest.verdict_binding ~key ~findings_digest)
           ev.Fleet.Node.quote
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("provenance quote: " ^ Sgx.Mage.quote_error_to_string e));
      let leaf =
        {
          Audit.Log.key;
          accepted = v.Service.Cache.accepted;
          findings_digest;
          measurement = v.Service.Cache.measurement;
          programs_digest = v.Service.Cache.programs_digest;
          instructions = v.Service.Cache.instructions;
          disassembly_cycles = v.Service.Cache.disassembly_cycles;
          policy_cycles = v.Service.Cache.policy_cycles;
          loading_cycles = v.Service.Cache.loading_cycles;
        }
      in
      (match
         Audit.Log.verify_remote_leaf pub ~identity ev.Fleet.Node.checkpoint
           ~index:ev.Fleet.Node.index ~leaf ~proof:ev.Fleet.Node.proof
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("provenance proof: " ^ Audit.Log.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Fleet-of-N determinism                                              *)
(* ------------------------------------------------------------------ *)

let fleet_determinism () =
  let cfg = fleet_config ~nodes:3 () in
  let t = Fleet.Coordinator.create cfg in
  let p1 = Lazy.force mcf_plain and p2 = Lazy.force mcf_stack in
  let jobs =
    [
      job p1;
      job ~policies:[ "libc"; "stack" ] p2;
      job ~client:"other" p1;
      job ~policies:[ "stack" ] p1;
      job ~client:"third" ~policies:[ "libc"; "stack" ] p2;
      job ~policies:[ "ifcc" ] p2;
    ]
  in
  let assigned =
    List.map
      (fun j ->
        match Fleet.Coordinator.submit t j with
        | Ok (n, _) -> (n, j)
        | Error e -> Alcotest.fail e)
      jobs
  in
  let comps = Fleet.Coordinator.run_until_idle t in
  Alcotest.(check int) "all jobs completed" (List.length jobs) (List.length comps);
  (* Every node's verdict stream and audit root must equal a standalone
     scheduler fed the same substream in the same order. *)
  for n = 0 to 2 do
    let sub = List.filter_map (fun (n', j) -> if n' = n then Some j else None) assigned in
    if sub <> [] then begin
      let solo = Scheduler.create cfg.Fleet.Coordinator.node_config in
      List.iter
        (fun j ->
          match Scheduler.submit solo j with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        sub;
      let solo_comps = Scheduler.run_until_idle solo in
      let fleet_comps =
        List.filter_map (fun (n', c) -> if n' = n then Some c else None) comps
        |> List.sort (fun a b -> compare a.Scheduler.seq b.Scheduler.seq)
      in
      List.iter2
        (fun (s : Scheduler.completion) (f : Scheduler.completion) ->
          match (s.Scheduler.verdict, f.Scheduler.verdict) with
          | Ok sv, Ok fv ->
              Alcotest.(check string)
                (Printf.sprintf "node %d verdict bytes" n)
                (Service.Cache.encode_verdict sv)
                (Service.Cache.encode_verdict fv);
              Alcotest.(check bool)
                (Printf.sprintf "node %d findings digest" n)
                true
                (String.equal
                   (Service.Cache.findings_digest sv.Service.Cache.findings)
                   (Service.Cache.findings_digest fv.Service.Cache.findings))
          | _ -> Alcotest.fail "unexpected failure verdict")
        solo_comps fleet_comps;
      let root s =
        match Scheduler.audit_log s with
        | Some log -> Audit.Log.root log
        | None -> Alcotest.fail "audit log missing"
      in
      Alcotest.(check bool)
        (Printf.sprintf "node %d audit root equals standalone" n)
        true
        (String.equal
           (root (Fleet.Node.scheduler (Fleet.Coordinator.node t n)))
           (root solo))
    end
  done

(* ------------------------------------------------------------------ *)
(* Rogue peers                                                         *)
(* ------------------------------------------------------------------ *)

(* A hand-built two-node fleet so the test holds the device keys and
   can forge / tamper protocol messages. *)
let manual_pair () =
  let cfg = node_config () in
  let sm = Engarde.Provision.expected_measurement cfg.Scheduler.provision in
  let manifest = Fleet.Manifest.build ~nodes:2 ~service_measurement:sm in
  let d0 = Sgx.Quote.device_create ~seed:"fleet-test/d0" in
  let d1 = Sgx.Quote.device_create ~seed:"fleet-test/d1" in
  let pubs = [| Sgx.Quote.device_public d0; Sgx.Quote.device_public d1 |] in
  let a =
    Fleet.Node.create ~manifest ~id:0 ~device:d0 ~peer_publics:pubs ~nonce_seed:"fleet-test/n0" cfg
  in
  let b =
    Fleet.Node.create ~manifest ~id:1 ~device:d1 ~peer_publics:pubs ~nonce_seed:"fleet-test/n1" cfg
  in
  Fleet.Node.connect a b;
  Fleet.Node.begin_handshake a;
  Fleet.Node.begin_handshake b;
  for _ = 1 to 4 do
    ignore (Fleet.Node.pump a);
    ignore (Fleet.Node.pump b)
  done;
  Alcotest.(check bool) "a attests b" true (Fleet.Node.attested a 1);
  Alcotest.(check bool) "b attests a" true (Fleet.Node.attested b 0);
  (manifest, a, b)

let count reason rejects =
  List.length (List.filter (fun (_, r) -> r = reason) rejects)

let rogue_peers () =
  let manifest, a, b = manual_pair () in
  (* Run one real inspection on b so it has a pushable verdict; do not
     pump a, so the test controls exactly what a sees. *)
  let j = job (Lazy.force mcf_plain) in
  (match Scheduler.submit (Fleet.Node.scheduler b) j with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  while Scheduler.busy (Fleet.Node.scheduler b) do
    ignore (Fleet.Node.pump b)
  done;
  let key = Scheduler.job_key (Fleet.Node.scheduler b) j in
  let valid =
    match Fleet.Node.push_for b ~key with
    | Some msg -> msg
    | None -> Alcotest.fail "node b has no pushable verdict"
  in
  let p_node, p_key, p_verdict, p_quote, p_checkpoint, p_index, p_proof =
    match valid with
    | Channel.Wire.Verdict_push { node; key; verdict; quote; checkpoint; index; proof } ->
        (node, key, verdict, quote, checkpoint, index, proof)
    | _ -> Alcotest.fail "push_for returned a non-push message"
  in
  let push ?key:(k = p_key) ?quote:(q = p_quote) ?index:(i = p_index) ?proof:(pr = p_proof) () =
    Channel.Wire.Verdict_push
      {
        node = p_node;
        key = k;
        verdict = p_verdict;
        quote = q;
        checkpoint = p_checkpoint;
        index = i;
        proof = pr;
      }
  in
  (* Baseline: the untampered push imports. *)
  Fleet.Node.handle_peer a ~peer:1 valid;
  Alcotest.(check int) "valid push imports" 1 (Fleet.Node.imported_count a);
  (* Replayed hello: same nonce twice -> second rejected. *)
  let hello = Channel.Wire.Peer_hello { node = 1; nonce = Crypto.Sha256.digest "replay-me" } in
  Fleet.Node.handle_peer a ~peer:1 hello;
  Fleet.Node.handle_peer a ~peer:1 hello;
  Alcotest.(check int) "replayed hello rejected once" 1
    (count Service.Metrics.Replay (Fleet.Node.rejections a));
  (* Binding mismatch: the quote signs a different verdict than the
     message carries (here: filed under a different key). *)
  Fleet.Node.handle_peer a ~peer:1 (push ~key:(Crypto.Sha256.digest "other-key") ());
  Alcotest.(check int) "binding mismatch rejected" 1
    (count Service.Metrics.Binding (Fleet.Node.rejections a));
  (* Checkpoint fails to prove inclusion: truthful quote, broken proof. *)
  Fleet.Node.handle_peer a ~peer:1 (push ~proof:[ String.make 32 '\000' ] ());
  Fleet.Node.handle_peer a ~peer:1 (push ~index:(p_index + 1000) ());
  Alcotest.(check int) "broken proofs rejected" 2
    (count Service.Metrics.Proof (Fleet.Node.rejections a));
  Alcotest.(check bool) "b still trusted after non-forgery rejects" true (Fleet.Node.attested a 1);
  (* Forged quote: signed by a rogue device, not b's pinned key. *)
  let rogue = Sgx.Quote.device_create ~seed:"fleet-test/rogue" in
  let findings_digest =
    match Service.Cache.decode_verdict p_verdict with
    | Some v -> Service.Cache.findings_digest v.Service.Cache.findings
    | None -> Alcotest.fail "valid push carries undecodable verdict"
  in
  let forged =
    Sgx.Quote.quote_measured rogue
      ~measurement:(Fleet.Manifest.derive_peer manifest ~peer:1)
      ~report_data:(Fleet.Manifest.verdict_binding ~key ~findings_digest)
  in
  Fleet.Node.handle_peer a ~peer:1 (push ~quote:(Sgx.Quote.to_bytes forged) ());
  Alcotest.(check int) "forged quote rejected" 1
    (count Service.Metrics.Quote (Fleet.Node.rejections a));
  Alcotest.(check bool) "forger quarantined" true (Fleet.Node.quarantined a 1);
  (* Nothing a quarantined peer says is imported, even a valid push. *)
  Fleet.Node.handle_peer a ~peer:1 valid;
  Alcotest.(check int) "quarantined push rejected" 1
    (count Service.Metrics.Quarantined (Fleet.Node.rejections a));
  Alcotest.(check int) "no further imports" 1 (Fleet.Node.imported_count a);
  (* Every rejection ticked its own metric. *)
  let report = Scheduler.report (Fleet.Node.scheduler a) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains report needle))
    [
      "fleet_rejected_replay_total 1";
      "fleet_rejected_binding_total 1";
      "fleet_rejected_proof_total 2";
      "fleet_rejected_quote_total 1";
      "fleet_rejected_quarantined_total 1";
      "fleet_verdicts_imported_total 1";
    ]

(* ------------------------------------------------------------------ *)
(* Quarantine failover                                                 *)
(* ------------------------------------------------------------------ *)

let quarantine_failover () =
  let cfg = { (fleet_config ~nodes:3 ()) with Fleet.Coordinator.quarantine_after = 10 } in
  let t = Fleet.Coordinator.create cfg in
  let jobs = [ job (Lazy.force mcf_plain); job ~policies:[ "stack" ] (Lazy.force mcf_stack) ] in
  List.iter
    (fun j ->
      match Fleet.Coordinator.submit t ~node:2 j with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    jobs;
  (* Node 2 hangs while holding both jobs. *)
  Fleet.Coordinator.fail_node t 2;
  let comps = Fleet.Coordinator.run_until_idle t in
  (match Fleet.Coordinator.quarantined t with
  | [ (2, _) ] -> ()
  | q -> Alcotest.fail (Printf.sprintf "expected node 2 quarantined, got %d entries" (List.length q)));
  Alcotest.(check int) "orphaned jobs completed by survivors" (List.length jobs)
    (List.length comps);
  List.iter
    (fun (n, (c : Scheduler.completion)) ->
      Alcotest.(check bool) "survivor node" true (n <> 2);
      match c.Scheduler.verdict with
      | Ok _ -> ()
      | Error f -> Alcotest.fail (Scheduler.failure_to_string f))
    comps;
  (* Routing never selects the quarantined node again. *)
  List.iter
    (fun j -> Alcotest.(check bool) "route avoids node 2" true (Fleet.Coordinator.route t j <> 2))
    jobs

(* ------------------------------------------------------------------ *)
(* Ticket-stash LRU bound                                              *)
(* ------------------------------------------------------------------ *)

let ticket_lru () =
  let cfg =
    { (node_config ()) with Scheduler.channel = `Streaming; ticket_capacity = 2 }
  in
  let s = Scheduler.create cfg in
  (* Three accepted streaming runs (only accepted runs leave tickets)
     with distinct clients: three distinct ticket keys, distinct cache
     keys (no hits), capacity two -> one eviction. *)
  List.iter
    (fun j ->
      match Scheduler.submit s j with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [
      job ~client:"c1" (Lazy.force mcf_plain);
      job ~client:"c2" ~policies:[ "stack" ] (Lazy.force mcf_stack);
      job ~client:"c3" ~policies:[ "libc"; "stack" ] (Lazy.force mcf_stack);
    ];
  ignore (Scheduler.run_until_idle s);
  Alcotest.(check int) "stash bounded by capacity" 2 (Scheduler.ticket_stash_size s);
  let report = Scheduler.report s in
  Alcotest.(check bool) "stash gauge" true (contains report "ticket_stash_size 2");
  Alcotest.(check bool) "eviction counter" true
    (contains report "ticket_stash_evictions_total 1")

let () =
  Alcotest.run "fleet"
    [
      ( "mage",
        [
          Alcotest.test_case "identity derivation" `Quick mage_identities;
          Alcotest.test_case "mutual attestation" `Quick handshake;
        ] );
      ( "verdict-exchange",
        [
          Alcotest.test_case "shared cache with provenance" `Quick shared_verdicts;
          Alcotest.test_case "fleet determinism" `Slow fleet_determinism;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "rogue peers" `Quick rogue_peers;
          Alcotest.test_case "quarantine failover" `Quick quarantine_failover;
        ] );
      ( "service",
        [
          Alcotest.test_case "ticket stash LRU" `Quick ticket_lru;
        ] );
    ]
