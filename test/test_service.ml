(* Service-layer tests: job queue FIFO + backpressure, the
   content-addressed verdict cache (hit/miss/eviction, key
   sensitivity), the scheduler's one-round tick, timeout + retry on the
   next tick, batch determinism across worker counts, the
   cache-amortization acceptance criterion, and the multiplexed serve
   loop. *)

open Toolchain

let fast_provision =
  { Engarde.Provision.fast_config with Engarde.Provision.seed = "service-test-seed" }

let service_config ?(workers = 2) ?(cache = `Enabled 32) ?(queue = 16) () =
  {
    Service.Scheduler.default_config with
    Service.Scheduler.workers;
    queue_capacity = queue;
    cache;
    provision = fast_provision;
  }

let mcf_plain = lazy (Linker.link (Workloads.build Codegen.plain Workloads.Mcf)).Linker.elf
let mcf_stack =
  lazy (Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf)).Linker.elf

let job ?(client = "tenant") ?(policies = [ "libc" ]) payload =
  { Service.Scheduler.client; payload; policy_names = policies }

(* ------------------------------------------------------------------ *)
(* Queue                                                               *)
(* ------------------------------------------------------------------ *)

let queue_fifo_and_backpressure () =
  let q = Service.Queue.create ~capacity:4 in
  let results = List.map (fun i -> Service.Queue.submit q i) [ 1; 2; 3; 4; 5; 6 ] in
  List.iteri
    (fun i r ->
      let expected = if i < 4 then Ok () else Error `Queue_full in
      Alcotest.(check bool) (Printf.sprintf "submit %d" (i + 1)) true (r = expected))
    results;
  let order = List.filter_map (fun () -> Service.Queue.take q) [ (); (); (); () ] in
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4 ] order;
  Alcotest.(check bool) "drained" true (Service.Queue.take q = None);
  let s = Service.Queue.stats q in
  Alcotest.(check int) "submitted" 4 s.Service.Queue.submitted;
  Alcotest.(check int) "rejected" 2 s.Service.Queue.rejected;
  Alcotest.(check int) "peak depth" 4 s.Service.Queue.peak_depth;
  Alcotest.(check int) "capacity" 4 s.Service.Queue.capacity;
  Alcotest.(check int) "depth now" 0 s.Service.Queue.depth

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let dummy_verdict detail =
  {
    Service.Cache.accepted = true;
    detail;
    measurement = "m";
    programs_digest = "";
    instructions = 1;
    disassembly_cycles = 2;
    policy_cycles = 3;
    loading_cycles = 4;
    findings = [];
  }

let cache_hit_miss_eviction () =
  let c = Service.Cache.create ~capacity:2 in
  Alcotest.(check bool) "cold miss" true (Service.Cache.find c "k1" = None);
  Service.Cache.add c "k1" (dummy_verdict "v1");
  Service.Cache.add c "k2" (dummy_verdict "v2");
  (* Touch k1 so k2 becomes the LRU victim. *)
  Alcotest.(check bool) "hit k1" true (Service.Cache.find c "k1" <> None);
  Service.Cache.add c "k3" (dummy_verdict "v3");
  Alcotest.(check bool) "k2 evicted" false (Service.Cache.mem c "k2");
  Alcotest.(check bool) "k1 survives (recently used)" true (Service.Cache.mem c "k1");
  Alcotest.(check bool) "k3 present" true (Service.Cache.mem c "k3");
  let s = Service.Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Service.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Service.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Service.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Service.Cache.size;
  (* Re-inserting refreshes in place: no eviction, no growth. *)
  Service.Cache.add c "k3" (dummy_verdict "v3'");
  Alcotest.(check int) "size stable" 2 (Service.Cache.stats c).Service.Cache.size;
  Alcotest.(check (option string)) "value refreshed" (Some "v3'")
    (Option.map (fun v -> v.Service.Cache.detail) (Service.Cache.find c "k3"))

let cache_readd_no_spurious_eviction () =
  (* Re-adding a resident key must refresh it in place — an unrelated
     entry must NOT be evicted to make room for a key that already has
     a slot. *)
  let c = Service.Cache.create ~capacity:3 in
  Service.Cache.add c "k1" (dummy_verdict "v1");
  Service.Cache.add c "k2" (dummy_verdict "v2");
  Service.Cache.add c "k3" (dummy_verdict "v3");
  Service.Cache.add c "k2" (dummy_verdict "v2'");
  Alcotest.(check int) "no eviction on re-add" 0 (Service.Cache.stats c).Service.Cache.evictions;
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " still resident") true (Service.Cache.mem c k))
    [ "k1"; "k2"; "k3" ];
  Alcotest.(check int) "size unchanged" 3 (Service.Cache.stats c).Service.Cache.size;
  (* The re-add also counts as a touch: k1 (not k2) is now the LRU
     victim when a genuinely new key arrives. *)
  Service.Cache.add c "k4" (dummy_verdict "v4");
  Alcotest.(check bool) "k1 evicted as true LRU" false (Service.Cache.mem c "k1");
  Alcotest.(check bool) "k2 survives (refreshed)" true (Service.Cache.mem c "k2");
  Alcotest.(check bool) "k3 survives" true (Service.Cache.mem c "k3");
  Alcotest.(check (option string)) "refreshed value visible" (Some "v2'")
    (Option.map (fun v -> v.Service.Cache.detail) (Service.Cache.find c "k2"))

let cache_verdict_round_trip () =
  (* The serialized form survives hostile free text (tabs, newlines,
     non-ASCII) in every string field, findings included. *)
  let nasty = "line1\nline2\ttabbed \xc3\xa9" in
  let v =
    {
      Service.Cache.accepted = false;
      detail = "rejected: " ^ nasty;
      measurement = String.init 32 (fun i -> Char.chr i);
      programs_digest = String.init 32 (fun i -> Char.chr (31 - i));
      instructions = 12903;
      disassembly_cycles = 55;
      policy_cycles = 66;
      loading_cycles = 77;
      findings =
        [
          { Engarde.Policy.policy = "stack-protection"; addr = 0x1040;
            code = "missing-stack-protector"; message = "function f2 " ^ nasty };
          { Engarde.Policy.policy = "ifcc"; addr = 0x2000;
            code = "ifcc-unprotected-call"; message = "raw site" };
        ];
    }
  in
  (match Service.Cache.decode_verdict (Service.Cache.encode_verdict v) with
  | Some v' -> Alcotest.(check bool) "encode/decode round-trips" true (v = v')
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "garbage decodes to None" true
    (Service.Cache.decode_verdict "not a verdict" = None);
  (* And through the cache itself: what comes back is what went in. *)
  let c = Service.Cache.create ~capacity:2 in
  Service.Cache.add c "k" v;
  match Service.Cache.find c "k" with
  | Some v' ->
      Alcotest.(check int) "findings survive the cache" 2
        (List.length v'.Service.Cache.findings);
      Alcotest.(check bool) "value intact" true (v = v')
  | None -> Alcotest.fail "cache lost the entry"

let cache_key_sensitivity () =
  let key ~policy_names ~libc_db_version =
    Service.Cache.key ~payload:"ELF" ~policy_names ~libc_db_version ~programs_digest:"pd"
  in
  let base = key ~policy_names:[ "libc"; "stack" ] ~libc_db_version:"musl v1.0.5" in
  Alcotest.(check string) "policy order irrelevant" base
    (key ~policy_names:[ "stack"; "libc" ] ~libc_db_version:"musl v1.0.5");
  Alcotest.(check string) "duplicates irrelevant" base
    (key ~policy_names:[ "libc"; "stack"; "libc" ] ~libc_db_version:"musl v1.0.5");
  Alcotest.(check bool) "same ELF, different policy set must miss" true
    (base <> key ~policy_names:[ "libc" ] ~libc_db_version:"musl v1.0.5");
  Alcotest.(check bool) "different libc-db version must miss" true
    (base <> key ~policy_names:[ "libc"; "stack" ] ~libc_db_version:"musl v1.0.4");
  Alcotest.(check bool) "different program digest must miss" true
    (base
    <> Service.Cache.key ~payload:"ELF" ~policy_names:[ "libc"; "stack" ]
         ~libc_db_version:"musl v1.0.5" ~programs_digest:"pd2");
  Alcotest.(check bool) "different ELF must miss" true
    (base
    <> Service.Cache.key ~payload:"ELF2" ~policy_names:[ "libc"; "stack" ]
         ~libc_db_version:"musl v1.0.5" ~programs_digest:"pd")

(* ------------------------------------------------------------------ *)
(* Scheduler: admission                                                *)
(* ------------------------------------------------------------------ *)

let admission_control () =
  let t = Service.Scheduler.create (service_config ~workers:1 ~queue:2 ()) in
  (match Service.Scheduler.submit t (job ~policies:[ "libc"; "bogus" ] "x") with
  | Error why ->
      Alcotest.(check bool) "names the policy" true (Astring.String.is_infix ~affix:"bogus" why)
  | Ok _ -> Alcotest.fail "unknown policy admitted");
  let small_cfg =
    { (service_config ~workers:1 ()) with Service.Scheduler.max_payload_bytes = Some 8 }
  in
  let t2 = Service.Scheduler.create small_cfg in
  (match Service.Scheduler.submit t2 (job "123456789") with
  | Error why ->
      Alcotest.(check bool) "oversize rejected" true
        (Astring.String.is_infix ~affix:"admission limit" why)
  | Ok _ -> Alcotest.fail "oversized payload admitted");
  (* Backpressure: capacity 2, no ticks run, third submission bounces. *)
  let p = Lazy.force mcf_plain in
  Alcotest.(check bool) "job 1 admitted" true (Result.is_ok (Service.Scheduler.submit t (job p)));
  Alcotest.(check bool) "job 2 admitted" true (Result.is_ok (Service.Scheduler.submit t (job p)));
  (match Service.Scheduler.submit t (job p) with
  | Error why -> Alcotest.(check bool) "queue full" true (Astring.String.is_infix ~affix:"queue full" why)
  | Ok _ -> Alcotest.fail "backpressure did not engage");
  let done_ = Service.Scheduler.run_until_idle t in
  Alcotest.(check int) "both admitted jobs complete" 2 (List.length done_);
  List.iter
    (fun (c : Service.Scheduler.completion) ->
      match c.Service.Scheduler.verdict with
      | Ok v -> Alcotest.(check bool) "accepted" true v.Service.Cache.accepted
      | Error f -> Alcotest.failf "unexpected failure: %s" (Service.Scheduler.failure_to_string f))
    done_;
  let m = Service.Scheduler.metrics t in
  let jc = Service.Metrics.job_counts m in
  Alcotest.(check int) "metrics submitted" 2 jc.Service.Metrics.submitted;
  Alcotest.(check int) "metrics rejected (bogus + backpressure)" 2 jc.Service.Metrics.rejected;
  Alcotest.(check int) "metrics completed" 2 jc.Service.Metrics.completed;
  Alcotest.(check int) "second job was a cache hit" 1 jc.Service.Metrics.cache_hits

(* ------------------------------------------------------------------ *)
(* Scheduler: cache amortization (the acceptance criterion)            *)
(* ------------------------------------------------------------------ *)

let policy_disasm_cycles t =
  let p = Service.Metrics.phase_totals (Service.Scheduler.metrics t) in
  p.Service.Metrics.disassembly + p.Service.Metrics.policy

let batch_with cfg jobs =
  let t = Service.Scheduler.create cfg in
  List.iter
    (fun j ->
      match Service.Scheduler.submit t j with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "submit refused: %s" why)
    jobs;
  (Service.Scheduler.run_until_idle t, t)

let duplicate_heavy_amortization () =
  let p = Lazy.force mcf_plain in
  let jobs = List.init 6 (fun i -> job ~client:(Printf.sprintf "tenant-%d" i) p) in
  let cached, t_on = batch_with (service_config ~workers:2 ()) jobs in
  let uncached, t_off = batch_with (service_config ~workers:2 ~cache:`Disabled ()) jobs in
  Alcotest.(check int) "all complete (cached)" 6 (List.length cached);
  Alcotest.(check int) "all complete (uncached)" 6 (List.length uncached);
  let verdict (c : Service.Scheduler.completion) =
    match c.Service.Scheduler.verdict with
    | Ok v -> (v.Service.Cache.accepted, v.Service.Cache.detail, v.Service.Cache.measurement)
    | Error f -> Alcotest.failf "failure: %s" (Service.Scheduler.failure_to_string f)
  in
  (* Cached and uncached modes agree on every verdict. *)
  List.iter2
    (fun a b -> Alcotest.(check bool) "verdicts agree" true (verdict a = verdict b))
    cached uncached;
  let hits = List.length (List.filter (fun c -> c.Service.Scheduler.cache_hit) cached) in
  Alcotest.(check int) "2 workers x duplicate payload -> 4 hits" 4 hits;
  Alcotest.(check int) "uncached mode never hits" 0
    (List.length (List.filter (fun c -> c.Service.Scheduler.cache_hit) uncached));
  let on = policy_disasm_cycles t_on and off = policy_disasm_cycles t_off in
  Alcotest.(check bool)
    (Printf.sprintf ">=2x policy+disassembly reduction (on=%d off=%d)" on off)
    true
    (off >= 2 * on);
  (* Cache-hit completions do the inspection work zero more times: the
     stats agree with the completion flags. *)
  match Service.Scheduler.cache_stats t_on with
  | None -> Alcotest.fail "cache expected"
  | Some s ->
      Alcotest.(check int) "cache hits" 4 s.Service.Cache.hits;
      Alcotest.(check int) "cache misses" 2 s.Service.Cache.misses

(* ------------------------------------------------------------------ *)
(* Scheduler: determinism across worker counts                         *)
(* ------------------------------------------------------------------ *)

let batch_determinism () =
  let plain = Lazy.force mcf_plain and stack = Lazy.force mcf_stack in
  let jobs =
    [
      job ~client:"a" ~policies:[ "libc" ] plain;
      job ~client:"b" ~policies:[ "libc"; "stack" ] stack;
      job ~client:"c" ~policies:[ "stack" ] plain;  (* violation: no canaries *)
      job ~client:"d" ~policies:[ "libc" ] plain;   (* duplicate of a *)
    ]
  in
  let summary =
    List.map (fun (c : Service.Scheduler.completion) ->
        ( c.Service.Scheduler.seq,
          c.Service.Scheduler.job.Service.Scheduler.client,
          match c.Service.Scheduler.verdict with
          | Ok v -> (v.Service.Cache.accepted, v.Service.Cache.detail, v.Service.Cache.measurement)
          | Error f -> (false, Service.Scheduler.failure_to_string f, "") ))
  in
  let one =
    summary (Service.Scheduler.batch (Service.Scheduler.create (service_config ~workers:1 ())) jobs)
  in
  (* Four workers take all four jobs in one round, and one tick
     completes the round. *)
  let t = Service.Scheduler.create (service_config ~workers:4 ()) in
  List.iter (fun j -> ignore (Result.get_ok (Service.Scheduler.submit t j))) jobs;
  Service.Scheduler.tick t;
  Alcotest.(check bool) "idle after one tick of four workers" false (Service.Scheduler.busy t);
  let four = summary (Service.Scheduler.drain_completions t) in
  Alcotest.(check int) "4 completions" 4 (List.length one);
  Alcotest.(check bool) "same verdicts regardless of worker count" true (one = four);
  (* Spot-check the expected verdicts themselves. *)
  List.iter2
    (fun (_, client, (accepted, detail, _)) expect_ok ->
      Alcotest.(check bool) (client ^ " accepted?") expect_ok accepted;
      if not expect_ok then
        Alcotest.(check bool) "violation names the policy" true
          (Astring.String.is_infix ~affix:"stack" detail))
    one [ true; true; false; true ]

(* ------------------------------------------------------------------ *)
(* Scheduler: timeout and retry                                        *)
(* ------------------------------------------------------------------ *)

let timeout_fails_job () =
  let cfg =
    { (service_config ~workers:1 ()) with Service.Scheduler.timeout_cycles = Some 1 }
  in
  let t = Service.Scheduler.create cfg in
  (match Service.Scheduler.submit t (job (Lazy.force mcf_plain)) with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "submit refused: %s" why);
  match Service.Scheduler.run_until_idle t with
  | [ c ] -> (
      match c.Service.Scheduler.verdict with
      | Error (Service.Scheduler.Timed_out { attempts; cycles }) ->
          Alcotest.(check int) "one attempt" 1 attempts;
          Alcotest.(check bool) "cycles over budget" true (cycles > 1);
          (* A timed-out job must not poison the cache. *)
          (match Service.Scheduler.cache_stats t with
          | Some s -> Alcotest.(check int) "nothing cached" 0 s.Service.Cache.size
          | None -> Alcotest.fail "cache expected");
          Alcotest.(check int) "counted as failed" 1
            (Service.Metrics.job_counts (Service.Scheduler.metrics t)).Service.Metrics.failed
      | v ->
          Alcotest.failf "expected timeout, got %s"
            (match v with
            | Ok _ -> "a verdict"
            | Error f -> Service.Scheduler.failure_to_string f))
  | l -> Alcotest.failf "expected one completion, got %d" (List.length l)

let corrupt_first_block = function
  | Channel.Wire.Code_block { seq = 0; offset; ciphertext; tag = _ } ->
      Channel.Wire.Code_block { seq = 0; offset; ciphertext; tag = String.make 32 'x' }
  | m -> m

let retry_recovers_from_transient () =
  let cfg =
    {
      (service_config ~workers:1 ()) with
      Service.Scheduler.fault =
        (fun ~attempt _ -> if attempt = 1 then Some corrupt_first_block else None);
    }
  in
  let t = Service.Scheduler.create cfg in
  ignore (Result.get_ok (Service.Scheduler.submit t (job (Lazy.force mcf_plain))));
  (* The tampered attempt completes nothing; the retry runs on the very
     next tick and completes the job. *)
  Service.Scheduler.tick t;
  Alcotest.(check int) "nothing completes on the tampered tick" 0
    (List.length (Service.Scheduler.drain_completions t));
  Alcotest.(check bool) "the retry is pending" true (Service.Scheduler.busy t);
  Service.Scheduler.tick t;
  Alcotest.(check bool) "idle after the second tick" false (Service.Scheduler.busy t);
  (match Service.Scheduler.drain_completions t with
  | [ c ] -> (
      match c.Service.Scheduler.verdict with
      | Ok v ->
          Alcotest.(check bool) "accepted after retry" true v.Service.Cache.accepted;
          Alcotest.(check int) "two attempts" 2 c.Service.Scheduler.attempts
      | Error f -> Alcotest.failf "failure: %s" (Service.Scheduler.failure_to_string f))
  | l -> Alcotest.failf "expected one completion, got %d" (List.length l));
  Alcotest.(check int) "one retry counted" 1
    (Service.Metrics.job_counts (Service.Scheduler.metrics t)).Service.Metrics.retried

let retry_budget_exhausts () =
  let cfg =
    {
      (service_config ~workers:1 ()) with
      Service.Scheduler.fault = (fun ~attempt:_ _ -> Some corrupt_first_block);
    }
  in
  let t = Service.Scheduler.create cfg in
  ignore (Result.get_ok (Service.Scheduler.submit t (job (Lazy.force mcf_plain))));
  match Service.Scheduler.run_until_idle t with
  | [ c ] -> (
      match c.Service.Scheduler.verdict with
      | Error (Service.Scheduler.Channel_failure { attempts; last }) ->
          Alcotest.(check int) "1 try + 2 retries" 3 attempts;
          Alcotest.(check bool) "names the block" true
            (Astring.String.is_infix ~affix:"authentication" last)
      | v ->
          Alcotest.failf "expected channel failure, got %s"
            (match v with
            | Ok _ -> "a verdict"
            | Error f -> Service.Scheduler.failure_to_string f))
  | l -> Alcotest.failf "expected one completion, got %d" (List.length l)

(* Worker count must not change outcomes even when the mix includes a
   transiently failing job (its retry lands in a later round) and a
   job that exhausts the timeout budget. *)
let batch_determinism_with_failures () =
  let plain = Lazy.force mcf_plain in
  let flaky_payload =
    (Linker.link (Workloads.build ~seed:"flaky" Codegen.plain Workloads.Mcf)).Linker.elf
  in
  (* Slow job: the duplicate-heavy bzip2 under libc plus the paper's
     quadratic pattern-mode stack/ifcc baselines costs more than two
     whole attempts of the cheap mcf/libc job (whose latency is
     dominated by provisioning), so one timeout budget can separate
     them. *)
  let slow_payload =
    (Linker.link
       (Workloads.build { Codegen.stack_protector = true; ifcc = true } Workloads.Bzip2))
      .Linker.elf
  in
  (* Modelled cycles are deterministic, so probe runs give exact
     budgets: the timeout must catch the all-policies job but spare the
     cheap job even across its two attempts. *)
  let probe ?fault payload policies =
    let cfg =
      match fault with
      | None -> service_config ~workers:1 ()
      | Some f ->
          { (service_config ~workers:1 ()) with
            Service.Scheduler.fault = f }
    in
    match Service.Scheduler.batch (Service.Scheduler.create cfg) [ job ~policies payload ] with
    | [ { Service.Scheduler.verdict = Ok _; latency_cycles; _ } ] -> latency_cycles
    | _ -> Alcotest.fail "probe job did not complete"
  in
  let slow_cycles = probe slow_payload [ "libc"; "stack-pattern"; "ifcc-pattern" ] in
  let flaky_cycles =
    probe
      ~fault:(fun ~attempt _ -> if attempt = 1 then Some corrupt_first_block else None)
      flaky_payload [ "libc" ]
  in
  Alcotest.(check bool) "budget separates the jobs" true (flaky_cycles < slow_cycles - 1);
  let jobs =
    [
      job ~client:"cheap" plain;
      job ~client:"flaky" flaky_payload;
      job ~client:"slow" ~policies:[ "libc"; "stack-pattern"; "ifcc-pattern" ] slow_payload;
      job ~client:"cheap-again" plain;  (* duplicate: hit or re-run, same verdict *)
    ]
  in
  let run workers =
    let cfg =
      {
        (service_config ~workers ()) with
        Service.Scheduler.timeout_cycles = Some (slow_cycles - 1);
        fault =
          (fun ~attempt j ->
            if j.Service.Scheduler.client = "flaky" && attempt = 1 then
              Some corrupt_first_block
            else None);
      }
    in
    let completions, t = batch_with cfg jobs in
    let summary =
      List.map
        (fun (c : Service.Scheduler.completion) ->
          ( c.Service.Scheduler.seq,
            c.Service.Scheduler.job.Service.Scheduler.client,
            match c.Service.Scheduler.verdict with
            | Ok v ->
                (v.Service.Cache.accepted, v.Service.Cache.detail,
                 v.Service.Cache.measurement)
            | Error f -> (false, Service.Scheduler.failure_to_string f, "") ))
        completions
    in
    (summary, (Service.Metrics.job_counts (Service.Scheduler.metrics t)).Service.Metrics.retried)
  in
  let one, retried1 = run 1 in
  let two, retried2 = run 2 in
  let eight, retried8 = run 8 in
  Alcotest.(check int) "4 completions" 4 (List.length one);
  Alcotest.(check bool) "1 and 2 workers agree" true (one = two);
  Alcotest.(check bool) "1 and 8 workers agree" true (one = eight);
  Alcotest.(check (list int)) "exactly one retry at every worker count" [ 1; 1; 1 ]
    [ retried1; retried2; retried8 ];
  (* And the mix really exercised all three shapes. *)
  List.iter2
    (fun (_, client, (accepted, detail, _)) expect ->
      match expect with
      | `Ok -> Alcotest.(check bool) (client ^ " accepted") true accepted
      | `Timeout ->
          Alcotest.(check bool) (client ^ " timed out") true
            (Astring.String.is_infix ~affix:"timed out" detail && not accepted))
    one
    [ `Ok; `Ok; `Timeout; `Ok ]

(* The parallel scheduler's acceptance check: dispatching pipelines onto
   a domain pool overlaps wall-clock work but replays the exact
   modelled-cycle schedule, so the completion set — verdicts with their
   cycle counts, cache hit totals, retry counts and the audit log's
   Merkle root — must be bit-identical at domains 1 / 2 / 8, including
   the retry (flaky) and timeout (slow) jobs. *)
let parallel_matches_sequential () =
  let plain = Lazy.force mcf_plain in
  let flaky_payload =
    (Linker.link (Workloads.build ~seed:"flaky" Codegen.plain Workloads.Mcf)).Linker.elf
  in
  let slow_payload =
    (Linker.link
       (Workloads.build { Codegen.stack_protector = true; ifcc = true } Workloads.Bzip2))
      .Linker.elf
  in
  (* Modelled cycles are deterministic: one probe run gives the exact
     timeout budget that catches the slow job but spares the others
     (asserted below by the expected completion shapes). *)
  let slow_cycles =
    match
      Service.Scheduler.batch
        (Service.Scheduler.create (service_config ~workers:1 ()))
        [ job ~policies:[ "libc"; "stack-pattern"; "ifcc-pattern" ] slow_payload ]
    with
    | [ { Service.Scheduler.verdict = Ok _; latency_cycles; _ } ] -> latency_cycles
    | _ -> Alcotest.fail "probe job did not complete"
  in
  let jobs =
    [
      job ~client:"cheap" plain;
      job ~client:"flaky" flaky_payload;
      job ~client:"slow" ~policies:[ "libc"; "stack-pattern"; "ifcc-pattern" ] slow_payload;
      job ~client:"cheap-again" plain;  (* duplicate: hit or re-run, same verdict *)
    ]
  in
  let run domains =
    let base =
      {
        (service_config ~workers:8 ()) with
        Service.Scheduler.timeout_cycles = Some (slow_cycles - 1);
        audit = true;
        fault =
          (fun ~attempt j ->
            if j.Service.Scheduler.client = "flaky" && attempt = 1 then
              Some corrupt_first_block
            else None);
      }
    in
    let cfg, pool =
      if domains = 1 then (base, None)
      else
        let cfg, pool = Service.Scheduler.parallel_config ~config:base ~domains () in
        (cfg, Some pool)
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Service.Pool.shutdown pool)
      (fun () ->
        let completions, t = batch_with cfg jobs in
        let summary =
          List.map
            (fun (c : Service.Scheduler.completion) ->
              ( c.Service.Scheduler.seq,
                c.Service.Scheduler.job.Service.Scheduler.client,
                (c.Service.Scheduler.attempts, c.Service.Scheduler.cache_hit,
                 c.Service.Scheduler.latency_cycles),
                match c.Service.Scheduler.verdict with
                | Ok v ->
                    (v.Service.Cache.accepted, v.Service.Cache.detail,
                     v.Service.Cache.measurement)
                | Error f -> (false, Service.Scheduler.failure_to_string f, "") ))
            completions
        in
        let jc = Service.Metrics.job_counts (Service.Scheduler.metrics t) in
        let root =
          match Service.Scheduler.audit_log t with
          | Some log -> Audit.Log.root log
          | None -> Alcotest.fail "audit log missing with audit = true"
        in
        (summary, jc.Service.Metrics.retried, jc.Service.Metrics.cache_hits, root))
  in
  let seq = run 1 in
  let par2 = run 2 in
  let par8 = run 8 in
  let summary, retried, _, _ = seq in
  Alcotest.(check int) "4 completions" 4 (List.length summary);
  Alcotest.(check int) "the flaky job retried" 1 retried;
  Alcotest.(check bool)
    "domains 1 and 2 agree (verdicts, cycles, cache hits, retries, audit root)" true
    (seq = par2);
  Alcotest.(check bool) "domains 1 and 8 agree" true (seq = par8);
  (* And the mix really exercised retry, timeout and duplicate shapes. *)
  List.iter2
    (fun (_, client, _, (accepted, detail, _)) expect ->
      match expect with
      | `Ok -> Alcotest.(check bool) (client ^ " accepted") true accepted
      | `Timeout ->
          Alcotest.(check bool) (client ^ " timed out") true
            (Astring.String.is_infix ~affix:"timed out" detail && not accepted))
    summary
    [ `Ok; `Ok; `Timeout; `Ok ]

(* ------------------------------------------------------------------ *)
(* Serve: the multiplexed front door                                   *)
(* ------------------------------------------------------------------ *)

let serve_multiplexed () =
  let mux = Channel.Session.Mux.create () in
  let key c = String.make 32 c in
  let attach id keych =
    let client_ep, server_ep = Channel.Transport.pair () in
    Channel.Session.Mux.attach mux ~id ~key:(key keych) server_ep;
    (client_ep, Channel.Session.create ~key:(key keych))
  in
  let a_ep, a_sess = attach "alice" 'a' in
  let b_ep, b_sess = attach "bob" 'b' in
  let c_ep, c_sess = attach "carol" 'c' in
  let plain = Lazy.force mcf_plain in
  (* alice: compliant under libc; bob: plain binary judged under the
     stack policy -> rejected; carol: transfer corrupted in flight. *)
  List.iter (Channel.Transport.send a_ep) (Channel.Session.payload_messages a_sess plain);
  List.iter (Channel.Transport.send b_ep) (Channel.Session.payload_messages b_sess plain);
  List.iter
    (fun m -> Channel.Transport.send c_ep (corrupt_first_block m))
    (Channel.Session.payload_messages c_sess plain);
  let t = Service.Scheduler.create (service_config ~workers:2 ()) in
  let policies_for = function "bob" -> [ "stack" ] | _ -> [ "libc" ] in
  let completions = Service.Scheduler.serve t ~mux ~policies_for () in
  Alcotest.(check int) "two jobs reached the pipeline" 2 (List.length completions);
  let verdict_of ep =
    match Channel.Transport.drain ep with
    | [ Channel.Wire.Verdict { accepted; detail } ] -> (accepted, detail)
    | other -> Alcotest.failf "expected exactly one verdict, got %d messages" (List.length other)
  in
  let a_ok, a_detail = verdict_of a_ep in
  Alcotest.(check bool) ("alice accepted: " ^ a_detail) true a_ok;
  let b_ok, b_detail = verdict_of b_ep in
  Alcotest.(check bool) "bob rejected" false b_ok;
  Alcotest.(check bool) "bob told why" true
    (Astring.String.is_infix ~affix:"stack" b_detail);
  let c_ok, c_detail = verdict_of c_ep in
  Alcotest.(check bool) "carol rejected" false c_ok;
  Alcotest.(check bool) "carol told it was the transfer" true
    (Astring.String.is_infix ~affix:"transfer corrupt" c_detail)

(* ------------------------------------------------------------------ *)
(* Metrics rendering                                                   *)
(* ------------------------------------------------------------------ *)

let metrics_report_renders () =
  let p = Lazy.force mcf_plain in
  let t = Service.Scheduler.create (service_config ~workers:1 ()) in
  ignore (Result.get_ok (Service.Scheduler.submit t (job p)));
  ignore (Result.get_ok (Service.Scheduler.submit t (job p)));
  ignore (Service.Scheduler.run_until_idle t);
  let report = Service.Scheduler.report t in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("report mentions " ^ frag) true
        (Astring.String.is_infix ~affix:frag report))
    [
      "jobs_submitted_total 2";
      "jobs_completed_total 2";
      "pipeline_runs_total 1";
      "cache_hits_total 1";
      "cache_misses_total 1";
      "phase_cycles_total{phase=\"disassembly\"}";
      "job_latency_cycles_bucket{le=\"+Inf\"} 2";
      "queue_capacity 16";
    ]

let () =
  Alcotest.run "service"
    [
      ( "queue",
        [ Alcotest.test_case "FIFO order and backpressure" `Quick queue_fifo_and_backpressure ] );
      ( "cache",
        [
          Alcotest.test_case "hit, miss, LRU eviction" `Quick cache_hit_miss_eviction;
          Alcotest.test_case "re-add refreshes without spurious eviction" `Quick
            cache_readd_no_spurious_eviction;
          Alcotest.test_case "verdict round-trip" `Quick cache_verdict_round_trip;
          Alcotest.test_case "key sensitivity" `Quick cache_key_sensitivity;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "admission control" `Quick admission_control;
          Alcotest.test_case "duplicate-heavy cache amortization" `Quick
            duplicate_heavy_amortization;
          Alcotest.test_case "determinism across worker counts" `Quick batch_determinism;
          Alcotest.test_case "timeout fails the job" `Quick timeout_fails_job;
          Alcotest.test_case "retry recovers from transient failure" `Quick
            retry_recovers_from_transient;
          Alcotest.test_case "retry budget exhausts" `Quick retry_budget_exhausts;
          Alcotest.test_case "determinism with retries and timeouts" `Quick
            batch_determinism_with_failures;
          Alcotest.test_case "parallel matches sequential (domains 1/2/8)" `Quick
            parallel_matches_sequential;
        ] );
      ( "serve",
        [ Alcotest.test_case "multiplexed verdicts" `Quick serve_multiplexed ] );
      ( "metrics",
        [ Alcotest.test_case "report renders" `Quick metrics_report_renders ] );
    ]
