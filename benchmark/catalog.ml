(* Every metric the benchmark prints: name, unit, and which direction
   is better. BENCHMARK.json lists exactly these (the unit test checks
   it); a run prints the end-to-end set with tracing off and the
   per-layer set with tracing on. *)

type metric = { name : string; unit_ : string; better : Stats.better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  Stats.
    [
      m "setup_s" "s" Lower;
      m "jobs_per_s" "1/s" Higher;
      m "verdict_p50_s" "s" Lower;
      m "verdict_tail_s" "s" Lower;
      m "modelled_cycles_per_job" "cycles" Lower;
      m "answered_ratio" "ratio" Higher;
      m "peak_heap_mb" "MB" Lower;
    ]

let policy_names =
  [
    "libc"; "stack"; "ifcc"; "lint"; "sanitize"; "stack-pattern"; "ifcc-pattern";
    "stack-interproc"; "ifcc-interproc";
  ]

let modelled_phases =
  [ "disassembly"; "analysis"; "cfg"; "callgraph"; "summary"; "policy"; "loading"; "provisioning" ]

let per_layer =
  Stats.(
    [
      m "service.pipeline_s" "s" Lower;
      m "service.queue_wait_s" "s" Lower;
      m "service.cache_hit_ratio" "ratio" Higher;
      m "service.pipeline_runs" "count" Lower;
      m "service.cache_key_s" "s" Lower;
      m "service.cache_find_s" "s" Lower;
      m "service.traced_jobs_per_s" "1/s" Higher;
      m "audit.append_s" "s" Lower;
      m "audit.hashes_per_append" "count" Lower;
      m "audit.save_state_s" "s" Lower;
      m "audit.load_state_s" "s" Lower;
      m "provision.handshake_s" "s" Lower;
      m "provision.ingest_s" "s" Lower;
      m "provision.verdict_s" "s" Lower;
      m "channel.ttfpe_s" "s" Lower;
      m "channel.record_seal_MBps" "MB/s" Higher;
      m "channel.record_open_MBps" "MB/s" Higher;
      m "channel.legacy_block_MBps" "MB/s" Higher;
      m "channel.spec_adopted_ratio" "ratio" Higher;
      m "channel.resumed_ratio" "ratio" Higher;
      m "crypto.aes_ctr_MBps" "MB/s" Higher;
      m "crypto.sha256_MBps" "MB/s" Higher;
      m "crypto.rsa_keygen_s" "s" Lower;
      m "sgx.measure_s" "s" Lower;
      m "elf.parse_s" "s" Lower;
      m "disasm.run_s" "s" Lower;
      m "disasm.insns_per_s" "insn/s" Higher;
      m "analysis.index_s" "s" Lower;
      m "cfg.build_s" "s" Lower;
      m "callgraph.build_s" "s" Lower;
      m "summary.all_s" "s" Lower;
    ]
    @ List.map (fun p -> m ("policy." ^ p ^ "_s") "s" Lower) policy_names
    @ [ m "policyvm.overhead_ratio" "ratio" Lower ]
    @ List.map (fun p -> m ("modelled." ^ p ^ "_cycles") "cycles" Lower) modelled_phases
    @ [ m "ratio.disasm_cycles_per_ns" "cycles/ns" Higher; m "ratio.policy_cycles_per_ns" "cycles/ns" Higher ])

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
