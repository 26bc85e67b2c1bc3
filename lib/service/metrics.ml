type job_counts = {
  submitted : int;
  rejected : int;
  completed : int;
  failed : int;
  retried : int;
  cache_hits : int;
}

type phase_totals = { disassembly : int; policy : int; loading : int; provisioning : int }

(* Roughly decade-spaced in modelled cycles: the fast benchmarks land in
   the 10^7-10^9 range, full-size nginx runs in the 10^9-10^10 range. *)
let latency_buckets =
  [| 1_000_000; 10_000_000; 100_000_000; 1_000_000_000; 10_000_000_000 |]

(* Every counter is an [Atomic.t]: the registry is written from the
   scheduler thread and may be read (rendered) from anywhere. Atomics
   make each sample individually coherent; [render] is a point-in-time
   snapshot, not a transaction across samples — the usual Prometheus
   contract. *)
type t = {
  submitted : int Atomic.t;
  rejected : int Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  retried : int Atomic.t;
  cache_hits : int Atomic.t;
  disassembly : int Atomic.t;
  policy : int Atomic.t;
  callgraph : int Atomic.t;
  summary : int Atomic.t;
  loading : int Atomic.t;
  provisioning : int Atomic.t;
  runs : int Atomic.t;          (* real pipeline executions, incl. retries *)
  buckets : int Atomic.t array; (* latency histogram; last slot is +Inf *)
  latency_sum : int Atomic.t;
  latency_count : int Atomic.t;
  queue_depth : int Atomic.t;
  queue_depth_peak : int Atomic.t;
  audit_appends : int Atomic.t;
  audit_checkpoints : int Atomic.t;
  audit_log_size : int Atomic.t;
  (* streaming-channel telemetry *)
  records_received : int Atomic.t;
  record_bytes : int Atomic.t;
  in_flight_peak : int Atomic.t;
  epoch_updates : int Atomic.t;
  handshakes : int Atomic.t;
  resumptions : int Atomic.t;
  resumption_fallbacks : int Atomic.t;
  (* 0-RTT ticket stash (scheduler-side LRU) *)
  ticket_stash_size : int Atomic.t;
  ticket_evictions : int Atomic.t;
  (* fleet peer protocol *)
  fleet_pushes : int Atomic.t;
  fleet_imports : int Atomic.t;
  fleet_rejected_quote : int Atomic.t;
  fleet_rejected_binding : int Atomic.t;
  fleet_rejected_proof : int Atomic.t;
  fleet_rejected_replay : int Atomic.t;
  fleet_rejected_quarantined : int Atomic.t;
  fleet_rejected_malformed : int Atomic.t;
}

let create () =
  {
    submitted = Atomic.make 0;
    rejected = Atomic.make 0;
    completed = Atomic.make 0;
    failed = Atomic.make 0;
    retried = Atomic.make 0;
    cache_hits = Atomic.make 0;
    disassembly = Atomic.make 0;
    policy = Atomic.make 0;
    callgraph = Atomic.make 0;
    summary = Atomic.make 0;
    loading = Atomic.make 0;
    provisioning = Atomic.make 0;
    runs = Atomic.make 0;
    buckets = Array.init (Array.length latency_buckets + 1) (fun _ -> Atomic.make 0);
    latency_sum = Atomic.make 0;
    latency_count = Atomic.make 0;
    queue_depth = Atomic.make 0;
    queue_depth_peak = Atomic.make 0;
    audit_appends = Atomic.make 0;
    audit_checkpoints = Atomic.make 0;
    audit_log_size = Atomic.make 0;
    records_received = Atomic.make 0;
    record_bytes = Atomic.make 0;
    in_flight_peak = Atomic.make 0;
    epoch_updates = Atomic.make 0;
    handshakes = Atomic.make 0;
    resumptions = Atomic.make 0;
    resumption_fallbacks = Atomic.make 0;
    ticket_stash_size = Atomic.make 0;
    ticket_evictions = Atomic.make 0;
    fleet_pushes = Atomic.make 0;
    fleet_imports = Atomic.make 0;
    fleet_rejected_quote = Atomic.make 0;
    fleet_rejected_binding = Atomic.make 0;
    fleet_rejected_proof = Atomic.make 0;
    fleet_rejected_replay = Atomic.make 0;
    fleet_rejected_quarantined = Atomic.make 0;
    fleet_rejected_malformed = Atomic.make 0;
  }

let incr c = ignore (Atomic.fetch_and_add c 1)
let addto c n = ignore (Atomic.fetch_and_add c n)

let job_submitted t = incr t.submitted
let job_rejected t = incr t.rejected

let job_completed t ~cache_hit =
  incr t.completed;
  if cache_hit then incr t.cache_hits

let job_failed t = incr t.failed
let job_retried t = incr t.retried

let observe_run t ~disassembly ~policy ~callgraph ~summary ~loading ~provisioning =
  addto t.disassembly disassembly;
  addto t.policy policy;
  addto t.callgraph callgraph;
  addto t.summary summary;
  addto t.loading loading;
  addto t.provisioning provisioning;
  incr t.runs

let observe_latency t ~cycles =
  let rec slot i =
    if i >= Array.length latency_buckets || cycles <= latency_buckets.(i) then i
    else slot (i + 1)
  in
  incr t.buckets.(slot 0);
  addto t.latency_sum cycles;
  incr t.latency_count

(* Monotone max via CAS: a concurrent larger peak never regresses. *)
let rec raise_peak c candidate =
  let seen = Atomic.get c in
  if candidate > seen && not (Atomic.compare_and_set c seen candidate) then
    raise_peak c candidate

let set_queue_depth t d =
  Atomic.set t.queue_depth d;
  raise_peak t.queue_depth_peak d

let audit_appended t ~log_size =
  incr t.audit_appends;
  Atomic.set t.audit_log_size log_size

let audit_checkpointed t = incr t.audit_checkpoints
let set_audit_log_size t n = Atomic.set t.audit_log_size n

(* One streaming transfer's worth of channel telemetry (see
   [Engarde.Provision.channel_stats]). Legacy-channel runs observe
   nothing here; full handshakes on the streaming channel count under
   [handshakes], 0-RTT rides under [resumptions], and a resumption that
   degraded to a full handshake counts under both [handshakes] and
   [resumption_fallbacks]. *)
let observe_channel t ~records ~bytes ~in_flight ~epoch_updates ~resumed ~fallback =
  addto t.records_received records;
  addto t.record_bytes bytes;
  raise_peak t.in_flight_peak in_flight;
  addto t.epoch_updates epoch_updates;
  if resumed then incr t.resumptions else incr t.handshakes;
  if fallback then incr t.resumption_fallbacks

let set_ticket_stash t n = Atomic.set t.ticket_stash_size n
let ticket_evicted t = incr t.ticket_evictions

type fleet_reject = Quote | Binding | Proof | Replay | Quarantined | Malformed

let fleet_reject_to_string = function
  | Quote -> "quote"
  | Binding -> "binding"
  | Proof -> "proof"
  | Replay -> "replay"
  | Quarantined -> "quarantined"
  | Malformed -> "malformed"

let fleet_pushed t = incr t.fleet_pushes
let fleet_imported t = incr t.fleet_imports

let fleet_rejected t = function
  | Quote -> incr t.fleet_rejected_quote
  | Binding -> incr t.fleet_rejected_binding
  | Proof -> incr t.fleet_rejected_proof
  | Replay -> incr t.fleet_rejected_replay
  | Quarantined -> incr t.fleet_rejected_quarantined
  | Malformed -> incr t.fleet_rejected_malformed

let fleet_rejections t =
  [
    (Quote, Atomic.get t.fleet_rejected_quote);
    (Binding, Atomic.get t.fleet_rejected_binding);
    (Proof, Atomic.get t.fleet_rejected_proof);
    (Replay, Atomic.get t.fleet_rejected_replay);
    (Quarantined, Atomic.get t.fleet_rejected_quarantined);
    (Malformed, Atomic.get t.fleet_rejected_malformed);
  ]

let job_counts t =
  {
    submitted = Atomic.get t.submitted;
    rejected = Atomic.get t.rejected;
    completed = Atomic.get t.completed;
    failed = Atomic.get t.failed;
    retried = Atomic.get t.retried;
    cache_hits = Atomic.get t.cache_hits;
  }

let phase_totals t =
  {
    disassembly = Atomic.get t.disassembly;
    policy = Atomic.get t.policy;
    loading = Atomic.get t.loading;
    provisioning = Atomic.get t.provisioning;
  }

let render t ~queue ~cache =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# engarde service metrics (cycles are modelled; see lib/sgx/perf.mli)";
  line "jobs_submitted_total %d" (Atomic.get t.submitted);
  line "jobs_rejected_total %d" (Atomic.get t.rejected);
  line "jobs_completed_total %d" (Atomic.get t.completed);
  line "jobs_failed_total %d" (Atomic.get t.failed);
  line "jobs_retried_total %d" (Atomic.get t.retried);
  line "pipeline_runs_total %d" (Atomic.get t.runs);
  line "queue_depth %d" (Atomic.get t.queue_depth);
  line "queue_depth_peak %d" (max (Atomic.get t.queue_depth_peak) queue.Queue.peak_depth);
  line "queue_capacity %d" queue.Queue.capacity;
  line "queue_submitted_total %d" queue.Queue.submitted;
  line "queue_rejected_total %d" queue.Queue.rejected;
  (match cache with
  | None -> line "cache_enabled 0"
  | Some (c : Cache.stats) ->
      line "cache_enabled 1";
      line "cache_size %d" c.Cache.size;
      line "cache_capacity %d" c.Cache.capacity;
      line "cache_hits_total %d" c.Cache.hits;
      line "cache_misses_total %d" c.Cache.misses;
      line "cache_evictions_total %d" c.Cache.evictions);
  line "ticket_stash_size %d" (Atomic.get t.ticket_stash_size);
  line "ticket_stash_evictions_total %d" (Atomic.get t.ticket_evictions);
  line "fleet_verdicts_pushed_total %d" (Atomic.get t.fleet_pushes);
  line "fleet_verdicts_imported_total %d" (Atomic.get t.fleet_imports);
  List.iter
    (fun (r, n) -> line "fleet_rejected_%s_total %d" (fleet_reject_to_string r) n)
    (fleet_rejections t);
  line "audit_appends_total %d" (Atomic.get t.audit_appends);
  line "audit_checkpoints_total %d" (Atomic.get t.audit_checkpoints);
  line "audit_log_size %d" (Atomic.get t.audit_log_size);
  line "channel_records_received_total %d" (Atomic.get t.records_received);
  line "channel_record_bytes_total %d" (Atomic.get t.record_bytes);
  line "channel_in_flight_bytes_peak %d" (Atomic.get t.in_flight_peak);
  line "channel_epoch_updates_total %d" (Atomic.get t.epoch_updates);
  line "channel_handshakes_total %d" (Atomic.get t.handshakes);
  line "channel_resumptions_total %d" (Atomic.get t.resumptions);
  line "channel_resumption_fallbacks_total %d" (Atomic.get t.resumption_fallbacks);
  line "phase_cycles_total{phase=\"disassembly\"} %d" (Atomic.get t.disassembly);
  line "phase_cycles_total{phase=\"policy\"} %d" (Atomic.get t.policy);
  line "analysis_callgraph_cycles_total %d" (Atomic.get t.callgraph);
  line "analysis_summary_cycles_total %d" (Atomic.get t.summary);
  line "phase_cycles_total{phase=\"loading\"} %d" (Atomic.get t.loading);
  line "phase_cycles_total{phase=\"provisioning\"} %d" (Atomic.get t.provisioning);
  (* Cumulative, as Prometheus histograms are. *)
  let cum = ref 0 in
  Array.iteri
    (fun i count ->
      cum := !cum + Atomic.get count;
      let le =
        if i < Array.length latency_buckets then string_of_int latency_buckets.(i)
        else "+Inf"
      in
      line "job_latency_cycles_bucket{le=\"%s\"} %d" le !cum)
    t.buckets;
  line "job_latency_cycles_sum %d" (Atomic.get t.latency_sum);
  line "job_latency_cycles_count %d" (Atomic.get t.latency_count);
  Buffer.contents b
