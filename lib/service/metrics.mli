(** Service-wide metrics registry.

    Aggregates what the one-shot pipeline already measures per job — the
    per-phase [Sgx.Perf] counters of [Engarde.Report] — across every job
    the service runs, plus the quantities that only exist at the service
    layer: queue depth, job latencies (modelled cycles, exponential
    histogram), retries, and cache effectiveness. [render] emits a
    Prometheus-style plain-text report, one sample per line, suitable
    for scraping or diffing in tests.

    Every counter is atomic: recording from any domain is safe, and
    [render] is a coherent point-in-time read of each sample (not a
    transaction across samples — the standard Prometheus contract). *)

type job_counts = {
  submitted : int;   (** admitted into the queue *)
  rejected : int;    (** refused at admission (backpressure, bad request) *)
  completed : int;   (** finished with a verdict (cached or computed) *)
  failed : int;      (** finished without a verdict (timeout, channel) *)
  retried : int;     (** retry attempts scheduled after transient failures *)
  cache_hits : int;  (** completions served from the verdict cache *)
}

type phase_totals = {
  disassembly : int;
  policy : int;
  loading : int;
  provisioning : int;  (** channel + crypto + enclave-build cycles *)
}

type t

val create : unit -> t

val job_submitted : t -> unit
val job_rejected : t -> unit
val job_completed : t -> cache_hit:bool -> unit
val job_failed : t -> unit
val job_retried : t -> unit

val observe_run :
  t ->
  disassembly:int ->
  policy:int ->
  callgraph:int ->
  summary:int ->
  loading:int ->
  provisioning:int ->
  unit
(** Charge one real pipeline execution's per-phase cycles. [callgraph]
    and [summary] are the interprocedural-tier shares of the policy
    phase, broken out as [analysis_callgraph_cycles_total] /
    [analysis_summary_cycles_total] (zero unless an agreed policy
    demanded the call graph or callee summaries). Cache hits observe
    nothing — that is the amortization the cache exists for. *)

val observe_latency : t -> cycles:int -> unit
(** Total modelled cycles a job spent across all its attempts. *)

val set_queue_depth : t -> int -> unit
(** Gauge update; also tracks the peak. *)

val audit_appended : t -> log_size:int -> unit
(** One verdict appended to the audit transparency log; [log_size] is
    the log's new leaf count (kept as a gauge). *)

val audit_checkpointed : t -> unit
(** One quote-signed checkpoint issued over the audit log. *)

val set_audit_log_size : t -> int -> unit
(** Gauge update without counting an append (warm restart restores). *)

val observe_channel :
  t ->
  records:int ->
  bytes:int ->
  in_flight:int ->
  epoch_updates:int ->
  resumed:bool ->
  fallback:bool ->
  unit
(** One streaming transfer's channel telemetry (the fields of
    [Engarde.Provision.channel_stats]). A resumed run counts as a
    resumption, otherwise as a full handshake; [fallback] additionally
    counts a resumption that degraded to a full handshake. The in-flight
    gauge keeps the peak across transfers. *)

val set_ticket_stash : t -> int -> unit
(** Gauge: live entries in the scheduler's 0-RTT ticket stash. *)

val ticket_evicted : t -> unit
(** One (client, program-set) resumption ticket dropped by the stash's
    LRU cap. *)

type fleet_reject =
  | Quote  (** peer quote forged, missigned, or for the wrong identity *)
  | Binding  (** quote's report_data does not bind the pushed verdict *)
  | Proof  (** checkpoint does not prove inclusion of the verdict leaf *)
  | Replay  (** replayed [Peer_hello] (nonce already seen) *)
  | Quarantined  (** message from a quarantined or unattested peer *)
  | Malformed  (** peer message that does not decode *)

val fleet_pushed : t -> unit
(** One [Verdict_push] sent to a peer. *)

val fleet_imported : t -> unit
(** One remote verdict that passed the full trust rule and entered the
    local cache. *)

val fleet_rejected : t -> fleet_reject -> unit

val job_counts : t -> job_counts
val phase_totals : t -> phase_totals

val render : t -> queue:Queue.stats -> cache:Cache.stats option -> string
(** The scrapeable text report. [cache = None] renders the
    cache-disabled configuration (no cache_* samples). *)
