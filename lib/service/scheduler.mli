(** The inspection service's scheduler: the first layer above
    [Engarde.Provision].

    The paper's contract is one client, one ELF, one verdict. A
    provisioning *service* runs many such inspections; this module
    runs them in rounds. Each {!tick} takes up to [workers] jobs,
    answers the cache hits, starts every miss's pipeline through the
    [dispatch] hook, then joins those pipelines in the order they
    started. So one tick completes a whole round. With the default
    in-place dispatch each pipeline runs when it is started; with
    {!parallel_config} the round's pipelines overlap on a {!Pool} of
    domains, while admission, ordering, the cache, metrics and the
    audit log stay on the scheduler thread. Completions are
    re-sequenced by [seq], and modelled cycles (hence verdicts, retries
    and timeouts) do not depend on which domain ran a pipeline or in
    what order they finished.

    Failure handling: a channel-layer failure ([Transfer_tampered]) is
    treated as transient and retried on the next tick, at most twice;
    a job whose accumulated modelled cycles exceed [timeout_cycles]
    fails with [Timed_out]. Neither failure is cached — only verdicts
    are content-addressed, and a verdict exists only when the pipeline
    actually judged the binary. *)

type job = {
  client : string;            (** identity; reported back, not trusted *)
  payload : string;           (** the sealed ELF bytes *)
  policy_names : string list;
      (** agreed policy set: names from {!known_policies} or the
          configured custom [programs] *)
}

type failure =
  | Rejected of string
      (** refused at admission: full queue, oversized payload, unknown
          policy name *)
  | Timed_out of { attempts : int; cycles : int }
  | Channel_failure of { attempts : int; last : string }
      (** transient channel failures exhausted the retry budget *)

val failure_to_string : failure -> string

type completion = {
  job : job;
  seq : int;                 (** submission order, 0-based *)
  verdict : (Cache.verdict, failure) result;
  cache_hit : bool;
  attempts : int;            (** pipeline executions, >= 1 unless rejected/hit *)
  latency_cycles : int;      (** modelled cycles across all attempts *)
}

type config = {
  workers : int;  (** jobs taken per {!tick} *)
  queue_capacity : int;
  cache : [ `Enabled of int | `Disabled ];  (** capacity when enabled *)
  audit : bool;
      (** maintain the Merkle transparency log: every completion that
          carries a verdict (cache hits included) appends one leaf *)
  timeout_cycles : int option;
  max_payload_bytes : int option;
  libc_db : Toolchain.Libc.version;
      (** the provider's reference hash database — part of the cache key *)
  programs : (string * string) list;
      (** additional negotiable policy programs, [(name, canonical
          blob)] — the point of the VM: a new check is service data,
          not a recompile. Names must not shadow builtins and blobs
          must decode ({!Engarde}-independent: {!create} raises
          [Invalid_argument] otherwise). Custom programs are the only
          ones the VM runs. *)
  provision : Engarde.Provision.config;
      (** template; [policy_names] is overridden per job so the
          measurement binds each job's agreed policy set *)
  fault : attempt:int -> job -> (Channel.Wire.t -> Channel.Wire.t) option;
      (** adversary/chaos hook: a tamper function for this attempt, or
          [None] for a clean channel. Tests inject transient failures
          here. *)
  dispatch :
    (unit -> Engarde.Provision.outcome) -> unit -> Engarde.Provision.outcome;
      (** the Domain-parallelism hook point, in two phases: a {!tick}
          calls [dispatch pipeline] for each attempt it starts (submit,
          immediately after [fault] on the same attempt), then the
          returned thunks in the same order (join — may block until
          the outcome is ready). The default runs the pipeline in place
          at submit time and joins instantly; {!parallel_config}
          submits to a domain pool. *)
  channel : Engarde.Provision.channel;
      (** which transfer flavor jobs provision over. [`Legacy] (the
          default) keeps the paper-faithful block channel; [`Streaming]
          uses the EGREC1 record layer with pipelined inspection, and
          the scheduler stashes each accepted run's resumption ticket
          per (client, program set) so that client's next submission
          rides 0-RTT. Verdicts and modelled cycles are identical. *)
  ticket_capacity : int;
      (** LRU cap on the 0-RTT ticket stash (entries are per (client,
          program set), so a long-running serve loop would otherwise
          grow it without bound). An evicted client simply pays one full
          handshake on its next submission; evictions are counted in
          the metrics. *)
}

val default_config : config
(** 4 workers, queue of 64, cache of 256 verdicts, audit off, no
    timeout, clean channel, in-place dispatch, libc-db v1.0.5, no
    custom programs, the legacy channel, a stash of 256 tickets,
    [Engarde.Provision.default_config]. *)

val parallel_config : ?config:config -> domains:int -> unit -> config * Pool.t
(** [config] (default {!default_config}) rewired for true parallelism:
    [dispatch] submits every pipeline to a fresh [domains]-wide {!Pool}
    and [workers] is raised to at least [domains] so the round size
    never bounds the parallelism. The pool is returned so the caller
    can {!Pool.shutdown} it when the scheduler is done. Verdicts, cache
    statistics and the audit-log root are identical to the sequential
    configuration on the same job mix — wall-clock time is the only
    observable difference. *)

val known_policies : string list
(** The builtin policy names every scheduler accepts: "libc", "stack",
    "ifcc", "lint", "sanitize", plus the paper-baseline
    "stack-pattern" / "ifcc-pattern" peephole modes and the
    summary-driven "stack-interproc" / "ifcc-interproc" depth variants.
    Every builtin runs as its native module and negotiates as an
    ["EGNATIVE1"] marker; the libc marker also carries the SHA-256 of
    the reference hash database, so [libc_db] is part of its digest. *)

val policies_of_names :
  db:(string * string) list -> string list -> (Engarde.Policy.t list, string) result
(** Instantiate native policy modules from their agreed names (the
    {!known_policies} set); [Error] names the first unknown policy. The
    scheduler builds every builtin it runs through this function. *)

type t

val program_set : t -> string list -> (string * string) list
(** The negotiated program set for a policy-name list: sorted-unique
    names paired with their canonical blobs (native markers for the
    builtins, configured custom programs). Raises [Not_found] on a name
    {!submit} would reject. *)

val programs_digest : t -> string list -> string
(** {!Channel.Session.policy_set_digest} of {!program_set} — what gets
    measured into the judging enclave, offered by the client, recorded
    in audit leaves, and folded into cache keys. *)

val create : config -> t
val config : t -> config
val metrics : t -> Metrics.t
val cache_stats : t -> Cache.stats option
val queue_stats : t -> Queue.stats

val verdict_cache : t -> Cache.t option
(** The live verdict cache ([None] when disabled). The fleet layer
    imports quote-verified peer verdicts through it; imports do not
    append audit leaves (the importing node only logs verdict events it
    answers itself). *)

val job_key : t -> job -> string
(** The content address this scheduler files [job]'s verdict under —
    what the fleet coordinator's rendezvous routing and peer verdict
    exchange key on. Raises [Not_found] on a policy name {!submit}
    would reject. *)

val ticket_stash_size : t -> int
(** Live entries in the 0-RTT ticket stash (bounded by
    [config.ticket_capacity]). *)

val audit_log : t -> Audit.Log.t option
(** The verdict transparency log ([None] unless [config.audit]). *)

val measurement : t -> string
(** The service's own enclave identity: the measurement of the EnGarde
    enclave built from the provisioning template. Checkpoint quotes and
    sealed state are bound to it. *)

val checkpoint : t -> device:Sgx.Quote.device -> Audit.Log.checkpoint option
(** Quote-sign the audit log's current head (counted in the metrics);
    [None] when auditing is off. *)

val save_state : t -> device:Sgx.Quote.device -> string
(** Serialize the audit log and verdict cache, increment the service's
    monotonic counter, and seal the result to the service measurement
    ({!Audit.Seal}). The returned blob is safe to hand to the untrusted
    host for storage. *)

val state_counter_id : t -> string
(** Name of the monotonic counter guarding this service's sealed state
    (derived from the service measurement). A host that persists
    counter NVRAM externally restores it under this id
    ({!Sgx.Quote.counter_restore}). *)

val load_state : t -> device:Sgx.Quote.device -> string -> (int * int, Audit.Seal.error) result
(** Warm-start a freshly created scheduler from a {!save_state} blob:
    restores the audit log (when [config.audit]) and cache contents.
    Returns [(log_leaves, cache_entries)] restored. Rollback, blobs
    sealed by a different enclave identity, and tampered blobs are
    rejected with the corresponding distinct {!Audit.Seal.error}. *)

val submit : t -> job -> (int, string) result
(** Admission control: validates the policy set and payload size, then
    enqueues. Returns the job's sequence number, or the rejection
    reason (also counted in the metrics). *)

val busy : t -> bool
(** Jobs queued, or transient failures waiting for their retry. *)

val tick : t -> unit
(** One round: take up to [workers] jobs (the previous tick's transient
    failures first, then the queue) and answer the cache hits; call
    [fault] then [dispatch] for each miss, then join the attempts in the
    same order and finish each. Every job taken completes in this tick
    unless its channel failed in transit, in which case it retries on
    the next. *)

val drain_completions : t -> completion list
(** Completions accumulated since the last drain, in submission order. *)

val run_until_idle : ?max_ticks:int -> t -> completion list
(** Tick until no work remains, then drain. *)

val batch : t -> job list -> completion list
(** Run a whole job list to completion on [t], feeding the queue as
    space frees up: no job is refused for a full queue, whatever its
    capacity (admission validation still applies, and a job it refuses
    comes back as a [Rejected] completion). Completions come back in
    submission order, so the result is reproducible regardless of
    [workers] — same inputs, same verdicts. Running on a caller's
    scheduler lets a warm start ({!load_state}), the report and a
    final {!save_state} all see the same state. *)

val report : t -> string
(** The metrics registry rendered with current queue and cache stats. *)

val serve :
  t ->
  mux:Channel.Session.Mux.mux ->
  policies_for:(string -> string list) ->
  ?max_ticks:int ->
  unit ->
  completion list
(** The multiplexed server loop: poll the mux, turn completed payload
    transfers into jobs (the connection id is the client identity),
    tick, and answer each finished job with a [Verdict] on its
    originating connection. Admission rejections and corrupt transfers
    are answered immediately. Returns when the mux has gone quiet and
    the scheduler is idle. *)
