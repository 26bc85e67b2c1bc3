type job = { client : string; payload : string; policy_names : string list }

type failure =
  | Rejected of string
  | Timed_out of { attempts : int; cycles : int }
  | Channel_failure of { attempts : int; last : string }

let failure_to_string = function
  | Rejected why -> "rejected at admission: " ^ why
  | Timed_out { attempts; cycles } ->
      Printf.sprintf "timed out after %d attempt(s) (%d modelled cycles)" attempts cycles
  | Channel_failure { attempts; last } ->
      Printf.sprintf "channel failure after %d attempt(s): %s" attempts last

type completion = {
  job : job;
  seq : int;
  verdict : (Cache.verdict, failure) result;
  cache_hit : bool;
  attempts : int;
  latency_cycles : int;
}

type config = {
  workers : int;
  queue_capacity : int;
  cache : [ `Enabled of int | `Disabled ];
  audit : bool;
  timeout_cycles : int option;
  max_payload_bytes : int option;
  libc_db : Toolchain.Libc.version;
  programs : (string * string) list;
  provision : Engarde.Provision.config;
  fault : attempt:int -> job -> (Channel.Wire.t -> Channel.Wire.t) option;
  dispatch :
    (unit -> Engarde.Provision.outcome) -> unit -> Engarde.Provision.outcome;
  channel : Engarde.Provision.channel;
  ticket_capacity : int;
}

let default_config =
  {
    workers = 4;
    queue_capacity = 64;
    cache = `Enabled 256;
    audit = false;
    timeout_cycles = None;
    max_payload_bytes = Some (16 * 1024 * 1024);
    libc_db = Toolchain.Libc.V1_0_5;
    programs = [];
    provision = Engarde.Provision.default_config;
    fault = (fun ~attempt:_ _ -> None);
    (* Sequential: the pipeline runs at submission, the join is a
       no-op. [parallel_config] swaps in a domain-pool dispatch with
       the same two-phase shape. *)
    dispatch =
      (fun pipeline ->
        let r = pipeline () in
        fun () -> r);
    (* Legacy by default: existing deployments (and the fault-injection
       hooks, which pattern-match [Code_block]) see the paper-faithful
       wire format unless the provider opts into streaming. *)
    channel = `Legacy;
    ticket_capacity = 256;
  }

(* Extra attempts after the first when the channel fails in transit. *)
let max_retries = 2

let parallel_config ?(config = default_config) ~domains () =
  let pool = Pool.create ~domains in
  ( {
      config with
      (* At least one job per domain in each tick's round, or the round
         size — not cores — would bound the parallelism. *)
      workers = max config.workers domains;
      (* Submit when the tick starts the attempt, block when it joins:
         a round's pipelines overlap on the pool's domains. *)
      dispatch =
        (fun pipeline ->
          let fut = Pool.submit pool pipeline in
          fun () -> Pool.await fut);
    },
    pool )

(* The builtin registry: each name-addressable policy and the native
   module it instantiates against the reference hash database. *)
let builtins : (string * ((string * string) list -> Engarde.Policy.t)) list =
  let exempt = Toolchain.Libc.function_names in
  [
    ("libc", fun db -> Engarde.Policy_libc.make ~db ());
    ("stack", fun _ -> Engarde.Policy_stack.make ~exempt ());
    ("ifcc", fun _ -> Engarde.Policy_ifcc.make ());
    ("lint", fun _ -> Engarde.Policy_lint.make ());
    ("sanitize", fun _ -> Engarde.Policy_sanitize.make ());
    (* The paper's peephole baselines, kept addressable so clients can
       request (and audit logs can distinguish) the unsound mode. *)
    ("stack-pattern", fun _ -> Engarde.Policy_stack.make ~exempt ~mode:`Pattern ());
    ("ifcc-pattern", fun _ -> Engarde.Policy_ifcc.make ~mode:`Pattern ());
    (* The interprocedural tier: dominance and masking proofs carried
       across call edges through function summaries. *)
    ("stack-interproc", fun _ -> Engarde.Policy_stack.make ~exempt ~depth:`Interproc ());
    ("ifcc-interproc", fun _ -> Engarde.Policy_ifcc.make ~depth:`Interproc ());
  ]

let known_policies = List.map fst builtins

(* Every builtin negotiates as an opaque native marker: the negotiated
   digest commits to the selection and the scheduler runs the native
   module. The libc marker also carries the SHA-256 of the reference
   hash database it judges against, so a database rollover changes the
   digest, and with it the judging enclave's measurement. The stack
   policy's exemption list is a constant of the inspector and needs no
   binding. *)
let native_marker name = "EGNATIVE1\x00" ^ name

let db_digest db =
  let field s = Printf.sprintf "%d:%s," (String.length s) s in
  Crypto.Sha256.digest (String.concat "" (List.map (fun (n, h) -> field n ^ field h) db))

let builtin_blobs ~db =
  let marker = function
    | "libc" -> native_marker "libc" ^ "\x00" ^ db_digest db
    | n -> native_marker n
  in
  List.map (fun n -> (n, marker n)) known_policies

let policies_of_names ~db names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match List.assoc_opt name builtins with
        | Some make -> go (make db :: acc) rest
        | None ->
            Error
              (Printf.sprintf "unknown policy %S (expected one of: %s)" name
                 (String.concat ", " known_policies)))
  in
  go [] names

(* An admitted job, from submission to its completion. *)
type active = {
  ajob : job;
  aseq : int;
  akey : string;          (* content address, computed at admission *)
  mutable attempts : int;
  mutable cycles : int;   (* accumulated across attempts *)
}

type t = {
  cfg : config;
  db : (string * string) list lazy_t;  (* reference libc hash database *)
  blobs : (string * string) list lazy_t;  (* negotiable (name, blob) registry *)
  libc_db_version : string;
  queue : active Queue.t;
  cache : Cache.t option;
  mutable audit_log : Audit.Log.t option;
  metrics : Metrics.t;
  mutable retries : active list;  (* the last tick's transient failures, newest first *)
  mutable next_seq : int;
  mutable completions : completion list;  (* newest first *)
  (* Per-client resumption tickets from accepted streaming runs, keyed
     by client id and the negotiated program digest (a ticket binds the
     judging enclave's measurement, which the policy set determines).
     Read and written on the scheduler thread only. LRU-bounded at
     [cfg.ticket_capacity]: a long-running serve loop sees an unbounded
     population of (client, program-set) pairs, and without the cap the
     stash would grow forever. The value carries its last-use stamp. *)
  tickets : (string, (string * string) * int) Hashtbl.t;
  mutable ticket_clock : int;
}

let create (cfg : config) =
  if cfg.workers <= 0 then invalid_arg "Service.Scheduler.create: workers must be positive";
  if cfg.ticket_capacity <= 0 then
    invalid_arg "Service.Scheduler.create: ticket_capacity must be positive";
  (* Custom programs are provider configuration, not client input:
     reject malformed ones loudly at service construction. *)
  List.iter
    (fun (name, blob) ->
      if List.mem name known_policies then
        invalid_arg
          (Printf.sprintf "Service.Scheduler.create: program %S shadows a builtin policy"
             name);
      match Policyvm.Encode.decode blob with
      | Ok _ -> ()
      | Error e ->
          invalid_arg
            (Printf.sprintf "Service.Scheduler.create: program %S does not decode: %s" name
               e))
    cfg.programs;
  let db = lazy (Toolchain.Libc.hash_db cfg.libc_db) in
  {
    cfg;
    db;
    blobs = lazy (builtin_blobs ~db:(Lazy.force db) @ cfg.programs);
    libc_db_version = Toolchain.Libc.version_to_string cfg.libc_db;
    queue = Queue.create ~capacity:cfg.queue_capacity;
    cache =
      (match cfg.cache with
      | `Enabled cap -> Some (Cache.create ~capacity:cap)
      | `Disabled -> None);
    audit_log = (if cfg.audit then Some (Audit.Log.create ()) else None);
    metrics = Metrics.create ();
    retries = [];
    next_seq = 0;
    completions = [];
    tickets = Hashtbl.create 16;
    ticket_clock = 0;
  }

let config t = t.cfg
let metrics t = t.metrics

(* The negotiated program set for a job: sorted-unique policy names,
   each paired with its canonical blob. Client and provider hash
   exactly these bytes, and the scheduler executes exactly this set, so
   one digest covers the agreement. *)
let program_set t names =
  let blobs = Lazy.force t.blobs in
  List.map (fun n -> (n, List.assoc n blobs)) (List.sort_uniq compare names)

let programs_digest t names = Channel.Session.policy_set_digest (program_set t names)

let negotiable t = known_policies @ List.map fst t.cfg.programs

(* One policy instance for one attempt: a native module for every
   builtin, the VM for the provider's custom programs. *)
let policy_for t name =
  match policies_of_names ~db:(Lazy.force t.db) [ name ] with
  | Ok [ p ] -> p
  | Ok _ | Error _ -> (
      match Policyvm.Vm.of_blob (List.assoc name t.cfg.programs) with
      | Ok p -> p
      | Error e -> invalid_arg (Printf.sprintf "Service.Scheduler: program %S: %s" name e))

let cache_stats t = Option.map Cache.stats t.cache
let queue_stats t = Queue.stats t.queue
let audit_log t = t.audit_log
let verdict_cache t = t.cache

(* The content address this scheduler would file [job]'s verdict under
   — what the fleet coordinator routes on and peers exchange verdicts
   by. Raises [Not_found] on policy names {!submit} would reject. *)
let job_key t (job : job) =
  Cache.key ~payload:job.payload ~policy_names:job.policy_names
    ~libc_db_version:t.libc_db_version
    ~programs_digest:(programs_digest t job.policy_names)

(* The service's own enclave identity: the measurement of the EnGarde
   enclave its provisioning template builds. Sealing and checkpoint
   quotes are bound to it. *)
let measurement t = Engarde.Provision.expected_measurement t.cfg.provision

let checkpoint t ~device =
  Option.map
    (fun log ->
      Metrics.audit_checkpointed t.metrics;
      Audit.Log.checkpoint log ~device ~measurement:(measurement t))
    t.audit_log

(* --- sealed persistence (warm restart) ----------------------------- *)

(* v2: the embedded cache/log sections carry program digests and the
   cache keys include them; a v1 blob must not be reused under the new
   keying. *)
let state_magic = "EGSTATE2"
let stale_state_magic = "EGSTATE1"
let state_counter_prefix = "engarde-state/"
let u64_be n = String.init 8 (fun i -> Char.chr ((n lsr (8 * (7 - i))) land 0xff))

let state_counter_id_of measurement = state_counter_prefix ^ Crypto.Sha256.hex measurement
let state_counter_id t = state_counter_id_of (measurement t)

let save_state t ~device =
  let measurement = measurement t in
  let counter = Sgx.Quote.counter_increment device ~id:(state_counter_id_of measurement) in
  let section s = u64_be (String.length s) ^ s in
  let log_blob = match t.audit_log with Some l -> Audit.Log.export l | None -> "" in
  let cache_blob = match t.cache with Some c -> Cache.export c | None -> "" in
  Audit.Seal.seal
    ~key:(Sgx.Quote.seal_key device ~measurement)
    ~measurement ~counter
    (state_magic ^ section log_blob ^ section cache_blob)

let load_state t ~device blob =
  let measurement = measurement t in
  let counter = Sgx.Quote.counter_read device ~id:(state_counter_id_of measurement) in
  match Audit.Seal.unseal ~key:(Sgx.Quote.seal_key device ~measurement) ~measurement ~counter blob with
  | Error e -> Error e
  | Ok plain ->
      (* The MAC already vouched for these bytes; a parse failure here
         means the blob predates the format and cannot be loaded. *)
      let len = String.length plain in
      let u64_at pos =
        let v = ref 0 in
        for i = pos to pos + 7 do
          v := (!v lsl 8) lor Char.code plain.[i]
        done;
        !v
      in
      let section pos =
        if pos + 8 > len then None
        else
          let n = u64_at pos in
          if pos + 8 + n > len then None else Some (String.sub plain (pos + 8) n, pos + 8 + n)
      in
      let ( let* ) o f = match o with Some x -> f x | None -> Error Audit.Seal.Truncated in
      if len >= 8 && String.sub plain 0 8 = stale_state_magic then
        (* An authentic blob from the previous state format: its
           verdicts were keyed without program digests, so warm-starting
           from it would serve stale answers. Reported as [Stale]
           (format versions in place of counters), like a rollback. *)
        Error (Audit.Seal.Stale { sealed = 1; current = 2 })
      else if len < 8 || String.sub plain 0 8 <> state_magic then Error Audit.Seal.Truncated
      else
        let* log_blob, pos = section 8 in
        let* cache_blob, pos = section pos in
        if pos <> len then Error Audit.Seal.Truncated
        else
          let* log_n =
            if log_blob = "" || not t.cfg.audit then Some 0
            else
              match Audit.Log.import log_blob with
              | None -> None
              | Some log ->
                  t.audit_log <- Some log;
                  Metrics.set_audit_log_size t.metrics (Audit.Log.size log);
                  Some (Audit.Log.size log)
          in
          let* cache_n =
            if cache_blob = "" then Some 0
            else
              match t.cache with
              | None -> Some 0
              | Some c -> (
                  match Cache.import c cache_blob with Ok n -> Some n | Error _ -> None)
          in
          Ok (log_n, cache_n)

let validate t job =
  match List.find_opt (fun n -> not (List.mem n (negotiable t))) job.policy_names with
  | Some unknown -> Some (Printf.sprintf "unknown policy %S" unknown)
  | None -> (
      match t.cfg.max_payload_bytes with
      | Some limit when String.length job.payload > limit ->
          Some
            (Printf.sprintf "payload of %d bytes exceeds the %d-byte admission limit"
               (String.length job.payload) limit)
      | _ -> None)

let submit t job =
  match validate t job with
  | Some why ->
      Metrics.job_rejected t.metrics;
      Error why
  | None ->
      let seq = t.next_seq in
      let active = { ajob = job; aseq = seq; akey = job_key t job; attempts = 0; cycles = 0 } in
      (match Queue.submit t.queue active with
      | Error `Queue_full ->
          Metrics.job_rejected t.metrics;
          Error
            (Printf.sprintf "queue full (%d jobs waiting); resubmit later"
               (Queue.depth t.queue))
      | Ok () ->
          t.next_seq <- seq + 1;
          Metrics.job_submitted t.metrics;
          Ok seq)

(* Every completion carrying a verdict becomes one transparency-log
   leaf: the log records verdict *events* (cache hits included — the
   provider answered from the cache and is accountable for it), so the
   audit trail covers exactly what clients were told. Failures reach no
   verdict and leave no leaf, mirroring the cache. *)
let audit_append t a v =
  match t.audit_log with
  | None -> ()
  | Some log ->
      ignore (Audit.Log.append log (Cache.audit_leaf ~key:a.akey v));
      Metrics.audit_appended t.metrics ~log_size:(Audit.Log.size log)

let complete t a verdict ~cache_hit =
  (match verdict with
  | Ok v ->
      Metrics.job_completed t.metrics ~cache_hit;
      audit_append t a v
  | Error _ -> Metrics.job_failed t.metrics);
  Metrics.observe_latency t.metrics ~cycles:a.cycles;
  t.completions <-
    {
      job = a.ajob;
      seq = a.aseq;
      verdict;
      cache_hit;
      attempts = a.attempts;
      latency_cycles = a.cycles;
    }
    :: t.completions

let verdict_of_outcome (o : Engarde.Provision.outcome) ~disassembly ~policy ~loading =
  let accepted, detail = Engarde.Provision.verdict_of_result o.Engarde.Provision.result in
  {
    Cache.accepted;
    detail;
    measurement = o.Engarde.Provision.measurement;
    programs_digest =
      Option.value o.Engarde.Provision.negotiated_digest ~default:"";
    instructions = o.Engarde.Provision.report.Engarde.Report.instructions;
    disassembly_cycles = disassembly;
    policy_cycles = policy;
    loading_cycles = loading;
    findings = Engarde.Provision.findings o;
  }

let ticket_key t a = a.ajob.client ^ "/" ^ programs_digest t a.ajob.policy_names

(* Ticket-stash LRU. The stash is tiny (hundreds), touched once per
   streaming attempt, and scheduler-thread-only, so a linear
   minimum-stamp scan at eviction time is simpler than threading a
   recency list through the table. *)
let ticket_find t k =
  match Hashtbl.find_opt t.tickets k with
  | None -> None
  | Some (stash, _) ->
      t.ticket_clock <- t.ticket_clock + 1;
      Hashtbl.replace t.tickets k (stash, t.ticket_clock);
      Some stash

let ticket_drop t k =
  Hashtbl.remove t.tickets k;
  Metrics.set_ticket_stash t.metrics (Hashtbl.length t.tickets)

let ticket_store t k stash =
  if (not (Hashtbl.mem t.tickets k)) && Hashtbl.length t.tickets >= t.cfg.ticket_capacity
  then begin
    let victim =
      Hashtbl.fold
        (fun key (_, stamp) acc ->
          match acc with
          | Some (_, best) when best <= stamp -> acc
          | _ -> Some (key, stamp))
        t.tickets None
    in
    match victim with
    | Some (key, _) ->
        Hashtbl.remove t.tickets key;
        Metrics.ticket_evicted t.metrics
    | None -> ()
  end;
  t.ticket_clock <- t.ticket_clock + 1;
  Hashtbl.replace t.tickets k (stash, t.ticket_clock);
  Metrics.set_ticket_stash t.metrics (Hashtbl.length t.tickets)

let ticket_stash_size t = Hashtbl.length t.tickets

(* Start one attempt for [a] and return its join. Everything the
   pipeline closure touches is prepared here, on the scheduler thread —
   the libc db is forced, the policy instances are fresh per attempt —
   so the closure only reads immutable or private state and is safe to
   run on any domain the dispatch picks. [fault] is called immediately
   before [dispatch], on the same attempt. *)
let start_attempt t a =
  a.attempts <- a.attempts + 1;
  let job = a.ajob in
  let policies = List.map (policy_for t) job.policy_names in
  let programs = program_set t job.policy_names in
  let provision_cfg =
    {
      t.cfg.provision with
      Engarde.Provision.policy_names = job.policy_names;
      policy_digest = Channel.Session.policy_set_digest programs;
    }
  in
  let tamper = t.cfg.fault ~attempt:a.attempts job in
  let channel = t.cfg.channel in
  (* A stashed ticket turns this attempt into a 0-RTT resumption; a
     stale or mismatched one falls back inside [Provision.run]. *)
  let resume =
    match channel with
    | `Legacy -> None
    | `Streaming -> ticket_find t (ticket_key t a)
  in
  t.cfg.dispatch (fun () ->
      Engarde.Provision.run ?tamper ~policies ~programs ~channel ?resume provision_cfg
        ~payload:job.payload)

(* The attempt's outcome is in hand (the join returned): charge the
   modelled cycles and decide — retry on the next tick, fail, time out,
   or complete. *)
let finish_attempt t a outcome =
  let report = outcome.Engarde.Provision.report in
  let phase p = Sgx.Perf.total_cycles p in
  let disassembly = phase report.Engarde.Report.disassembly in
  let callgraph = phase report.Engarde.Report.callgraph in
  let summary = phase report.Engarde.Report.summary in
  (* The service's policy phase: the shared analysis index, the call
     graph, the summaries and the policies. CFG recovery is not part of
     it. *)
  let policy =
    phase report.Engarde.Report.analysis + phase report.Engarde.Report.policy
    + callgraph + summary
  in
  let loading = phase report.Engarde.Report.loading in
  let provisioning = phase report.Engarde.Report.provisioning in
  Metrics.observe_run t.metrics ~disassembly ~policy ~callgraph ~summary ~loading
    ~provisioning;
  a.cycles <- a.cycles + disassembly + policy + loading + provisioning;
  (match outcome.Engarde.Provision.channel_stats with
  | None -> ()
  | Some (st : Engarde.Provision.channel_stats) ->
      Metrics.observe_channel t.metrics ~records:st.Engarde.Provision.records
        ~bytes:st.Engarde.Provision.record_bytes ~in_flight:st.Engarde.Provision.in_flight_peak
        ~epoch_updates:st.Engarde.Provision.epoch_updates ~resumed:st.Engarde.Provision.resumed
        ~fallback:st.Engarde.Provision.fallback;
      (* A fallback consumed the stashed ticket (the server refused it);
         drop it so the next attempt doesn't replay the same failure. *)
      if st.Engarde.Provision.fallback then ticket_drop t (ticket_key t a));
  (* An accepted streaming run leaves a fresh ticket for this client's
     next submission under the same program set. *)
  (match outcome.Engarde.Provision.ticket with
  | Some stash -> ticket_store t (ticket_key t a) stash
  | None -> ());
  match outcome.Engarde.Provision.result with
  | Error (Engarde.Provision.Transfer_tampered _) when a.attempts <= max_retries ->
      Metrics.job_retried t.metrics;
      t.retries <- a :: t.retries
  | Error (Engarde.Provision.Transfer_tampered why) ->
      complete t a (Error (Channel_failure { attempts = a.attempts; last = why }))
        ~cache_hit:false
  | _ -> (
      match t.cfg.timeout_cycles with
      | Some budget when a.cycles > budget ->
          (* Over budget: the verdict is discarded and never cached. *)
          complete t a
            (Error (Timed_out { attempts = a.attempts; cycles = a.cycles }))
            ~cache_hit:false
      | _ ->
          let verdict = verdict_of_outcome outcome ~disassembly ~policy ~loading in
          Option.iter (fun c -> Cache.add c a.akey verdict) t.cache;
          complete t a (Ok verdict) ~cache_hit:false)

let busy t = Queue.depth t.queue > 0 || t.retries <> []

(* One round: take up to [workers] jobs — the last tick's transient
   failures first, then the queue — and answer the cache hits. Every
   miss's attempt is started through [dispatch], then the attempts are
   joined in the order they started. A retry skips the lookup: its key
   has already missed. *)
let tick t =
  let rec take n acc =
    if n <= 0 then List.rev acc
    else
      match Queue.take t.queue with
      | None -> List.rev acc
      | Some a -> (
          match Option.bind t.cache (fun c -> Cache.find c a.akey) with
          | Some verdict ->
              complete t a (Ok verdict) ~cache_hit:true;
              take (n - 1) acc
          | None -> take (n - 1) (a :: acc))
  in
  let retries = List.rev t.retries in
  t.retries <- [];
  let runs = retries @ take (t.cfg.workers - List.length retries) [] in
  let joins = List.map (fun a -> (a, start_attempt t a)) runs in
  List.iter (fun (a, join) -> finish_attempt t a (join ())) joins;
  Metrics.set_queue_depth t.metrics (Queue.depth t.queue)

let drain_completions t =
  let out = List.sort (fun a b -> compare a.seq b.seq) (List.rev t.completions) in
  t.completions <- [];
  out

let run_until_idle ?(max_ticks = 1_000_000) t =
  let ticks = ref 0 in
  while busy t && !ticks < max_ticks do
    tick t;
    incr ticks
  done;
  if busy t then failwith "Service.Scheduler.run_until_idle: tick budget exhausted";
  drain_completions t

let report t =
  Metrics.render t.metrics ~queue:(Queue.stats t.queue) ~cache:(cache_stats t)

let batch t jobs =
  let rejected =
    List.filter_map
      (fun job ->
        while Queue.depth t.queue >= Queue.capacity t.queue do
          tick t
        done;
        match submit t job with
        | Ok _ -> None
        | Error why ->
            (* Validation failure: a rejection completion keeps the
               batch result covering every input, in order. *)
            let seq = t.next_seq in
            t.next_seq <- seq + 1;
            Some
              {
                job;
                seq;
                verdict = Error (Rejected why);
                cache_hit = false;
                attempts = 0;
                latency_cycles = 0;
              })
      jobs
  in
  List.sort (fun a b -> compare a.seq b.seq) (run_until_idle t @ rejected)

(* ------------------------------------------------------------------ *)
(* Multiplexed serve loop                                              *)
(* ------------------------------------------------------------------ *)

let serve t ~mux ~policies_for ?(max_ticks = 1_000_000) () =
  let module Mux = Channel.Session.Mux in
  let all = ref [] in
  let reply_verdict conn (c : completion) =
    let accepted, detail =
      match c.verdict with
      | Ok v -> (v.Cache.accepted, v.Cache.detail)
      | Error f -> (false, failure_to_string f)
    in
    Mux.reply mux ~id:conn (Channel.Wire.Verdict { accepted; detail })
  in
  let quiet = ref 0 and ticks = ref 0 in
  while !quiet < 2 && !ticks < max_ticks do
    let events = Mux.poll mux in
    List.iter
      (function
        | Mux.Payload { conn; payload } -> (
            let job = { client = conn; payload; policy_names = policies_for conn } in
            match submit t job with
            | Ok _ -> ()
            | Error why ->
                Mux.reply mux ~id:conn
                  (Channel.Wire.Verdict
                     { accepted = false; detail = "rejected at admission: " ^ why }))
        | Mux.Corrupt { conn; why } ->
            Mux.reply mux ~id:conn
              (Channel.Wire.Verdict { accepted = false; detail = "transfer corrupt: " ^ why })
        | Mux.Peer _ ->
            (* Fleet peer traffic belongs to the fleet node layer; a
               standalone serve loop has no peers and ignores it. *)
            ())
      events;
    tick t;
    let finished = drain_completions t in
    List.iter (fun c -> reply_verdict c.job.client c) finished;
    all := !all @ finished;
    if events = [] && (not (Mux.pending mux)) && not (busy t) then incr quiet
    else quiet := 0;
    incr ticks
  done;
  !all
