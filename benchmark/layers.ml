(* The per-layer half of a traced run. The service-level numbers come
   from the traced closed loop; everything else is timed from outside,
   through public functions, on each distinct input the loop served,
   and weighted by how often the loop served it, so a layer's value is
   its cost per job of this workload. *)

open Toolchain

let now = Trace.now
let db = lazy (Libc.hash_db Libc.V1_0_5)
let vm_programs = lazy (Policyvm.Builtin.all ~db:(Lazy.force db) ~exempt:Libc.function_names)

let native name =
  match Service.Scheduler.policies_of_names ~db:(Lazy.force db) [ name ] with
  | Ok [ p ] -> p
  | Ok _ | Error _ -> invalid_arg ("Layers.native: " ^ name)

(* As the scheduler's default [`Vm] engine instantiates a policy: VM
   programs for the builtins, native modules for the pattern and
   interprocedural variants. *)
let engine_policy name =
  match List.assoc_opt name (Lazy.force vm_programs) with
  | Some p -> Policyvm.Vm.policy p
  | None -> native name

let timed ?job ~parent name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  ignore (Trace.add ?job ~parent name t0 t1);
  (r, t1 -. t0)

let perf = Sgx.Perf.create
let cycles = Sgx.Perf.total_cycles

type probe = {
  handshake : float;
  ingest : float;
  verdict : float;
  ttfpe : float;
  report : Engarde.Report.t;
  parse : float;
  disasm : float;
  insns : int;
  index : float;
  cfg : float;
  callgraph : float;
  summary : float;
  policies : (string * float) list;
  vm : float;  (** warm re-check of the VM builtins on the VM *)
  native : float;  (** the same builtins as native modules *)
  cache_key : float;
}

(* One pipeline run configured exactly as the scheduler runs [k]: its
   provisioning template, program set and channel, resuming [resume]
   when given. *)
let direct sched (w : Inputs.t) (k : Inputs.kind) ?resume ?on_event payload =
  let programs = Service.Scheduler.program_set sched k.Inputs.policies in
  let cfg =
    {
      (Service.Scheduler.config sched).Service.Scheduler.provision with
      Engarde.Provision.policy_names = k.Inputs.policies;
      policy_digest = Channel.Session.policy_set_digest programs;
    }
  in
  Engarde.Provision.run
    ~policies:(List.map engine_policy k.Inputs.policies)
    ~programs ~channel:w.Inputs.channel ?resume ?on_event cfg ~payload

(* A direct run of the kind split at the [on_event] boundaries, then
   each layer of the inspection timed on its own. *)
let probe_kind sched (w : Inputs.t) ~kind ~payload ~resume =
  let k = w.Inputs.kinds.(kind) in
  Trace.with_span ~job:kind ("probe " ^ k.Inputs.label) (fun root ->
      let marks = ref [] in
      let mark e = marks := (e, now ()) :: !marks in
      let t0 = now () in
      let o = direct sched w k ?resume ~on_event:mark payload in
      let t_end = now () in
      let marks = List.rev !marks in
      let at e = Option.value (List.assoc_opt e marks) in
      let started = at Engarde.Provision.Transfer_started ~default:t0 in
      let policy = at Engarde.Provision.Policy_phase ~default:t_end in
      let first_event =
        List.find_map
          (fun (e, t) -> if e <> Engarde.Provision.Transfer_started && t >= started then Some t else None)
          marks
      in
      let run = Trace.add ~job:kind ~parent:root "provision.run" t0 t_end in
      ignore (Trace.add ~job:kind ~parent:run "provision.handshake" t0 started);
      ignore (Trace.add ~job:kind ~parent:run "provision.ingest" started policy);
      ignore (Trace.add ~job:kind ~parent:run "provision.verdict" policy t_end);
      let t name f = timed ~job:kind ~parent:root name f in
      let elf, parse = t "elf.parse" (fun () -> Result.get_ok (Elf64.Reader.parse payload)) in
      let text = List.hd (Elf64.Reader.text_sections elf) in
      (* The pipeline decodes from an off-heap copy of the text. *)
      let (buffer, symbols), disasm =
        t "disasm.run" (fun () ->
            let src = X86.Decoder.Big (Elf64.Buf.Big.of_string text.Elf64.Reader.data) in
            match
              Engarde.Disasm.run_src (perf ()) ~src ~base:text.Elf64.Reader.addr
                ~symbols:elf.Elf64.Reader.symbols
            with
            | Ok r -> r
            | Error v -> failwith (X86.Nacl.violation_to_string v))
      in
      let ctx, index =
        t "analysis.index" (fun () ->
            Engarde.Policy.context ~analysis_perf:(perf ()) ~cfg_perf:(perf ())
              ~callgraph_perf:(perf ()) ~summary_perf:(perf ()) ~perf:(perf ()) buffer symbols)
      in
      let index_t = ctx.Engarde.Policy.index in
      let (), cfg =
        t "cfg.build" (fun () ->
            Array.iter (fun f -> ignore (Engarde.Policy.cfg_of ctx f)) index_t.Engarde.Analysis.functions)
      in
      let graph, callgraph = t "callgraph.build" (fun () -> Engarde.Policy.callgraph_of ctx) in
      let (), summary =
        t "summary.all" (fun () ->
            Engarde.Summary.compute_all ctx.Engarde.Policy.summaries ctx.Engarde.Policy.summary_perf
              index_t ~cfg:(Engarde.Policy.cfg_of ctx) ~callgraph:graph)
      in
      let policies =
        List.map
          (fun name ->
            let p = engine_policy name in
            (name, snd (t ("policy." ^ name) (fun () -> p.Engarde.Policy.check ctx))))
          k.Inputs.policies
      in
      let builtins = List.filter (fun n -> List.mem_assoc n (Lazy.force vm_programs)) k.Inputs.policies in
      let total make label =
        List.fold_left
          (fun acc n ->
            let p = make n in
            acc +. snd (t (label ^ "." ^ n) (fun () -> p.Engarde.Policy.check ctx)))
          0. builtins
      in
      let native = total native "policyvm.native" in
      let vm = total engine_policy "policyvm.vm" in
      let _, cache_key =
        t "service.cache_key" (fun () ->
            Service.Scheduler.job_key sched
              { Service.Scheduler.client = "probe"; payload; policy_names = k.Inputs.policies })
      in
      {
        handshake = started -. t0;
        ingest = policy -. started;
        verdict = t_end -. policy;
        ttfpe = Option.value first_event ~default:policy -. started;
        report = o.Engarde.Provision.report;
        parse;
        disasm;
        insns = Array.length buffer.Engarde.Disasm.entries;
        index;
        cfg;
        callgraph;
        summary;
        policies;
        vm;
        native;
        cache_key;
      }, o.Engarde.Provision.ticket)

let median_of n f = Stats.median (List.init n (fun _ -> f ()))

let time f =
  let t0 = now () in
  ignore (f ());
  now () -. t0

(* Throughput of [f] over [bytes], in MB/s. *)
let mbps bytes f = float_of_int bytes /. 1e6 /. median_of 3 (fun () -> time f)

let channel_rates slice =
  let key = Crypto.Sha256.digest "bench-session-key" in
  let secret = Channel.Record.traffic_secret ~key in
  let records () = Channel.Record.payload_records (Channel.Record.writer ~secret) slice in
  let sealed = records () in
  let open_all () =
    let r = Channel.Record.reader ~secret in
    List.iter
      (function
        | Channel.Wire.Record { epoch; rn; ciphertext; tag } ->
            ignore (Channel.Record.read r ~epoch ~rn ~ciphertext ~tag)
        | _ -> ())
      sealed
  in
  let legacy () =
    let s = Channel.Session.create ~key in
    List.iter
      (function
        | Channel.Wire.Code_block { seq; offset; ciphertext; tag } ->
            ignore (Channel.Session.decrypt_block s ~seq ~offset ~ciphertext ~tag)
        | _ -> ())
      (Channel.Session.payload_messages (Channel.Session.create ~key) slice)
  in
  let n = String.length slice in
  (mbps n records, mbps n open_all, mbps n legacy)

let synthetic_leaf sched i =
  {
    Audit.Log.key = Crypto.Sha256.digest (Printf.sprintf "probe-leaf-%d" i);
    accepted = true;
    findings_digest = Crypto.Sha256.digest "";
    measurement = Service.Scheduler.measurement sched;
    programs_digest = Crypto.Sha256.digest "probe";
    instructions = i;
    disassembly_cycles = i;
    policy_cycles = i;
    loading_cycles = i;
  }

(* Append cost on the service's own log (or, with auditing off, on a
   log of the same length), and the sealed-state round trip. On
   tenant-redeploy the load is of the blob its set-up restarts from,
   timed before any save bumps the monotonic counter past it. *)
let audit_probe sched ~answered ~restart_blob =
  let device = Lazy.force Service_loop.device in
  let log =
    match Service.Scheduler.audit_log sched with
    | Some l -> l
    | None ->
        let l = Audit.Log.create () in
        for i = 1 to answered do
          ignore (Audit.Log.append l (synthetic_leaf sched i))
        done;
        l
  in
  let h0 = Audit.Log.hash_count log in
  let appends = 64 in
  let leaves = List.init appends (fun i -> synthetic_leaf sched (-i)) in
  let append_s =
    time (fun () -> List.iter (fun l -> ignore (Audit.Log.append log l)) leaves)
    /. float_of_int appends
  in
  let hashes = float_of_int (Audit.Log.hash_count log - h0) /. float_of_int appends in
  let load blob =
    let fresh = Service.Scheduler.create (Service.Scheduler.config sched) in
    let t0 = now () in
    let r = Service.Scheduler.load_state fresh ~device blob in
    let dt = now () -. t0 in
    (match r with
    | Ok _ -> ()
    | Error e -> raise (Service_loop.Mismatch ("load_state: " ^ Audit.Seal.error_to_string e)));
    dt
  in
  let restart_load = Option.map (fun b -> median_of 3 (fun () -> load b)) restart_blob in
  let blob = ref "" in
  let save_s = median_of 3 (fun () -> time (fun () -> blob := Service.Scheduler.save_state sched ~device)) in
  let load_s = match restart_load with Some s -> s | None -> median_of 3 (fun () -> load !blob) in
  (append_s, hashes, save_s, load_s)

(* Counters of the scheduler's metrics report, by sample name. *)
let counters sched =
  List.filter_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i -> (
          match int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v -> Some (String.sub line 0 i, v)
          | None -> None)
      | None -> None)
    (String.split_on_char '\n' (Service.Scheduler.report sched))

let delta before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  float_of_int (get after - get before)

let ratio a b = if b = 0. then 0. else a /. b

(* Per-job weighted mean of [f] over the probed kinds. *)
let weighted probes f =
  let total = List.fold_left (fun acc (n, _) -> acc +. n) 0. probes in
  List.fold_left (fun acc (n, p) -> acc +. (n *. f p)) 0. probes /. total

let collect sched (w : Inputs.t) ~(loop : Service_loop.sample list) ~(prep : Service_loop.sample list)
    ~jobs_per_s ~before ~payloads ~restart_blob =
  let payload kind = Lazy.force payloads.(kind) in
  let after = counters sched in
  let answered = List.filter (fun (s : Service_loop.sample) -> s.Service_loop.answered) loop in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (s : Service_loop.sample) ->
      Hashtbl.replace counts s.Service_loop.kind
        (1 + Option.value (Hashtbl.find_opt counts s.Service_loop.kind) ~default:0))
    answered;
  let kinds = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []) in
  (* The loop's pipelines ride 0-RTT whenever a client's previous job
     was accepted: on the all-clean streaming workloads every job after
     a client's first. The probes resume likewise there, from a ticket
     of one untimed run; elsewhere they pay the full handshake. *)
  let ticket =
    ref
      (if w.Inputs.channel = `Streaming && Array.for_all (fun k -> k.Inputs.expect = Answers.Clean) w.Inputs.kinds
       then
         let kind = fst (List.hd kinds) in
         (direct sched w w.Inputs.kinds.(kind) (payload kind)).Engarde.Provision.ticket
       else None)
  in
  let probes =
    List.map
      (fun (kind, n) ->
        let p, next = probe_kind sched w ~kind ~payload:(payload kind) ~resume:!ticket in
        if !ticket <> None then ticket := next;
        (float_of_int n, p))
      kinds
  in
  let wm f = weighted probes f in
  (* Pipelines the loop ran; tenant-redeploy's loop runs none, so its
     preparation (the same releases, judged once each) stands in. *)
  let piped = List.filter (fun (s : Service_loop.sample) -> s.Service_loop.pipeline > 0.) answered in
  let piped = if piped = [] then List.filter (fun (s : Service_loop.sample) -> s.Service_loop.pipeline > 0.) prep else piped in
  let pipeline_s = Stats.mean (List.map (fun (s : Service_loop.sample) -> s.Service_loop.pipeline) piped) in
  let self = Trace.self_times () in
  let waits =
    List.filter_map
      (fun ((sp : Trace.span), st) ->
        if sp.Trace.job >= 0 && String.starts_with ~prefix:"job " sp.Trace.name then Some st
        else None)
      self
  in
  let largest =
    List.fold_left
      (fun acc (kind, _) -> if String.length (payload kind) > String.length acc then payload kind else acc)
      "" kinds
  in
  let slice = String.sub largest 0 (min (String.length largest) (256 * 1024)) in
  let seal, open_, legacy = channel_rates slice in
  let aes_key = Crypto.Aes.expand (Crypto.Sha256.digest "bench-aes") in
  let append_s, hashes, save_s, load_s =
    audit_probe sched ~answered:(List.length answered) ~restart_blob
  in
  let cache_find =
    let c = Service.Cache.create ~capacity:256 in
    let keys =
      List.map
        (fun (kind, _) ->
          Service.Scheduler.job_key sched
            { Service.Scheduler.client = "probe"; payload = payload kind;
              policy_names = w.Inputs.kinds.(kind).Inputs.policies })
        kinds
    in
    let v =
      { Service.Cache.accepted = true; detail = ""; measurement = ""; programs_digest = "";
        instructions = 0; disassembly_cycles = 0; policy_cycles = 0; loading_cycles = 0;
        findings = [] }
    in
    List.iter (fun k -> Service.Cache.add c k v) keys;
    let n = 1000 in
    let keys = Array.of_list keys in
    let t0 = now () in
    for i = 0 to n - 1 do
      ignore (Service.Cache.find c keys.(i mod Array.length keys))
    done;
    (now () -. t0) /. float_of_int n
  in
  let provision = (Service.Scheduler.config sched).Service.Scheduler.provision in
  (* The 1024-bit platform quoting key every pipeline run generates
     afresh from the service's seed: the same primes, the same cost. *)
  let rsa =
    median_of 3 (fun () ->
        time (fun () -> Sgx.Quote.device_create ~seed:(provision.Engarde.Provision.seed ^ "/device")))
  in
  let measure =
    let fresh = ref 0 in
    median_of 3 (fun () ->
        (* Another EPC size misses the process-wide measurement memo. *)
        incr fresh;
        let c = { provision with Engarde.Provision.epc_pages = provision.Engarde.Provision.epc_pages + 1000 + !fresh } in
        time (fun () -> Engarde.Provision.expected_measurement c))
  in
  let policy_time name =
    let users = List.filter (fun (_, p) -> List.mem_assoc name p.policies) probes in
    if users = [] then 0. else weighted users (fun p -> List.assoc name p.policies)
  in
  let counter name (r : Engarde.Report.t) =
    match name with
    | "disassembly" -> r.Engarde.Report.disassembly
    | "analysis" -> r.Engarde.Report.analysis
    | "cfg" -> r.Engarde.Report.cfg
    | "callgraph" -> r.Engarde.Report.callgraph
    | "summary" -> r.Engarde.Report.summary
    | "policy" -> r.Engarde.Report.policy
    | "loading" -> r.Engarde.Report.loading
    | "provisioning" -> r.Engarde.Report.provisioning
    | p -> invalid_arg p
  in
  let modelled name p = float_of_int (cycles (counter name p.report)) in
  let phase name = wm (modelled name) in
  let inspect_cycles p =
    List.fold_left (fun acc n -> acc +. modelled n p) 0.
      [ "analysis"; "cfg"; "callgraph"; "summary"; "policy" ]
  in
  let inspect_wall p =
    p.index +. p.cfg +. p.callgraph +. p.summary +. List.fold_left (fun acc (_, s) -> acc +. s) 0. p.policies
  in
  let runs = delta before after "pipeline_runs_total" in
  let hits = List.length (List.filter (fun (s : Service_loop.sample) -> s.Service_loop.hit) answered) in
  let values =
    [
      ("service.pipeline_s", pipeline_s);
      ("service.queue_wait_s", if waits = [] then 0. else Stats.median waits);
      ("service.cache_hit_ratio", ratio (float_of_int hits) (float_of_int (List.length answered)));
      ("service.pipeline_runs", runs);
      ("service.cache_key_s", wm (fun p -> p.cache_key));
      ("service.cache_find_s", cache_find);
      ("service.traced_jobs_per_s", jobs_per_s);
      ("audit.append_s", append_s);
      ("audit.hashes_per_append", hashes);
      ("audit.save_state_s", save_s);
      ("audit.load_state_s", load_s);
      ("provision.handshake_s", wm (fun p -> p.handshake));
      ("provision.ingest_s", wm (fun p -> p.ingest));
      ("provision.verdict_s", wm (fun p -> p.verdict));
      ("channel.ttfpe_s", wm (fun p -> p.ttfpe));
      ("channel.record_seal_MBps", seal);
      ("channel.record_open_MBps", open_);
      ("channel.legacy_block_MBps", legacy);
      ( "channel.spec_adopted_ratio",
        ratio
          (delta before after "channel_speculative_adopted_total")
          (delta before after "channel_speculative_hashes_total") );
      ("channel.resumed_ratio", ratio (delta before after "channel_resumptions_total") runs);
      ("crypto.aes_ctr_MBps", mbps (String.length slice) (fun () -> Crypto.Aes.ctr ~key:aes_key ~nonce:(String.make 16 '\x00') slice));
      ("crypto.sha256_MBps", mbps (String.length largest) (fun () -> Crypto.Sha256.digest largest));
      ("crypto.rsa_keygen_s", rsa);
      ("sgx.measure_s", measure);
      ("elf.parse_s", wm (fun p -> p.parse));
      ("disasm.run_s", wm (fun p -> p.disasm));
      ("disasm.insns_per_s", wm (fun p -> float_of_int p.insns) /. wm (fun p -> p.disasm));
      ("analysis.index_s", wm (fun p -> p.index));
      ("cfg.build_s", wm (fun p -> p.cfg));
      ("callgraph.build_s", wm (fun p -> p.callgraph));
      ("summary.all_s", wm (fun p -> p.summary));
    ]
    @ List.map (fun n -> ("policy." ^ n ^ "_s", policy_time n)) Catalog.policy_names
    @ [ ("policyvm.overhead_ratio", ratio (wm (fun p -> p.vm)) (wm (fun p -> p.native))) ]
    @ List.map (fun ph -> ("modelled." ^ ph ^ "_cycles", phase ph)) Catalog.modelled_phases
    @ [
        ( "ratio.disasm_cycles_per_ns",
          ratio (phase "disassembly") (wm (fun p -> p.disasm) *. 1e9) );
        ("ratio.policy_cycles_per_ns", ratio (wm inspect_cycles) (wm inspect_wall *. 1e9));
      ]
  in
  let split = wm (fun p -> p.handshake +. p.ingest +. p.verdict) in
  (values, split /. pipeline_s)
