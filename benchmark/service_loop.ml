(* The service under load: set-up, and the closed loop of [clients]
   logical clients over one [Service.Scheduler] in this one thread.
   Each client submits its next job only after its previous verdict
   has been drained. *)

let now = Trace.now

(* The fast enclave of bench/: a full-size build takes ~10 s per job.
   The seed stays fixed: it also seeds the simulated platform's quoting
   key, which every pipeline generates afresh and whose cost depends on
   it (0.11 s for this one; other seeds cost up to 0.4 s more). *)
let fast_provision =
  {
    Engarde.Provision.default_config with
    Engarde.Provision.epc_pages = 4096;
    heap_pages = 512;
    bootstrap_pages = 8;
    image_pages = 1600;
    rsa_bits = 512;
    seed = "engarde-bench";
  }

let device = lazy (Sgx.Quote.device_create ~seed:"engarde-bench-device")

(* Each service [instance] gets an EPC one page larger than the last:
   the enclave it builds and its measurement are unchanged, but the
   process-wide measurement memo (keyed by the whole configuration)
   misses, as it would in a fresh service process. *)
let config (w : Inputs.t) ~instance =
  {
    Service.Scheduler.default_config with
    Service.Scheduler.workers = Inputs.clients;
    cache = (if w.Inputs.cache then `Enabled 256 else `Disabled);
    audit = w.Inputs.audit;
    channel = w.Inputs.channel;
    provision =
      {
        fast_provision with
        Engarde.Provision.epc_pages = fast_provision.Engarde.Provision.epc_pages + instance;
      };
  }

exception Mismatch of string

(* Job indices below this are tenant-redeploy's preparation, which
   fills the cache the measured service restarts from. *)
let prep_g = -100

type sample = {
  g : int;  (** global job index; negative for set-up and preparation jobs *)
  kind : int;
  latency : float;  (** submit to drained verdict, seconds *)
  done_at : float;  (** when the verdict was drained *)
  pipeline : float;  (** wall time of this job's pipeline runs (traced runs only) *)
  hit : bool;
  cycles : int;  (** modelled disassembly + policy + loading cycles of the verdict *)
  answered : bool;  (** false: rejected at admission, timed out, or channel failure *)
}

type flight = {
  job : Service.Scheduler.job;
  fg : int;
  fkind : int;
  client : int;
  t_submit : float;
  span : int;
  mutable pipe : float;
}

(* Jobs in flight, and the one whose attempt is being dispatched: the
   scheduler calls [fault] with the job immediately before [dispatch]
   on the same attempt, which is how a pipeline span finds its job. *)
type hooks = { mutable inflight : flight list; mutable current : Service.Scheduler.job option }

let hooks () = { inflight = []; current = None }

let traced hooks (cfg : Service.Scheduler.config) =
  if not !Trace.enabled then cfg
  else {
    cfg with
    Service.Scheduler.fault =
      (fun ~attempt:_ job ->
        hooks.current <- Some job;
        None);
    dispatch =
      (fun pipeline ->
        let flight =
          Option.bind hooks.current (fun j -> List.find_opt (fun f -> f.job == j) hooks.inflight)
        in
        let parent, job = match flight with Some f -> (f.span, f.fg) | None -> (0, -1) in
        let t0 = now () in
        let r = pipeline () in
        let t1 = now () in
        ignore (Trace.add ~job ~parent "service.pipeline" t0 t1);
        Option.iter (fun f -> f.pipe <- f.pipe +. (t1 -. t0)) flight;
        fun () -> r);
  }

(* Modelled cycles per kind, checked to repeat exactly across every job
   of the process. *)
let cycles_seen : (int, int) Hashtbl.t = Hashtbl.create 16

let judge (w : Inputs.t) f (c : Service.Scheduler.completion) ~t_done =
  let kind = w.Inputs.kinds.(f.fkind) in
  let fail why = raise (Mismatch (Printf.sprintf "%s job %d (%s): %s" w.Inputs.name f.fg kind.Inputs.label why)) in
  let sample answered cycles =
    { g = f.fg; kind = f.fkind; latency = t_done -. f.t_submit; done_at = t_done; pipeline = f.pipe;
      hit = c.Service.Scheduler.cache_hit; cycles; answered }
  in
  match c.Service.Scheduler.verdict with
  | Error _ -> sample false 0
  | Ok v ->
      (match
         Answers.check kind.Inputs.expect ~accepted:v.Service.Cache.accepted
           ~codes:(List.map (fun (x : Engarde.Policy.finding) -> x.Engarde.Policy.code) v.Service.Cache.findings)
       with
      | Ok () -> ()
      | Error why -> fail why);
      if w.Inputs.redeploy && f.fg > prep_g && not c.Service.Scheduler.cache_hit then
        fail "a redeployed release missed the warm-restarted cache";
      if w.Inputs.fresh_per_job && c.Service.Scheduler.cache_hit then
        fail "a never-seen build was answered from the cache";
      let cycles =
        v.Service.Cache.disassembly_cycles + v.Service.Cache.policy_cycles + v.Service.Cache.loading_cycles
      in
      (match Hashtbl.find_opt cycles_seen f.fkind with
      | Some c0 when c0 <> cycles ->
          fail (Printf.sprintf "modelled cycles %d, earlier %d: not repeatable" cycles c0)
      | Some _ -> ()
      | None -> Hashtbl.replace cycles_seen f.fkind cycles);
      sample true cycles

(* Drive [sched] until no client has work: [next client] is that
   client's next [(g, kind, job)], or [None] once it is done. *)
let drive (w : Inputs.t) sched hooks ~next =
  let samples = ref [] in
  let rec submit client =
    match next client with
    | None -> ()
    | Some (g, kind, job) -> (
        let span = Trace.open_ ~job:g ("job " ^ w.Inputs.kinds.(kind).Inputs.label) in
        let f = { job; fg = g; fkind = kind; client; t_submit = now (); span; pipe = 0. } in
        match
          Trace.with_span ~job:g ~parent:span "service.submit" (fun _ ->
              Service.Scheduler.submit sched job)
        with
        | Ok _ -> hooks.inflight <- f :: hooks.inflight
        | Error _ ->
            Trace.close span;
            let t = now () in
            samples :=
              { g; kind; latency = t -. f.t_submit; done_at = t; pipeline = 0.; hit = false; cycles = 0;
                answered = false }
              :: !samples;
            submit client)
  in
  for c = 0 to Inputs.clients - 1 do
    submit c
  done;
  while hooks.inflight <> [] do
    Service.Scheduler.tick sched;
    let done_ = Service.Scheduler.drain_completions sched in
    let t_done = now () in
    List.iter
      (fun (c : Service.Scheduler.completion) ->
        match List.find_opt (fun f -> f.job == c.Service.Scheduler.job) hooks.inflight with
        | None -> ()
        | Some f ->
            hooks.inflight <- List.filter (fun x -> x != f) hooks.inflight;
            Trace.close f.span;
            samples := judge w f c ~t_done :: !samples;
            submit f.client)
      done_
  done;
  List.rev !samples

let job_for (w : Inputs.t) ~seed ~payloads ~client g kind =
  let k = w.Inputs.kinds.(kind) in
  let payload =
    if w.Inputs.fresh_per_job then
      Inputs.payload k (Inputs.nonce ~seed ~workload:w.Inputs.name (Printf.sprintf "job-%d" g))
    else Lazy.force payloads.(kind)
  in
  let client =
    if w.Inputs.redeploy then
      Printf.sprintf "tenant-%03d" (Hashtbl.hash (seed, g) mod 400)
    else Printf.sprintf "client-%d" client
  in
  { Service.Scheduler.client; payload; policy_names = k.Inputs.policies }

(* One job per listed [(g, kind)], all from the first client slot, in
   order: set-up and preparation traffic. *)
let run_jobs w sched hooks ~seed ~payloads jobs =
  let pending = ref jobs in
  drive w sched hooks ~next:(fun client ->
      if client <> 0 then None
      else
        match !pending with
        | [] -> None
        | (g, kind) :: rest ->
            pending := rest;
            Some (g, kind, job_for w ~seed ~payloads ~client g kind))

(* The untimed preparation of tenant-redeploy: judge every release once
   and seal the service state the measured service restarts from. *)
let prepare w hooks ~seed ~payloads =
  let sched = Service.Scheduler.create (traced hooks (config w ~instance:100)) in
  let jobs = List.init (Array.length w.Inputs.kinds) (fun k -> (prep_g - k, k)) in
  let samples = run_jobs w sched hooks ~seed ~payloads jobs in
  if List.exists (fun s -> not s.answered) samples then
    raise (Mismatch "tenant-redeploy: a release went unanswered in preparation");
  (Service.Scheduler.save_state sched ~device:(Lazy.force device), samples)

(* One set-up: a fresh scheduler (warm-restarted when [blob] is given)
   until the verdict of one warm-up job. Returns the scheduler and the
   elapsed seconds. *)
let setup w hooks ~seed ~payloads ~blob ~rep =
  let span = Trace.open_ "setup" in
  let t0 = now () in
  let sched = Service.Scheduler.create (traced hooks (config w ~instance:rep)) in
  Option.iter
    (fun blob ->
      match
        Trace.with_span ~parent:span "audit.load_state" (fun _ ->
            Service.Scheduler.load_state sched ~device:(Lazy.force device) blob)
      with
      | Ok _ -> ()
      | Error e -> raise (Mismatch ("warm restart refused: " ^ Audit.Seal.error_to_string e)))
    blob;
  let samples = run_jobs w sched hooks ~seed ~payloads [ (-1 - rep, w.Inputs.warmup) ] in
  let dt = now () -. t0 in
  Trace.close span;
  if not (List.for_all (fun s -> s.answered) samples) then
    raise (Mismatch (w.Inputs.name ^ ": the set-up job went unanswered"));
  (sched, dt)

(* The measured closed loop. Rounds start for [window] seconds, but
   never fewer than [min_rounds]; a round, once started, runs whole.
   The garbage of input synthesis and set-up is compacted away first,
   so the service's own heap is what the collector walks. Returns the
   samples and the loop's start and end. *)
let measure w sched hooks ~seed ~payloads ~window ~min_rounds =
  Gc.compact ();
  let t0 = now () in
  let deadline = t0 +. window in
  let round = Array.make Inputs.clients 0 in
  let opened = Hashtbl.create 64 in
  let round_open r =
    match Hashtbl.find_opt opened r with
    | Some b -> b
    | None ->
        let b = r < min_rounds || now () < deadline in
        Hashtbl.replace opened r b;
        b
  in
  let next client =
    let r = round.(client) in
    if not (round_open r) then None
    else begin
      round.(client) <- r + 1;
      let slot = (Inputs.slot_of_client ~seed r).(client) in
      let g = (r * Inputs.clients) + slot in
      let kind = w.Inputs.kind_of_job g in
      Some (g, kind, job_for w ~seed ~payloads ~client g kind)
    end
  in
  let samples = drive w sched hooks ~next in
  (samples, t0, now ())

(* Verdicts per second of each round: its verdicts over the time since
   the previous round's last verdict (the loop start for round 0). *)
let round_rates samples ~t0 =
  let rounds = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.answered then begin
        let r = s.g / Inputs.clients in
        let n, t = Option.value (Hashtbl.find_opt rounds r) ~default:(0, 0.) in
        Hashtbl.replace rounds r (n + 1, Float.max t s.done_at)
      end)
    samples;
  let ends = List.sort compare (Hashtbl.fold (fun r v acc -> (r, v) :: acc) rounds []) in
  snd
    (List.fold_left
       (fun (prev, acc) (_, (n, t)) -> (t, (float_of_int n /. (t -. prev)) :: acc))
       (t0, []) ends)
