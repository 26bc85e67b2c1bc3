module Scheduler = Service.Scheduler

type config = {
  nodes : int;
  seed : string;
  node_config : Scheduler.config;
  steal_margin : int;
  quarantine_after : int;
}

let default_config =
  {
    nodes = 2;
    seed = "engarde-fleet";
    node_config = { Scheduler.default_config with Scheduler.audit = true };
    steal_margin = 8;
    quarantine_after = 2000;
  }

type slot = {
  node : Node.t;
  mutable failed : bool;  (* chaos: no longer pumped *)
  mutable is_quarantined : bool;
  mutable stuck : int;  (* rounds holding work without a completion *)
  mutable inflight : (int * Scheduler.job) list;  (* (seq, job), newest first *)
  mutable completed : int;
  mutable attempts : int;  (* pipeline executions, summed off completions *)
}

type t = {
  cfg : config;
  fleet_manifest : Manifest.t;
  slots : slot array;
  mutable done_jobs : (int * Scheduler.completion) list;  (* newest first *)
  mutable quarantine_log : (int * string) list;  (* newest first *)
}

let u32le v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let manifest t = t.fleet_manifest
let node t i = t.slots.(i).node

let live t i =
  let s = t.slots.(i) in
  (not s.is_quarantined) && not s.failed

let create cfg =
  if cfg.nodes <= 0 then invalid_arg "Fleet.Coordinator.create: nodes must be positive";
  let node_config = { cfg.node_config with Scheduler.audit = true } in
  let service_measurement =
    Engarde.Provision.expected_measurement node_config.Scheduler.provision
  in
  let fleet_manifest = Manifest.build ~nodes:cfg.nodes ~service_measurement in
  (* One attestation device per node, deterministically provisioned
     from the fleet seed; the publics are pinned fleet-wide (the
     hardware trust root MAGE does not remove). *)
  let devices =
    Array.init cfg.nodes (fun i ->
        Sgx.Quote.device_create ~seed:(Printf.sprintf "%s/device-%d" cfg.seed i))
  in
  let peer_publics = Array.map Sgx.Quote.device_public devices in
  let make_node i =
    Node.create ~manifest:fleet_manifest ~id:i ~device:devices.(i) ~peer_publics
      ~nonce_seed:(Printf.sprintf "%s/nonce-%d" cfg.seed i)
      node_config
  in
  let slots =
    Array.init cfg.nodes (fun i ->
        {
          node = make_node i;
          failed = false;
          is_quarantined = false;
          stuck = 0;
          inflight = [];
          completed = 0;
          attempts = 0;
        })
  in
  let t = { cfg; fleet_manifest; slots; done_jobs = []; quarantine_log = [] } in
  Array.iteri
    (fun i si -> Array.iteri (fun j sj -> if i < j then Node.connect si.node sj.node) slots |> ignore;
      ignore i)
    slots;
  Array.iter (fun s -> Node.begin_handshake s.node) slots;
  (* Drive the handshake to completion: each round moves every pair one
     message forward (hello in, quote out; quote in, attested). *)
  for _ = 1 to 4 + cfg.nodes do
    Array.iter (fun s -> ignore (Node.pump s.node)) slots
  done;
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j _ ->
          if i <> j && not (Node.attested si.node j) then
            failwith (Printf.sprintf "Fleet.Coordinator.create: node %d failed to attest node %d" i j))
        slots)
    slots;
  t

(* Highest-random-weight (rendezvous) hash over the live nodes: every
   coordinator computes the same winner for a key without shared state,
   and removing a node only remaps the keys that pointed at it. *)
let rendezvous t key =
  let best = ref (-1) and best_score = ref "" in
  Array.iteri
    (fun i _ ->
      if live t i then begin
        let score = Crypto.Sha256.digest ("EGFLEET-ROUTE\x00" ^ key ^ u32le i) in
        if !best < 0 || String.compare score !best_score > 0 then begin
          best := i;
          best_score := score
        end
      end)
    t.slots;
  if !best < 0 then failwith "Fleet.Coordinator: no live nodes";
  !best

let load t i = (Scheduler.queue_stats (Node.scheduler t.slots.(i).node)).Service.Queue.depth

let route t job =
  let key = Scheduler.job_key (Node.scheduler t.slots.(0).node) job in
  let preferred = rendezvous t key in
  (* Work stealing: spill to the least-loaded live node when the warm
     node is backed up well past it. *)
  let least = ref preferred in
  Array.iteri (fun i _ -> if live t i && load t i < load t !least then least := i) t.slots;
  if load t preferred - load t !least > t.cfg.steal_margin then !least else preferred

let submit t ?node:forced job =
  let target = match forced with Some n -> n | None -> route t job in
  let slot = t.slots.(target) in
  let sched = Node.scheduler slot.node in
  let key = Scheduler.job_key sched job in
  match Scheduler.submit sched job with
  | Error why -> Error why
  | Ok seq ->
      slot.inflight <- (seq, job) :: slot.inflight;
      (* A spilled (or forced) job that rendezvous-routes elsewhere:
         ask the warm node for its verdict so the cache can answer
         before the pipeline does. *)
      let preferred = rendezvous t key in
      if preferred <> target && live t preferred && Node.attested slot.node preferred then
        Node.request_pull slot.node ~peer:preferred ~key;
      Ok (target, seq)

let quarantine t i ~why =
  let slot = t.slots.(i) in
  if not slot.is_quarantined then begin
    slot.is_quarantined <- true;
    t.quarantine_log <- (i, why) :: t.quarantine_log;
    Array.iteri
      (fun j s -> if j <> i then Node.quarantine_peer s.node i)
      t.slots;
    (* Survivors take over the quarantined node's unfinished work. Its
       own verdicts stay only where peers already verified them. *)
    let orphans = List.rev_map snd slot.inflight in
    slot.inflight <- [];
    List.iter (fun job -> ignore (submit t job)) orphans
  end

let quarantined t = List.rev t.quarantine_log

let fail_node t i = t.slots.(i).failed <- true

let pump t =
  let collected = ref 0 in
  Array.iteri
    (fun i slot ->
      if not slot.is_quarantined then begin
        let comps = if slot.failed then [] else Node.pump slot.node in
        if comps <> [] then begin
          slot.stuck <- 0;
          List.iter
            (fun (c : Scheduler.completion) ->
              slot.inflight <-
                List.filter (fun (seq, _) -> seq <> c.Scheduler.seq) slot.inflight;
              slot.completed <- slot.completed + 1;
              slot.attempts <- slot.attempts + c.Scheduler.attempts;
              t.done_jobs <- (i, c) :: t.done_jobs;
              incr collected)
            comps
        end
        else if slot.inflight <> [] then begin
          slot.stuck <- slot.stuck + 1;
          if slot.stuck > t.cfg.quarantine_after then
            quarantine t i ~why:"unresponsive: work in flight but no completions"
        end
      end)
    t.slots;
  !collected

let completions t =
  let out = List.rev t.done_jobs in
  t.done_jobs <- [];
  out

let idle t =
  Array.for_all
    (fun slot ->
      slot.is_quarantined
      || (slot.inflight = []
         && (not (Scheduler.busy (Node.scheduler slot.node)))
         && not (Channel.Session.Mux.pending (Node.mux slot.node))))
    t.slots

let run_until_idle ?(max_rounds = 2_000_000) t =
  let rounds = ref 0 in
  (* Two quiet rounds: one for straggler peer messages to drain, one to
     confirm nothing new appeared. *)
  let quiet = ref 0 in
  while !quiet < 2 && !rounds < max_rounds do
    let got = pump t in
    if got = 0 && idle t then incr quiet else quiet := 0;
    incr rounds
  done;
  if !quiet < 2 then failwith "Fleet.Coordinator.run_until_idle: round budget exhausted";
  completions t

type node_stats = {
  completed : int;
  cross_hits : int;
  imported : int;
  pipeline_runs : int;
}

let stats t =
  Array.map
    (fun (slot : slot) ->
      {
        completed = slot.completed;
        cross_hits = Node.cross_hits slot.node;
        imported = Node.imported_count slot.node;
        pipeline_runs = slot.attempts;
      })
    t.slots

let report t i = Scheduler.report (Node.scheduler t.slots.(i).node)
