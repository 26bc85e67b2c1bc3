(* Domain-pool and verdict-cache tests: every future resolves to its
   own task's outcome whatever the completion order, failures rethrow
   without poisoning the pool, shutdown is graceful and idempotent and
   never strands a task that [submit] accepted, the LRU cache agrees
   with a reference model, export/import keeps recency, and a
   multi-domain stress run hammers one hot key. *)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

exception Task_fail of int

let task_list_gen =
  QCheck.Gen.(
    pair (int_range 1 4)
      (list_size (int_range 0 25) (triple small_nat bool (int_bound 2))))

let task_list_print (domains, spec) =
  Printf.sprintf "domains=%d tasks=[%s]" domains
    (String.concat "; "
       (List.map
          (fun (v, fails, d) ->
            Printf.sprintf "%d%s/d%d" v (if fails then "!" else "") d)
          spec))

(* Staggered sleeps vary the completion order between runs; each
   future must still hand back exactly its own task's value or
   exception. *)
let pool_await_own_outcome =
  QCheck.Test.make ~count:30 ~name:"await returns its own outcome"
    (QCheck.make ~print:task_list_print task_list_gen)
    (fun (domains, spec) ->
      let pool = Service.Pool.create ~domains in
      Fun.protect
        ~finally:(fun () -> Service.Pool.shutdown pool)
        (fun () ->
          let futures =
            List.map
              (fun (v, fails, delay) ->
                Service.Pool.submit pool (fun () ->
                    if delay = 2 then Unix.sleepf 0.0005
                    else if delay = 1 then Domain.cpu_relax ();
                    if fails then raise (Task_fail v) else (2 * v) + 1))
              spec
          in
          List.for_all2
            (fun (v, fails, _) fut ->
              match Service.Pool.await fut with
              | r -> (not fails) && r = (2 * v) + 1
              | exception Task_fail w -> fails && w = v)
            spec futures))

exception Boom

let pool_await_rethrows () =
  let pool = Service.Pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Service.Pool.shutdown pool)
    (fun () ->
      let fut = Service.Pool.submit pool (fun () -> raise Boom) in
      Alcotest.check_raises "await rethrows" Boom (fun () -> ignore (Service.Pool.await fut));
      Alcotest.check_raises "await rethrows again" Boom (fun () ->
          ignore (Service.Pool.await fut));
      (* The failure stayed in its future: the workers still serve. *)
      let futs = List.init 4 (fun i -> Service.Pool.submit pool (fun () -> i * 10)) in
      Alcotest.(check (list int))
        "pool serves after a failed task" [ 0; 10; 20; 30 ]
        (List.map Service.Pool.await futs))

let pool_shutdown () =
  let pool = Service.Pool.create ~domains:1 in
  (* One worker, several slow tasks: most are still queued when
     shutdown starts, and graceful means they all complete. *)
  let futs =
    List.init 5 (fun i ->
        Service.Pool.submit pool (fun () ->
            Unix.sleepf 0.002;
            41 + i))
  in
  Service.Pool.shutdown pool;
  Alcotest.(check (list int))
    "queued tasks still completed" [ 41; 42; 43; 44; 45 ]
    (List.map Service.Pool.await futs);
  (* Idempotent. *)
  Service.Pool.shutdown pool;
  (* Submissions after shutdown are refused loudly. *)
  (match Service.Pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown did not raise"
  | exception Invalid_argument _ -> ());
  match Service.Pool.create ~domains:0 with
  | _ -> Alcotest.fail "domains:0 accepted"
  | exception Invalid_argument _ -> ()

(* A submitter domain races [shutdown] from this one. Whatever the
   interleaving, every [submit] that returned enqueued a task that ran
   before [shutdown] returned, and every other one raised. *)
let pool_submit_races_shutdown () =
  for _ = 1 to 20 do
    let pool = Service.Pool.create ~domains:2 in
    let ran = Atomic.make 0 and accepted = Atomic.make 0 in
    let submitter =
      Domain.spawn (fun () ->
          try
            while true do
              ignore (Service.Pool.submit pool (fun () -> Atomic.incr ran));
              Atomic.incr accepted
            done
          with Invalid_argument _ -> ())
    in
    while Atomic.get accepted < 50 do
      Domain.cpu_relax ()
    done;
    Service.Pool.shutdown pool;
    Domain.join submitter;
    Alcotest.(check int) "tasks run = submits returned" (Atomic.get accepted) (Atomic.get ran)
  done

(* ------------------------------------------------------------------ *)
(* Cache vs a reference model (qcheck)                                 *)
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

type op = Add of string * string | Find of string | Mem of string

let op_gen =
  let open QCheck.Gen in
  (* A dozen keys over a tiny capacity: adds constantly evict, so the
     sequences are get/put/evict-heavy by construction. *)
  let key = map (Printf.sprintf "key-%d") (int_bound 11) in
  frequency
    [
      (3, map2 (fun k i -> Add (k, Printf.sprintf "%s=%d" k i)) key (int_bound 99));
      (2, map (fun k -> Find k) key);
      (1, map (fun k -> Mem k) key);
    ]

let scenario_gen = QCheck.Gen.(pair (int_range 1 6) (list_size (int_range 1 120) op_gen))

let scenario_print (capacity, ops) =
  Printf.sprintf "capacity=%d ops=[%s]" capacity
    (String.concat "; "
       (List.map
          (function
            | Add (k, v) -> Printf.sprintf "Add(%s,%s)" k v
            | Find k -> Printf.sprintf "Find(%s)" k
            | Mem k -> Printf.sprintf "Mem(%s)" k)
          ops))

(* The model: a most-recent-first association list, truncated to
   capacity, plus the three counters. *)
let cache_matches_model =
  QCheck.Test.make ~count:300 ~name:"LRU = reference model"
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (capacity, ops) ->
      let cache = Service.Cache.create ~capacity in
      let model = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let value v = Option.map (fun c -> c.Service.Cache.detail) v in
      List.for_all
        (fun op ->
          match op with
          | Add (k, v) ->
              Service.Cache.add cache k (dummy_verdict v);
              let fresh = not (List.mem_assoc k !model) in
              let l = (k, v) :: List.remove_assoc k !model in
              if fresh && List.length l > capacity then begin
                incr evictions;
                model := List.filteri (fun i _ -> i < capacity) l
              end
              else model := l;
              true
          | Find k ->
              let expected = List.assoc_opt k !model in
              (match expected with
              | Some v ->
                  incr hits;
                  model := (k, v) :: List.remove_assoc k !model
              | None -> incr misses);
              value (Service.Cache.find cache k) = expected
          | Mem k -> Service.Cache.mem cache k = List.mem_assoc k !model)
        ops
      && Service.Cache.stats cache
         = {
             Service.Cache.hits = !hits;
             misses = !misses;
             evictions = !evictions;
             size = List.length !model;
             capacity;
           })

(* Export writes LRU first, so an importer replays the exporter's
   recency order — including a refresh by [find] — and a smaller one
   keeps the hottest entries. *)
let cache_export_import_recency () =
  let key i = Printf.sprintf "key-%d" i in
  let a = Service.Cache.create ~capacity:3 in
  List.iter (fun i -> Service.Cache.add a (key i) (dummy_verdict (key i))) [ 0; 1; 2 ];
  (* key-0 was inserted first but is now the most recently used. *)
  ignore (Service.Cache.find a (key 0));
  let blob = Service.Cache.export a in
  let b = Service.Cache.create ~capacity:3 in
  (match Service.Cache.import b blob with
  | Ok n -> Alcotest.(check int) "all entries replayed" 3 n
  | Error e -> Alcotest.failf "import failed: %s" e);
  Service.Cache.add b (key 3) (dummy_verdict (key 3));
  List.iter
    (fun (i, present) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s present after the next insert" (key i))
        present
        (Service.Cache.mem b (key i)))
    [ (0, true); (1, false); (2, true); (3, true) ];
  let c = Service.Cache.create ~capacity:2 in
  (match Service.Cache.import c blob with
  | Ok n -> Alcotest.(check int) "every entry offered" 3 n
  | Error e -> Alcotest.failf "import failed: %s" e);
  List.iter
    (fun (i, present) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s kept by a capacity-2 importer" (key i))
        present
        (Service.Cache.mem c (key i)))
    [ (0, true); (1, false); (2, true) ]

(* ------------------------------------------------------------------ *)
(* Stress: many domains, one hot key                                   *)
(* ------------------------------------------------------------------ *)

let cache_stress_one_hot_key () =
  let domains = 4 and iters = 400 in
  let cache = Service.Cache.create ~capacity:3 in
  let hot = "the-hot-key" in
  List.init domains (fun d ->
      Domain.spawn (fun () ->
          for i = 1 to iters do
            (* Everyone hammers the hot key; a rotating cold key keeps
               the eviction path busy. *)
            Service.Cache.add cache hot (dummy_verdict (Printf.sprintf "%d/%d" d i));
            ignore (Service.Cache.find cache hot);
            let cold = Printf.sprintf "cold-%d" (i mod 7) in
            ignore (Service.Cache.find cache cold);
            Service.Cache.add cache cold (dummy_verdict cold);
            ignore (Service.Cache.mem cache hot)
          done))
  |> List.iter Domain.join;
  let s = Service.Cache.stats cache in
  Alcotest.(check bool) "size within capacity" true
    (s.Service.Cache.size <= s.Service.Cache.capacity);
  Alcotest.(check int) "capacity as configured" 3 s.Service.Cache.capacity;
  (* Counters were taken under the lock: every find is exactly one hit
     or one miss, none lost to races. *)
  Alcotest.(check int) "hits + misses = finds"
    (2 * domains * iters)
    (s.Service.Cache.hits + s.Service.Cache.misses);
  (* At quiescence the cache behaves as an ordinary sequential
     structure again. *)
  Service.Cache.add cache hot (dummy_verdict "post-stress");
  match Service.Cache.find cache hot with
  | Some v ->
      Alcotest.(check string) "post-stress value readable" "post-stress"
        v.Service.Cache.detail
  | None -> Alcotest.fail "hot key missing immediately after add"

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          QCheck_alcotest.to_alcotest pool_await_own_outcome;
          Alcotest.test_case "await rethrows, pool still serves" `Quick pool_await_rethrows;
          Alcotest.test_case "graceful, idempotent shutdown" `Quick pool_shutdown;
          Alcotest.test_case "submit racing shutdown" `Quick pool_submit_races_shutdown;
        ] );
      ( "cache",
        [
          QCheck_alcotest.to_alcotest cache_matches_model;
          Alcotest.test_case "export/import keeps recency" `Quick cache_export_import_recency;
          Alcotest.test_case "multi-domain stress on one hot key" `Quick
            cache_stress_one_hot_key;
        ] );
    ]
