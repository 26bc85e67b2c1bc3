(* The inspection-service benchmark. See benchmark/README.md.

   One run:   main.exe --workload W --seed N --seconds S --trace 0|1 [--quick]
   Repeats:   main.exe --repeat K [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
   Compare:   main.exe --compare BASE HEAD
   Smoke:     main.exe --quick   (every workload once, short)

   A single run prints one JSON object as its last stdout line and
   appends a stamped record to benchmark/history.jsonl; a known-answer
   mismatch exits 1 and prints no metrics. *)

let default_seconds = 15.
let history_path = Filename.concat "benchmark" "history.jsonl"
let out_dir = Filename.concat "benchmark" "out"
let in_repo () = Sys.file_exists "benchmark" && Sys.is_directory "benchmark"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit 1) fmt

(* ---- one run ------------------------------------------------------ *)

(* Returns the result line and the fields of its history record. *)
let run_once ~workload ~seed ~seconds ~trace ~quick =
  Trace.enabled := trace;
  let w = Inputs.make workload in
  let payloads =
    Array.map
      (fun (k : Inputs.kind) ->
        lazy (Inputs.payload k (Inputs.nonce ~seed ~workload ("kind/" ^ k.Inputs.label))))
      w.Inputs.kinds
  in
  (* Synthesize every input before anything is timed; a quick run only
     those of its two rounds. *)
  let used =
    if quick then w.Inputs.warmup :: List.init (2 * Inputs.clients) w.Inputs.kind_of_job
    else List.init (Array.length w.Inputs.kinds) Fun.id
  in
  List.iter (fun k -> ignore (Lazy.force payloads.(k))) used;
  let hooks = Service_loop.hooks () in
  let restart_blob, prep =
    if w.Inputs.redeploy then
      let blob, samples = Service_loop.prepare w hooks ~seed ~payloads in
      (Some blob, samples)
    else (None, [])
  in
  let setups =
    List.init (if quick then 1 else 3) (fun rep ->
        Service_loop.setup w hooks ~seed ~payloads ~blob:restart_blob ~rep)
  in
  let sched = fst (List.nth setups (List.length setups - 1)) in
  let window = seconds *. (if trace then 0.5 else 1.) *. if quick then 0.25 else 1. in
  let before = Layers.counters sched in
  let cpu0 = Sys.time () in
  let loop, t0, t1 = Service_loop.measure w sched hooks ~seed ~payloads ~window ~min_rounds:2 in
  let elapsed = t1 -. t0 in
  (* Above 1 when this process was off the CPU during the loop: another
     process on the same machine, not the service, took the time. *)
  let wall_over_cpu = elapsed /. (Sys.time () -. cpu0) in
  let answered = List.filter (fun (s : Service_loop.sample) -> s.Service_loop.answered) loop in
  let latencies = List.map (fun (s : Service_loop.sample) -> s.Service_loop.latency) answered in
  (* The first two rounds hold the same kinds on every seed and every
     machine, so this mean is exactly repeatable. *)
  let reference =
    List.filter (fun (s : Service_loop.sample) -> s.Service_loop.g < 2 * Inputs.clients) answered
  in
  let n = List.length answered and attempted = List.length loop in
  if n = 0 then die "%s: no job was answered" workload;
  let e2e =
    [
      ("setup_s", Stats.median (List.map snd setups));
      (* The median round, so one disturbed round does not move it. *)
      ("jobs_per_s", Stats.median (Service_loop.round_rates loop ~t0));
      ("verdict_p50_s", Stats.median latencies);
      ("verdict_tail_s", Stats.tail latencies);
      ( "modelled_cycles_per_job",
        Stats.mean
          (List.map (fun (s : Service_loop.sample) -> float_of_int s.Service_loop.cycles) reference) );
      ("answered_ratio", float_of_int n /. float_of_int attempted);
    ]
  in
  let layers, split =
    if trace then
      Layers.collect sched w ~loop ~prep ~jobs_per_s:(List.assoc "jobs_per_s" e2e) ~before ~payloads
        ~restart_blob
    else ([], 0.)
  in
  let e2e =
    e2e @ [ ("peak_heap_mb", float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6) ]
  in
  Printf.printf "%s seed=%d%s: %d verdicts (%d attempted) in %.2f s (wall/CPU %.2f), set-ups %s s\n"
    workload seed (if trace then " traced" else "") n attempted elapsed wall_over_cpu
    (String.concat "/" (List.map (fun (_, s) -> Printf.sprintf "%.3f" s) setups));
  List.iter (fun (k, v) -> Printf.printf "  %-26s %.6g\n" k v) e2e;
  if trace then begin
    Printf.printf "  provision split / pipeline  %.3f\n" split;
    if in_repo () then begin
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
      Trace.write_chrome path;
      Printf.printf "  trace -> %s\n" path
    end
  end;
  let shown = if trace then Catalog.per_layer else Catalog.end_to_end in
  let all = e2e @ layers in
  let metrics =
    List.map
      (fun (m : Catalog.metric) ->
        match List.assoc_opt m.Catalog.name all with
        | Some v when Float.is_finite v ->
            (m.Catalog.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.Catalog.unit_) ])
        | _ -> die "%s: metric %s was not measured" workload m.Catalog.name)
      shown
  in
  let count x = Json.Num (float_of_int x) in
  ( Json.Obj
      [
        ("correct", Json.Bool true);
        ("attempted", count attempted);
        ("failed", count (attempted - n));
        ("metrics", Json.Obj metrics);
      ],
    [
      ("workload", Json.Str workload);
      ("seed", count seed);
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool trace);
      ("quick", Json.Bool quick);
      ("attempted", count attempted);
      ("verdicts", count n);
      ("wall_over_cpu", Json.Num wall_over_cpu);
      ( "metrics",
        Json.Obj (List.filter_map (fun (k, v) -> if Float.is_finite v then Some (k, Json.Num v) else None) all) );
    ] )

(* ---- history ------------------------------------------------------ *)

let git args =
  if not (Sys.file_exists ".git") then None
  else
    match Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) with
    | exception Unix.Unix_error _ -> None
    | ic -> (
        let out = In_channel.input_all ic in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> Some (String.trim out)
        | _ -> None)

let stamp () =
  let rev = Option.value (git [ "rev-parse"; "HEAD" ]) ~default:"unknown" in
  let dirty =
    match
      git
        [ "status"; "--porcelain"; "--untracked-files=no"; "--"; "."; ":(exclude)" ^ history_path ]
    with
    | Some "" -> Json.Bool false
    | Some _ -> Json.Bool true
    | None -> Json.Null
  in
  [
    ("rev", Json.Str rev);
    ("dirty", dirty);
    ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("host", Json.Str (Unix.gethostname ()));
    ("time", Json.Num (Float.round (Unix.time ())));
  ]

let append_history record =
  if in_repo () then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history_path in
    output_string oc (Json.to_string record ^ "\n");
    close_out oc
  end

(* ---- bounds (BENCHMARK.json) -------------------------------------- *)

let bounds () =
  match In_channel.with_open_text "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      match Json.member "end_to_end" (Json.parse text) with
      | Some (Json.Arr l) ->
          List.filter_map
            (fun m ->
              match (Json.to_str (Json.member "name" m), Json.to_num (Json.member "bound" m)) with
              | Some name, Some b -> Some (name, b)
              | _ -> None)
            l
      | _ -> [])

(* ---- repeats ------------------------------------------------------ *)

let child ~workload ~seed ~seconds ~trace ~quick =
  let args =
    [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ if quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match Json.member "metrics" (Json.parse last) with
      | exception Json.Parse_error e -> Error e
      | Some (Json.Obj ms) ->
          Ok (List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num (Json.member "value" v))) ms)
      | _ -> Error "no metrics")
  | _ -> Error (Printf.sprintf "%s seed %d failed" workload seed)

let summarize ~bounds rows =
  List.iter
    (fun (name, values) ->
      let med = Stats.median values in
      let q1, _, q3 = if List.length values >= 2 then Stats.quartiles values else (med, med, med) in
      let spread = Stats.spread values in
      let flag =
        match List.assoc_opt name bounds with
        | Some b when spread > b -> Printf.sprintf "  OVER bound %.1f%%" (100. *. b)
        | Some b when spread > b /. 3. -> Printf.sprintf "  > bound/3 (%.1f%%)" (100. *. b)
        | _ -> ""
      in
      Printf.printf "  %-30s median %-14.6g IQR [%.6g, %.6g] spread %5.2f%%%s\n" name med q1 q3
        (100. *. spread) flag)
    rows

let repeat ~k ~workloads ~seed ~seconds ~trace ~quick =
  let results = Hashtbl.create 8 in
  let failed = ref 0 in
  for i = 0 to k - 1 do
    let order = if i mod 2 = 0 then workloads else List.rev workloads in
    List.iter
      (fun w ->
        let t0 = Unix.gettimeofday () in
        match child ~workload:w ~seed:(seed + i) ~seconds ~trace:false ~quick with
        | Ok ms ->
            Printf.printf "%s seed %d done in %.1f s\n%!" w (seed + i) (Unix.gettimeofday () -. t0);
            Hashtbl.replace results w (ms :: Option.value (Hashtbl.find_opt results w) ~default:[])
        | Error e ->
            incr failed;
            Printf.printf "FAILED: %s\n%!" e)
      order
  done;
  let bounds = bounds () in
  List.iter
    (fun w ->
      let runs = List.rev (Option.value (Hashtbl.find_opt results w) ~default:[]) in
      Printf.printf "\n%s (%d runs)\n" w (List.length runs);
      if runs <> [] then
        summarize ~bounds
          (List.map
             (fun (m : Catalog.metric) ->
               (m.Catalog.name, List.filter_map (List.assoc_opt m.Catalog.name) runs))
             Catalog.end_to_end);
      if trace then
        match child ~workload:w ~seed ~seconds ~trace:true ~quick with
        | Ok ms ->
            let untraced = List.filter_map (List.assoc_opt "jobs_per_s") runs in
            Printf.printf "  tracing overhead: jobs_per_s %.4g untraced (median) vs %.4g traced\n"
              (if untraced = [] then nan else Stats.median untraced)
              (Option.value (List.assoc_opt "service.traced_jobs_per_s" ms) ~default:nan)
        | Error e ->
            incr failed;
            Printf.printf "FAILED: %s\n" e)
    workloads;
  if !failed > 0 then exit 1

(* ---- compare ------------------------------------------------------ *)

(* Untraced run records from a JSONL file, or from history records
   whose git rev starts with [src]. *)
let runs_of src =
  let from_file = Sys.file_exists src in
  let path = if from_file then src else history_path in
  let lines =
    match In_channel.with_open_text path In_channel.input_lines with
    | exception Sys_error e -> die "%s" e
    | l -> l
  in
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        let r = Json.parse line in
        let rev = Option.value (Json.to_str (Json.member "rev" r)) ~default:"" in
        let traced = Json.member "trace" r = Some (Json.Bool true) in
        let quick = Json.member "quick" r = Some (Json.Bool true) in
        if traced || quick || not (from_file || String.starts_with ~prefix:src rev) then None
        else
          match (Json.to_str (Json.member "workload" r), Json.member "metrics" r) with
          | Some w, Some (Json.Obj ms) ->
              Some (w, List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num (Some v))) ms)
          | _ -> None)
    lines

let compare_runs base head =
  let b = runs_of base and h = runs_of head in
  if b = [] || h = [] then die "no untraced runs for %s" (if b = [] then base else head);
  let bounds = bounds () in
  Printf.printf "%-16s %-24s %14s %14s %8s %8s %7s  %s\n" "workload" "metric" "base" "head"
    "change" "spread" "bound" "verdict";
  List.iter
    (fun w ->
      let values runs name =
        List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt name ms else None) runs
      in
      List.iter
        (fun (m : Catalog.metric) ->
          let bv = values b m.Catalog.name and hv = values h m.Catalog.name in
          if bv <> [] && hv <> [] then
            let bound = Option.value (List.assoc_opt m.Catalog.name bounds) ~default:0. in
            let better = m.Catalog.better in
            Printf.printf "%-16s %-24s %14.6g %14.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n" w m.Catalog.name
              (Stats.median bv) (Stats.median hv)
              (100. *. (0. -. Stats.worse ~better (Stats.median bv) (Stats.median hv)))
              (100. *. Float.max (Stats.spread bv) (Stats.spread hv))
              (100. *. bound)
              (Stats.verdict_to_string (Stats.judge ~better ~bound ~base:bv ~head:hv)))
        Catalog.end_to_end)
    Inputs.names

(* ---- command line ------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref default_seconds in
  let trace = ref false and quick = ref false and repeat_k = ref None and cmp = ref None in
  let rec parse = function
    | "--workload" :: w :: rest ->
        if not (List.mem w Inputs.names || w = "all") then die "unknown workload %s" w;
        workload := (if w = "all" then None else Some w);
        parse rest
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> die "bad seed %s" n);
        parse rest
    | "--seconds" :: s :: rest ->
        seconds :=
          (match float_of_string_opt s with Some s when s > 0. -> s | _ -> die "bad seconds %s" s);
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "1" -> true | "0" -> false | _ -> die "--trace takes 0 or 1");
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--repeat" :: k :: rest ->
        repeat_k := (match int_of_string_opt k with Some k when k > 0 -> Some k | _ -> die "bad repeat %s" k);
        parse rest
    | "--compare" :: a :: b :: rest ->
        cmp := Some (a, b);
        parse rest
    | [] -> ()
    | arg :: _ -> die "unexpected argument %s (see benchmark/README.md)" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!cmp, !repeat_k, !workload) with
  | Some (a, b), _, _ -> compare_runs a b
  | None, Some k, w ->
      repeat ~k ~workloads:(match w with Some w -> [ w ] | None -> Inputs.names) ~seed:!seed
        ~seconds:!seconds ~trace:!trace ~quick:!quick
  | None, None, None when !quick ->
      repeat ~k:1 ~workloads:Inputs.names ~seed:!seed ~seconds:!seconds ~trace:false ~quick:true
  | None, None, None -> die "name a --workload, or use --repeat, --compare or --quick"
  | None, None, Some workload -> (
      match run_once ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~quick:!quick with
      | exception Service_loop.Mismatch why -> die "known-answer mismatch: %s" why
      | result, record ->
          append_history (Json.Obj (stamp () @ record));
          print_endline (Json.to_string result))
