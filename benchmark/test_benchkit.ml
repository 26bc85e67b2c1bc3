(* The benchmark's pure parts: order statistics (pinned to Python's
   statistics.quantiles), the regression rule, the known-answer table
   and the metric catalog against BENCHMARK.json. *)

let close a b = Float.abs (a -. b) < 1e-9
let check_float msg want got = Alcotest.(check bool) (Printf.sprintf "%s: want %g got %g" msg want got) true (close want got)

let test_quartiles () =
  (* Values from Python: statistics.quantiles(xs, n=4). *)
  let case xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    check_float "q1" a q1;
    check_float "q2" b q2;
    check_float "q3" c q3
  in
  case [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (2.75, 5.5, 8.25);
  case [ 3.; 1.; 2. ] (1., 2., 3.);
  case [ 5.; 1. ] (0., 3., 6.);
  case [ 1.5; 2.5; 10.; 4.; 7.25 ] (2., 4., 8.625)

let test_spread_median_tail () =
  check_float "median odd" 4. (Stats.median [ 10.; 1.; 4. ]);
  check_float "median even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  check_float "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  check_float "spread of identical" 0. (Stats.spread [ 7.; 7.; 7. ]);
  check_float "spread of one" 0. (Stats.spread [ 7. ]);
  (* 30 samples: the 11th-largest has exactly ten beyond it. *)
  check_float "tail" 20. (Stats.tail (List.init 30 (fun i -> float_of_int (i + 1))));
  (* 20 samples: the 11th-largest (10) is below the median. *)
  check_float "tail of few" 10.5 (Stats.tail (List.init 20 (fun i -> float_of_int (i + 1))));
  check_float "tail below eleven" 3. (Stats.tail [ 1.; 5.; 3. ]);
  (* 220 samples: every second one is kept, 1, 3, .., 219. *)
  check_float "tail over an even sample" 199. (Stats.tail (List.init 220 (fun i -> float_of_int (i + 1))))

let verdict = Alcotest.testable (fun f v -> Format.pp_print_string f (Stats.verdict_to_string v)) ( = )

let test_judge () =
  let judge ?(better = Stats.Lower) ~bound base head = Stats.judge ~better ~bound ~base ~head in
  let base = [ 1.00; 1.01; 0.99; 1.00; 1.02; 0.98; 1.00; 1.01; 0.99; 1.00 ] in
  Alcotest.check verdict "same" Stats.Same (judge ~bound:0.05 base (List.map (fun x -> x *. 1.01) base));
  Alcotest.check verdict "regressed" Stats.Regressed
    (judge ~bound:0.05 base (List.map (fun x -> x *. 1.2) base));
  Alcotest.check verdict "improved" Stats.Improved
    (judge ~bound:0.05 base (List.map (fun x -> x *. 0.9) base));
  Alcotest.check verdict "improved, higher is better" Stats.Improved
    (judge ~better:Stats.Higher ~bound:0.05 base (List.map (fun x -> x *. 1.1) base));
  let noisy = [ 1.; 1.5; 0.7; 1.2; 0.8; 1.3; 0.9; 1.1; 1.; 1.4 ] in
  Alcotest.check verdict "unresolved" Stats.Unresolved (judge ~bound:0.05 base noisy);
  Alcotest.check verdict "noisy but every run better" Stats.Improved
    (judge ~bound:0.05 noisy (List.map (fun x -> x *. 0.1) noisy));
  Alcotest.check verdict "deterministic, unchanged" Stats.Same (judge ~bound:0. [ 5.; 5. ] [ 5.; 5. ]);
  Alcotest.check verdict "deterministic, worse" Stats.Regressed
    (judge ~bound:0. [ 5.; 5. ] [ 5.000001; 5.000001 ])

let test_answers () =
  let codes = List.map fst Answers.fixtures in
  List.iter
    (fun adv ->
      match adv with
      | Toolchain.Workloads.Giant _ -> ()
      | _ ->
          let name = Toolchain.Workloads.adversarial_to_string adv in
          Alcotest.(check bool) ("fixture in the table: " ^ name) true (List.mem name codes))
    Toolchain.Workloads.adversarial_all;
  let ok r = Result.is_ok r in
  Alcotest.(check bool) "clean accepted" true (ok (Answers.check Answers.Clean ~accepted:true ~codes:[]));
  Alcotest.(check bool) "clean rejected" false
    (ok (Answers.check Answers.Clean ~accepted:false ~codes:[ "x" ]));
  let both = Answers.Rejected [ "sanitize-unscrubbed-flags"; "sanitize-unscrubbed-reg" ] in
  Alcotest.(check bool) "codes as a set" true
    (ok
       (Answers.check both ~accepted:false
          ~codes:[ "sanitize-unscrubbed-reg"; "sanitize-unscrubbed-flags"; "sanitize-unscrubbed-reg" ]));
  Alcotest.(check bool) "a missing code" false
    (ok (Answers.check both ~accepted:false ~codes:[ "sanitize-unscrubbed-reg" ]));
  Alcotest.(check bool) "accepted fixture" false (ok (Answers.check both ~accepted:true ~codes:[]))

let test_catalog () =
  let spec = Json.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) in
  let listed key =
    match Json.member key spec with
    | Some (Json.Arr l) ->
        List.map
          (fun m ->
            ( Option.get (Json.to_str (Json.member "name" m)),
              Option.get (Json.to_str (Json.member "unit" m)),
              Option.get (Stats.better_of_string (Option.get (Json.to_str (Json.member "better" m)))),
              Json.to_num (Json.member "bound" m) ))
          l
    | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)
  in
  let same key catalog =
    let got = List.map (fun (n, u, b, _) -> (n, u, b)) (listed key) in
    let want = List.map (fun (m : Catalog.metric) -> (m.Catalog.name, m.Catalog.unit_, m.Catalog.better)) catalog in
    Alcotest.(check bool) (key ^ " matches the catalog") true (got = want)
  in
  same "end_to_end" Catalog.end_to_end;
  same "per_layer" Catalog.per_layer;
  let bounds = List.map (fun (n, _, _, b) -> (n, Option.get b)) (listed "end_to_end") in
  List.iter (fun (n, b) -> Alcotest.(check bool) (n ^ " bound in [0, 0.25]") true (b >= 0. && b <= 0.25)) bounds;
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun (_, b) -> b <= List.assoc "setup_s" bounds) bounds)

let () =
  Alcotest.run "benchkit"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "spread, median, tail" `Quick test_spread_median_tail;
          Alcotest.test_case "judge" `Quick test_judge;
        ] );
      ("answers", [ Alcotest.test_case "known-answer table" `Quick test_answers ]);
      ("catalog", [ Alcotest.test_case "BENCHMARK.json" `Quick test_catalog ]);
    ]
