(* Order statistics and the regression rule, kept free of the system
   under test so the unit test can pin them down exactly. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the spread printed here is the one a Python script
   computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

(* Interquartile range as a share of the median; 0 for fewer than two
   samples or identical ones. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let q1, _, q3 = quartiles xs in
      let m = median xs in
      if q3 = q1 then 0. else if m = 0. then infinity else (q3 -. q1) /. Float.abs m

(* The highest percentile that still has ten samples beyond it (the
   11th-largest value), over at most [tail_samples] values taken evenly
   from [xs] in order: p90 whenever there are that many, so the
   percentile does not drift toward the extreme as throughput (and with
   it the sample count) grows, and one preempted round on a shared host
   does not set it. With fewer than 21 samples that value would fall
   below the median, and the median stands in. *)
let tail_samples = 110

let tail xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let m = min n tail_samples in
  let picked = List.init m (fun i -> a.(i * n / m)) in
  let s = sorted picked in
  if m < 11 then median picked else Float.max (median picked) s.(m - 11)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type verdict = Improved | Regressed | Unresolved | Same

let verdict_to_string = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Same -> "same"

(* [worse ~better a b]: how much worse [b] is than [a], as a share of
   [a] (negative when better). *)
let worse ~better a b =
  if a = 0. then if b = a then 0. else infinity
  else match better with Lower -> (b -. a) /. Float.abs a | Higher -> (a -. b) /. Float.abs a

(* One workload x metric row of a comparison. Regressed: the head
   median is worse than the base median by more than the bound.
   Unresolved: either side's runs spread wider than the bound, unless
   every head run beats every base run. Improved: the medians differ
   by more than the base's own spread and the head wins at least nine
   in ten of the runs paired in order (ties win nothing). *)
let judge ~better ~bound ~base ~head =
  let beats x y = worse ~better y x < 0. in
  let all_better = List.for_all (fun h -> List.for_all (fun b -> beats h b) base) head in
  let change = worse ~better (median base) (median head) in
  let rec pairs acc = function
    | b :: bs, h :: hs -> pairs ((b, h) :: acc) (bs, hs)
    | _ -> acc
  in
  let paired = pairs [] (base, head) in
  let wins = List.length (List.filter (fun (b, h) -> beats h b) paired) in
  if Float.max (spread base) (spread head) > bound && not all_better then Unresolved
  else if change > bound then Regressed
  else if
    (-.change) > spread base
    && paired <> []
    && 10 * wins >= 9 * List.length paired
  then Improved
  else Same
