(* In-memory spans, recorded from the benchmark's side of each public
   call, written at exit as Chrome trace-event JSON (load it in
   chrome://tracing or Perfetto). Nothing is recorded unless enabled. *)

let now () = Unix.gettimeofday ()

type span = { id : int; job : int; name : string; start : float; stop : float; parent : int }

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0

(* Record a finished span; returns its id (0 when tracing is off), to
   be passed as [parent] to the spans it caused. *)
let add ?(job = -1) ?(parent = 0) name start stop =
  if not !enabled then 0
  else begin
    incr next_id;
    spans := { id = !next_id; job; name; start; stop; parent } :: !spans;
    !next_id
  end

(* A span whose id exists before its children run; its end is patched
   in by [close]. *)
let opened : (int, span) Hashtbl.t = Hashtbl.create 16

let open_ ?(job = -1) ?(parent = 0) name =
  if not !enabled then 0
  else begin
    incr next_id;
    Hashtbl.replace opened !next_id { id = !next_id; job; name; start = now (); stop = 0.; parent };
    !next_id
  end

let close id =
  match Hashtbl.find_opt opened id with
  | None -> ()
  | Some s ->
      Hashtbl.remove opened id;
      spans := { s with stop = now () } :: !spans

let with_span ?job ?parent name f =
  let id = open_ ?job ?parent name in
  Fun.protect ~finally:(fun () -> close id) (fun () -> f id)

(* Duration minus the part of it covered by child spans. Children of
   one parent never overlap here (one thread), so their clipped
   durations add up. *)
let self_times () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.replace children s.parent (s :: (try Hashtbl.find children s.parent with Not_found -> [])))
    !spans;
  List.map
    (fun s ->
      let covered =
        List.fold_left
          (fun acc c -> acc +. Float.max 0. (Float.min c.stop s.stop -. Float.max c.start s.start))
          0.
          (try Hashtbl.find children s.id with Not_found -> [])
      in
      (s, s.stop -. s.start -. covered))
    !spans

let write_chrome path =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans in
  let us t = Float.round ((t -. t0) *. 1e6) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.start));
        ("dur", Json.Num (Float.max 0. (us s.stop -. us s.start)));
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int (max 0 s.job)));
        ("args", Json.Obj [ ("id", Json.Num (float_of_int s.id)); ("parent", Json.Num (float_of_int s.parent)) ]);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string (event s)))
        (List.sort (fun a b -> Float.compare a.start b.start) !spans);
      output_string oc "\n]}\n")
