type kind = Direct | Indirect | Tail | Jump_into

type edge = {
  e_from : int;
  e_to : int;
  e_kind : kind;
  e_addr : int;
  e_target : int;
}

(* Every indirect site reaches every table member, so a site is stored
   once and its edges are expanded on demand. Sites and explicit edges
   never share an address (each is a different instruction), so a
   function's out-edges in [(e_addr, e_target)] order are its explicit
   edges merged with its sites by address, each site expanding into the
   members in ascending order. *)
type graph = {
  explicit : edge array;
      (* the Direct, Tail and Jump_into edges, sorted by
         [(e_from, e_addr, e_target)] *)
  out_start : int array;  (* explicit.(out_start.(k)) up to out_start.(k + 1) leave k *)
  in_start : int array;
  in_ids : int array;
      (* in_ids.(in_start.(k)) up to in_start.(k + 1): the ids of the
         explicit edges entering k, ascending *)
  site_from : int array;  (* indirect sites, sorted by (caller, address) *)
  site_addr : int array;
  site_start : int array;  (* site_start.(k) up to site_start.(k + 1) are k's sites *)
  members : int array;  (* the table members, ascending; no sites are kept without one *)
  is_member : bool array;
}

type t = {
  index : Analysis.t;
  graph : graph;
  scc_id : int array;
  n_sccs : int;
  bottom_up : int array;
  recursive : bool array;
  build_cycles : int;
}

let kind_to_string = function
  | Direct -> "direct"
  | Indirect -> "indirect"
  | Tail -> "tail"
  | Jump_into -> "jump-into"

(* The order of every edge listing. *)
let compare_edges a b =
  let c = compare a.e_from b.e_from in
  if c <> 0 then c
  else
    let c = compare a.e_addr b.e_addr in
    if c <> 0 then c else compare a.e_target b.e_target

(* Ids [0, len) grouped by [key id] in [0, n), ascending within a group,
   and the start of every group (n + 1 offsets). *)
let bucket n len key =
  let start = Array.make (n + 1) 0 in
  for id = 0 to len - 1 do
    let k = key id in
    start.(k + 1) <- start.(k + 1) + 1
  done;
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let ids = Array.make len 0 and fill = Array.sub start 0 n in
  for id = 0 to len - 1 do
    let k = key id in
    ids.(fill.(k)) <- id;
    fill.(k) <- fill.(k) + 1
  done;
  (start, ids)

let build perf (index : Analysis.t) =
  let cycles = ref 0 in
  let charge c =
    cycles := !cycles + c;
    Sgx.Perf.count_cycles perf c
  in
  let fns = index.Analysis.functions in
  let n = Array.length fns in
  let entries = index.Analysis.buffer.Disasm.entries in
  let ne = Array.length entries in
  let edges = ref [] in
  let add_edge e_from e_to e_kind e_addr e_target =
    charge Costmodel.callgraph_edge;
    edges := { e_from; e_to; e_kind; e_addr; e_target } :: !edges
  in
  (* Direct edges: classified call sites whose target is a function start. *)
  Array.iter
    (fun (dc : Analysis.direct_call) ->
      match Analysis.function_containing fns dc.Analysis.dc_addr with
      | None -> ()
      | Some from -> (
          match Analysis.function_at fns dc.Analysis.dc_target with
          | Some tgt -> add_edge from tgt Direct dc.Analysis.dc_addr dc.Analysis.dc_target
          | None -> ()))
    index.Analysis.direct_calls;
  (* Indirect edges: over-approximated by the IFCC table ranges — every
     function whose entry lies in a table is a potential target of every
     indirect call site. A site is kept once and charged for all of its
     edges. *)
  let table_members = ref [] in
  Array.iteri
    (fun k (f : Analysis.func) ->
      charge Costmodel.callgraph_scan_step;
      if Analysis.in_table index f.Analysis.fn_addr then
        table_members := k :: !table_members)
    fns;
  let members = Array.of_list (List.rev !table_members) in
  let n_members = Array.length members in
  let sites =
    if n_members = 0 then [||]
    else
      Array.to_list index.Analysis.indirect_calls
      |> List.filter_map (fun (ic : Analysis.indirect_call) ->
             match Analysis.function_containing fns ic.Analysis.ic_addr with
             | None -> None
             | Some from ->
                 charge (n_members * Costmodel.callgraph_edge);
                 Some (from, ic.Analysis.ic_addr))
      |> List.sort compare |> Array.of_list
  in
  (* Tail and jump-into edges: direct branches leaving their function. *)
  Array.iteri
    (fun from (f : Analysis.func) ->
      match f.Analysis.fn_slice with
      | None -> ()
      | Some (lo, hi) ->
          for i = lo to min hi ne - 1 do
            charge Costmodel.callgraph_scan_step;
            let e = entries.(i) in
            match Patterns.branch_target e with
            | Some target
              when target < f.Analysis.fn_addr || target >= f.Analysis.fn_end
              -> (
                match Analysis.function_containing fns target with
                | Some tgt ->
                    let k =
                      if target = fns.(tgt).Analysis.fn_addr then Tail
                      else Jump_into
                    in
                    add_edge from tgt k e.Disasm.addr target
                | None -> ())
            | _ -> ()
          done)
    fns;
  let explicit = Array.of_list (List.sort compare_edges !edges) in
  let n_explicit = Array.length explicit in
  let out_start, _ = bucket n n_explicit (fun id -> explicit.(id).e_from) in
  let in_start, in_ids = bucket n n_explicit (fun id -> explicit.(id).e_to) in
  let site_from = Array.map fst sites and site_addr = Array.map snd sites in
  let site_start, _ = bucket n (Array.length sites) (fun s -> site_from.(s)) in
  let is_member = Array.make n false in
  Array.iter (fun k -> is_member.(k) <- true) members;
  (* Iterative Tarjan over the function-level graph. Components are
     emitted callees-first (every successor of an emitted component is
     already emitted), which is exactly the bottom-up summary order.
     Each frame of the visit stack holds a cursor into its function's
     out-edges, in the order {!edges_from} lists them: the next explicit
     edge [fr_edge], the current site [fr_site] and the position
     [fr_member] in its expansion. *)
  let counter = ref 0 in
  let idx = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let scc_id = Array.make n (-1) in
  let n_sccs = ref 0 in
  let sccs = ref [] in
  let fr_v = Array.make n 0 in
  let fr_edge = Array.make n 0 in
  let fr_site = Array.make n 0 in
  let fr_member = Array.make n 0 in
  let depth = ref 0 in
  let push_v v =
    charge Costmodel.callgraph_scc_step;
    idx.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    let d = !depth in
    fr_v.(d) <- v;
    fr_edge.(d) <- out_start.(v);
    fr_site.(d) <- site_start.(v);
    fr_member.(d) <- 0;
    depth := d + 1
  in
  let visit v w =
    charge Costmodel.callgraph_scc_step;
    if idx.(w) < 0 then push_v w
    else if on_stack.(w) then low.(v) <- min low.(v) idx.(w)
  in
  for root = 0 to n - 1 do
    if idx.(root) < 0 then begin
      push_v root;
      while !depth > 0 do
        let d = !depth - 1 in
        let v = fr_v.(d) and i = fr_edge.(d) and s = fr_site.(d) in
        let i_end = out_start.(v + 1) in
        if
          s < site_start.(v + 1)
          && (i >= i_end || site_addr.(s) < explicit.(i).e_addr)
        then begin
          let m = fr_member.(d) in
          if m + 1 = n_members then begin
            fr_site.(d) <- s + 1;
            fr_member.(d) <- 0
          end
          else fr_member.(d) <- m + 1;
          visit v members.(m)
        end
        else if i < i_end then begin
          fr_edge.(d) <- i + 1;
          visit v explicit.(i).e_to
        end
        else begin
          depth := d;
          if d > 0 then begin
            let u = fr_v.(d - 1) in
            low.(u) <- min low.(u) low.(v)
          end;
          if low.(v) = idx.(v) then begin
            let comp = ref [] in
            let stop = ref false in
            while not !stop do
              match !stack with
              | [] -> stop := true
              | w :: tl ->
                  charge Costmodel.callgraph_scc_step;
                  stack := tl;
                  on_stack.(w) <- false;
                  scc_id.(w) <- !n_sccs;
                  comp := w :: !comp;
                  if w = v then stop := true
            done;
            incr n_sccs;
            sccs := List.sort compare !comp :: !sccs
          end
        end
      done
    end
  done;
  let bottom_up = Array.of_list (List.concat (List.rev !sccs)) in
  let scc_size = Array.make !n_sccs 0 in
  Array.iter (fun c -> scc_size.(c) <- scc_size.(c) + 1) scc_id;
  let self_edge k =
    (is_member.(k) && site_start.(k + 1) > site_start.(k))
    ||
    let rec go i = i < out_start.(k + 1) && (explicit.(i).e_to = k || go (i + 1)) in
    go out_start.(k)
  in
  let recursive = Array.init n (fun k -> scc_size.(scc_id.(k)) > 1 || self_edge k) in
  {
    index;
    graph =
      {
        explicit;
        out_start;
        in_start;
        in_ids;
        site_from;
        site_addr;
        site_start;
        members;
        is_member;
      };
    scc_id;
    n_sccs = !n_sccs;
    bottom_up;
    recursive;
    build_cycles = !cycles;
  }

let n_functions t = Array.length t.scc_id

let indirect_edge t ~from ~addr m =
  {
    e_from = from;
    e_to = m;
    e_kind = Indirect;
    e_addr = addr;
    e_target = t.index.Analysis.functions.(m).Analysis.fn_addr;
  }

(* The out-edges of [k] in [(e_addr, e_target)] order: the same merge
   as the Tarjan cursor in {!build}. *)
let iter_out f t k =
  let g = t.graph in
  let i = ref g.out_start.(k) and i_end = g.out_start.(k + 1) in
  for s = g.site_start.(k) to g.site_start.(k + 1) - 1 do
    let addr = g.site_addr.(s) in
    while !i < i_end && g.explicit.(!i).e_addr < addr do
      f g.explicit.(!i);
      incr i
    done;
    Array.iter (fun m -> f (indirect_edge t ~from:k ~addr m)) g.members
  done;
  for j = !i to i_end - 1 do
    f g.explicit.(j)
  done

let iter_edges f t =
  for k = 0 to n_functions t - 1 do
    iter_out f t k
  done

let edges_from t k =
  if k < 0 || k >= n_functions t then []
  else begin
    let acc = ref [] in
    iter_out (fun e -> acc := e :: !acc) t k;
    List.rev !acc
  end

(* The edges [edge lo] up to [edge (hi - 1)] that satisfy [keep]. *)
let collect lo hi edge keep =
  let acc = ref [] in
  for j = hi - 1 downto lo do
    let e = edge j in
    if keep e then acc := e :: !acc
  done;
  !acc

(* The explicit in-edges of [k] that satisfy [keep], in global order. *)
let explicit_to t k keep =
  let g = t.graph in
  collect g.in_start.(k) g.in_start.(k + 1) (fun j -> g.explicit.(g.in_ids.(j))) keep

let edges_to t k =
  if k < 0 || k >= n_functions t then []
  else begin
    let g = t.graph in
    let explicit = explicit_to t k (fun _ -> true) in
    if not g.is_member.(k) then explicit
    else
      (* Every site reaches a member. *)
      List.merge compare_edges explicit
        (List.init (Array.length g.site_addr) (fun s ->
             indirect_edge t ~from:g.site_from.(s) ~addr:g.site_addr.(s) k))
  end

let jump_into t k =
  if k < 0 || k >= n_functions t then []
  else explicit_to t k (fun e -> e.e_kind = Jump_into)

let tail_edges t k =
  if k < 0 || k >= n_functions t then []
  else begin
    let g = t.graph in
    collect g.out_start.(k) g.out_start.(k + 1) (Array.get g.explicit) (fun e ->
        e.e_kind = Tail)
  end

let out_degree t k =
  let g = t.graph in
  g.out_start.(k + 1) - g.out_start.(k)
  + ((g.site_start.(k + 1) - g.site_start.(k)) * Array.length g.members)

let in_degree t k =
  let g = t.graph in
  g.in_start.(k + 1) - g.in_start.(k)
  + if g.is_member.(k) then Array.length g.site_addr else 0

let edge_count t kind =
  let g = t.graph in
  match kind with
  | Indirect -> Array.length g.site_addr * Array.length g.members
  | _ ->
      Array.fold_left
        (fun c e -> if e.e_kind = kind then c + 1 else c)
        0 g.explicit

let to_dot t =
  let fns = t.index.Analysis.functions in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "digraph \"callgraph\" {\n  node [shape=box fontname=monospace];\n";
  Array.iteri
    (fun k (f : Analysis.func) ->
      let extra = if t.recursive.(k) then " peripheries=2" else "" in
      Buffer.add_string buf
        (Printf.sprintf "  f%d [label=\"%s\\n0x%x\"%s];\n" k
           (Cfg.dot_escape f.Analysis.fn_name)
           f.Analysis.fn_addr extra))
    fns;
  iter_edges
    (fun e ->
      let style =
        match e.e_kind with
        | Direct -> ""
        | Indirect -> " [style=dashed]"
        | Tail -> " [style=dotted]"
        | Jump_into -> " [style=bold color=red]"
      in
      Buffer.add_string buf
        (Printf.sprintf "  f%d -> f%d%s;\n" e.e_from e.e_to style))
    t;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
