(* The materializing call-graph build, kept as the reference for
   {!Engarde.Callgraph}: every indirect edge is its own record, the
   edges are sorted by [(e_from, e_addr, e_target)], and Tarjan walks
   per-function successor lists built from them. test_interproc's
   oracle checks the compact build against it field by field. *)

open Engarde

type kind = Callgraph.kind = Direct | Indirect | Tail | Jump_into

type edge = Callgraph.edge = {
  e_from : int;
  e_to : int;
  e_kind : kind;
  e_addr : int;
  e_target : int;
}

type t = {
  edges : edge array;
  succ : int list array;
  pred : int list array;
  scc_id : int array;
  n_sccs : int;
  bottom_up : int array;
  recursive : bool array;
  build_cycles : int;
}

(* Binary searches over the address-ordered function table. *)
let idx_of_addr (fns : Analysis.func array) addr =
  let rec go l h =
    if l >= h then None
    else begin
      let mid = (l + h) / 2 in
      let fa = fns.(mid).Analysis.fn_addr in
      if fa = addr then Some mid else if fa < addr then go (mid + 1) h else go l mid
    end
  in
  go 0 (Array.length fns)

let idx_containing (fns : Analysis.func array) addr =
  let rec go l h =
    if l >= h then if l > 0 then Some (l - 1) else None
    else begin
      let mid = (l + h) / 2 in
      if fns.(mid).Analysis.fn_addr <= addr then go (mid + 1) h else go l mid
    end
  in
  match go 0 (Array.length fns) with
  | Some k when addr >= fns.(k).Analysis.fn_addr && addr < fns.(k).Analysis.fn_end
    -> Some k
  | _ -> None

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
      match idx_containing fns dc.Analysis.dc_addr with
      | None -> ()
      | Some from -> (
          match idx_of_addr fns dc.Analysis.dc_target with
          | Some tgt -> add_edge from tgt Direct dc.Analysis.dc_addr dc.Analysis.dc_target
          | None -> ()))
    index.Analysis.direct_calls;
  (* Indirect edges: over-approximated by the IFCC table ranges — every
     function whose entry lies in a table is a potential target of every
     indirect call site. *)
  let table_members = ref [] in
  Array.iteri
    (fun k (f : Analysis.func) ->
      charge Costmodel.callgraph_scan_step;
      if Analysis.in_table index f.Analysis.fn_addr then
        table_members := k :: !table_members)
    fns;
  let table_members = List.rev !table_members in
  Array.iter
    (fun (ic : Analysis.indirect_call) ->
      match idx_containing fns ic.Analysis.ic_addr with
      | None -> ()
      | Some from ->
          List.iter
            (fun tgt ->
              add_edge from tgt Indirect ic.Analysis.ic_addr
                fns.(tgt).Analysis.fn_addr)
            table_members)
    index.Analysis.indirect_calls;
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
                match idx_containing fns target with
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
  let edges =
    Array.of_list
      (List.sort
         (fun a b ->
           let c = compare a.e_from b.e_from in
           if c <> 0 then c
           else
             let c = compare a.e_addr b.e_addr in
             if c <> 0 then c else compare a.e_target b.e_target)
         !edges)
  in
  let succ = Array.make n [] and pred = Array.make n [] in
  Array.iteri
    (fun id e ->
      succ.(e.e_from) <- id :: succ.(e.e_from);
      pred.(e.e_to) <- id :: pred.(e.e_to))
    edges;
  Array.iteri (fun k l -> succ.(k) <- List.rev l) succ;
  Array.iteri (fun k l -> pred.(k) <- List.rev l) pred;
  (* Iterative Tarjan over the function-level graph. Components are
     emitted callees-first (every successor of an emitted component is
     already emitted), which is exactly the bottom-up summary order. *)
  let succ_fns =
    Array.map (fun ids -> List.map (fun id -> edges.(id).e_to) ids) succ
  in
  let counter = ref 0 in
  let idx = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let scc_id = Array.make n (-1) in
  let n_sccs = ref 0 in
  let sccs = ref [] in
  let visit = ref [] in
  let push_v v =
    charge Costmodel.callgraph_scc_step;
    idx.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    visit := (v, ref succ_fns.(v)) :: !visit
  in
  for root = 0 to n - 1 do
    if idx.(root) < 0 then begin
      push_v root;
      while !visit <> [] do
        let v, rem = List.hd !visit in
        match !rem with
        | w :: tl ->
            rem := tl;
            charge Costmodel.callgraph_scc_step;
            if idx.(w) < 0 then push_v w
            else if on_stack.(w) then low.(v) <- min low.(v) idx.(w)
        | [] ->
            visit := List.tl !visit;
            (match !visit with
            | (u, _) :: _ -> low.(u) <- min low.(u) low.(v)
            | [] -> ());
            if low.(v) = idx.(v) then begin
              let members = ref [] in
              let stop = ref false in
              while not !stop do
                match !stack with
                | [] -> stop := true
                | w :: tl ->
                    charge Costmodel.callgraph_scc_step;
                    stack := tl;
                    on_stack.(w) <- false;
                    scc_id.(w) <- !n_sccs;
                    members := w :: !members;
                    if w = v then stop := true
              done;
              incr n_sccs;
              sccs := List.sort compare !members :: !sccs
            end
      done
    end
  done;
  let bottom_up = Array.of_list (List.concat (List.rev !sccs)) in
  let scc_size = Array.make !n_sccs 0 in
  Array.iter (fun c -> scc_size.(c) <- scc_size.(c) + 1) scc_id;
  let recursive =
    Array.init n (fun k ->
        scc_size.(scc_id.(k)) > 1
        || List.exists (fun id -> edges.(id).e_to = k) succ.(k))
  in
  {
    edges;
    succ;
    pred;
    scc_id;
    n_sccs = !n_sccs;
    bottom_up;
    recursive;
    build_cycles = !cycles;
  }

let edges_from t k =
  if k < 0 || k >= Array.length t.succ then []
  else List.map (fun id -> t.edges.(id)) t.succ.(k)

let edges_to t k =
  if k < 0 || k >= Array.length t.pred then []
  else List.map (fun id -> t.edges.(id)) t.pred.(k)

let jump_into t k =
  List.filter (fun e -> e.e_kind = Jump_into) (edges_to t k)
