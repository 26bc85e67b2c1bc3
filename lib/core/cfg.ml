open X86

type block = {
  b_lo : int;
  b_hi : int;
  b_addr : int;
  mutable b_succ : int list;
  mutable b_pred : int list;
  b_padding : bool;
}

type t = {
  fn : Analysis.func;
  blocks : block array;
  entry : int;
  idom : int array;
  reachable : bool array;
  rpo_order : int array;
  n_edges : int;
}

let branch_rel (i : Insn.t) =
  match (i.Insn.mnem, i.Insn.ops) with
  | Insn.JMP, [ Insn.Rel rel ] -> Some (`Jmp, rel)
  | Insn.JCC _, [ Insn.Rel rel ] -> Some (`Jcc, rel)
  | _ -> None

(* Instructions after which control does not simply run on: the next
   instruction starts a new block. *)
let ends_block (i : Insn.t) =
  match i.Insn.mnem with
  | Insn.JMP | Insn.JCC _ | Insn.CALL | Insn.CALL_IND | Insn.JMP_IND
  | Insn.RET | Insn.UD2 ->
      true
  | _ -> false

(* No fallthrough successor after these. *)
let terminates (i : Insn.t) =
  match i.Insn.mnem with
  | Insn.JMP | Insn.JMP_IND | Insn.RET | Insn.UD2 -> true
  | _ -> false

(* The block holding entry index [i]: the greatest block whose [b_lo]
   is <= i, then a check against its exclusive [b_hi]. *)
let block_in blocks i =
  let rec go l h =
    if l >= h then l - 1
    else begin
      let mid = (l + h) / 2 in
      if blocks.(mid).b_lo <= i then go (mid + 1) h else go l mid
    end
  in
  let k = go 0 (Array.length blocks) in
  if k >= 0 && i < blocks.(k).b_hi then Some k else None

let build perf (a : Analysis.t) (fn : Analysis.func) =
  match fn.Analysis.fn_slice with
  | None -> None
  | Some (lo, hi) when hi <= lo -> None
  | Some (lo, hi) ->
      let entries = a.Analysis.buffer.Disasm.entries in
      let hi = min hi (Array.length entries) in
      if hi <= lo then None
      else begin
        let n = hi - lo in
        (* Leader pass: one cheap scan marking block starts. *)
        let leader = Array.make n false in
        leader.(0) <- true;
        let mark_addr addr =
          (* A branch target is a leader only if it lands exactly on a
             decoded instruction inside this function; anything else
             (out of function, mid-instruction) adds no leader and no
             edge. *)
          match Disasm.index_of_addr a.Analysis.buffer addr with
          | Some j when j >= lo && j < hi -> leader.(j - lo) <- true
          | _ -> ()
        in
        for i = lo to hi - 1 do
          Sgx.Perf.count_cycles perf Costmodel.cfg_leader_step;
          let e = entries.(i) in
          (match branch_rel e.Disasm.insn with
          | Some (_, rel) -> mark_addr (e.Disasm.addr + e.Disasm.len + rel)
          | None -> ());
          if ends_block e.Disasm.insn && i + 1 < hi then leader.(i + 1 - lo) <- true
        done;
        (* Materialize blocks between leaders. *)
        let starts = ref [] in
        for i = n - 1 downto 0 do
          if leader.(i) then starts := (lo + i) :: !starts
        done;
        let starts = Array.of_list !starts in
        let nb = Array.length starts in
        let blocks =
          Array.init nb (fun k ->
              Sgx.Perf.count_cycles perf Costmodel.cfg_block;
              let b_lo = starts.(k) in
              let b_hi = if k + 1 < nb then starts.(k + 1) else hi in
              let padding = ref true in
              for i = b_lo to b_hi - 1 do
                if not (Analysis.is_padding entries.(i).Disasm.insn) then
                  padding := false
              done;
              {
                b_lo;
                b_hi;
                b_addr = entries.(b_lo).Disasm.addr;
                b_succ = [];
                b_pred = [];
                b_padding = !padding;
              })
        in
        (* Edge pass. *)
        let n_edges = ref 0 in
        let add_edge k k' =
          Sgx.Perf.count_cycles perf Costmodel.cfg_edge;
          let b = blocks.(k) in
          if not (List.mem k' b.b_succ) then begin
            b.b_succ <- b.b_succ @ [ k' ];
            blocks.(k').b_pred <- blocks.(k').b_pred @ [ k ];
            incr n_edges
          end
        in
        Array.iteri
          (fun k b ->
            let last = entries.(b.b_hi - 1) in
            (match branch_rel last.Disasm.insn with
            | Some (_, rel) -> (
                let target = last.Disasm.addr + last.Disasm.len + rel in
                match Disasm.index_of_addr a.Analysis.buffer target with
                | Some j when j >= lo && j < hi -> (
                    match block_in blocks j with
                    | Some k' -> add_edge k k'
                    | None -> ())
                | _ -> ())
            | None -> ());
            if (not (terminates last.Disasm.insn)) && k + 1 < nb then
              add_edge k (k + 1))
          blocks;
        (* Reachability + reverse postorder from the entry block. *)
        let reachable = Array.make nb false in
        let post = ref [] in
        let rec dfs k =
          if not reachable.(k) then begin
            reachable.(k) <- true;
            List.iter dfs blocks.(k).b_succ;
            post := k :: !post
          end
        in
        dfs 0;
        let rpo_order = Array.of_list !post in
        let rpo_num = Array.make nb (-1) in
        Array.iteri (fun pos k -> rpo_num.(k) <- pos) rpo_order;
        (* Iterative dominators (Cooper-Harvey-Kennedy) over the
           reachable subgraph. *)
        let idom = Array.make nb (-1) in
        idom.(0) <- 0;
        let intersect b1 b2 =
          let f1 = ref b1 and f2 = ref b2 in
          while !f1 <> !f2 do
            while rpo_num.(!f1) > rpo_num.(!f2) do f1 := idom.(!f1) done;
            while rpo_num.(!f2) > rpo_num.(!f1) do f2 := idom.(!f2) done
          done;
          !f1
        in
        let changed = ref true in
        while !changed do
          changed := false;
          Array.iter
            (fun k ->
              if k <> 0 then begin
                Sgx.Perf.count_cycles perf Costmodel.dom_step;
                let new_idom =
                  List.fold_left
                    (fun acc p ->
                      if (not reachable.(p)) || idom.(p) = -1 then acc
                      else
                        match acc with
                        | None -> Some p
                        | Some q -> Some (intersect p q))
                    None blocks.(k).b_pred
                in
                match new_idom with
                | Some d when idom.(k) <> d ->
                    idom.(k) <- d;
                    changed := true
                | _ -> ()
              end)
            rpo_order
        done;
        Some
          {
            fn;
            blocks;
            entry = 0;
            idom;
            reachable;
            rpo_order;
            n_edges = !n_edges;
          }
      end

let block_of_index t i = block_in t.blocks i

let dominates t a b =
  let nb = Array.length t.blocks in
  if a < 0 || b < 0 || a >= nb || b >= nb then false
  else if (not t.reachable.(a)) || not t.reachable.(b) then false
  else begin
    let rec walk b = if b = a then true else if b = t.entry then false else walk t.idom.(b) in
    walk b
  end

(* DOT double-quoted strings: only the double quote and the backslash
   need escaping, but an unescaped occurrence of either breaks the whole
   graph. Function names come from the (untrusted) symbol table, and
   instruction renderings may quote operands, so every interpolated
   string goes through here. *)
let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot t (buffer : Disasm.buffer) =
  let entries = buffer.Disasm.entries in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "digraph \"%s\" {\n  node [shape=box fontname=monospace];\n"
       (dot_escape t.fn.Analysis.fn_name));
  Array.iteri
    (fun k b ->
      let style =
        if not t.reachable.(k) then " style=dashed"
        else if b.b_padding then " style=filled fillcolor=gray90"
        else ""
      in
      let last =
        if b.b_hi - 1 < Array.length entries then
          Insn.mnem_name entries.(b.b_hi - 1).Disasm.insn.Insn.mnem
        else "?"
      in
      Buffer.add_string buf
        (Printf.sprintf "  b%d [label=\"b%d: 0x%x\\n%d insns · %s\"%s];\n" k k
           b.b_addr (b.b_hi - b.b_lo) (dot_escape last) style))
    t.blocks;
  Array.iteri
    (fun k b ->
      List.iter
        (fun k' -> Buffer.add_string buf (Printf.sprintf "  b%d -> b%d;\n" k k'))
        b.b_succ)
    t.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
