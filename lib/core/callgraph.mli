(** Whole-binary call graph over the shared {!Analysis.t} index.

    The interprocedural tier starts here: one charged pass over the
    pre-classified index turns call sites and cross-function branches
    into a graph whose nodes are the entries of
    [Analysis.functions] (identified by array index), condensed into
    strongly connected components so function summaries
    ({!Summary}) can be computed bottom-up — callees before callers,
    recursion detected rather than looped over.

    Edge kinds, and what each over-approximates:
    - [Direct]: a classified [callq rel32] whose computed target is
      exactly a function start. Precise.
    - [Indirect]: a [callq *%reg] site. The IFCC discipline constrains
      a masked target to its jump table, so every function whose entry
      lies inside an IFCC table range gets an edge from every indirect
      site — sound for IFCC-compliant binaries, deliberately
      over-approximate otherwise (a binary that escapes the tables
      fails the IFCC policy first).
    - [Tail]: a direct [jmp]/[jcc] whose target is another function's
      entry — control transfers without a return frame, so the callee's
      summary flows into the caller's exit behaviour.
    - [Jump_into]: a direct [jmp]/[jcc] landing {e inside} another
      function (not at its entry). No compiler emits these; they void
      the victim function's single-entry assumption, so interprocedural
      policies treat every guarantee proven under that assumption as
      unsound ({!Policy_ifcc} turns them into findings).

    Direct calls whose target is not a decoded function start produce
    no edge; summary consumers treat such calls conservatively.

    Construction never raises, whatever the buffer contents — the
    inspection service runs it on adversarial provider binaries. *)

type kind = Direct | Indirect | Tail | Jump_into

type edge = {
  e_from : int;    (** caller: index into [Analysis.functions] *)
  e_to : int;      (** callee: index into [Analysis.functions] *)
  e_kind : kind;
  e_addr : int;    (** site vaddr (call or jump instruction) *)
  e_target : int;  (** target vaddr ([e_to]'s entry, or inside it for
                       [Jump_into]) *)
}

type graph
(** The edges, stored compactly. The [Direct], [Tail] and [Jump_into]
    edges (11,541 on stack+ifcc nginx) are explicit records, sorted by
    [(e_from, e_addr, e_target)], with per-function out- and in-edge
    offsets. An indirect site is stored once, as [(caller, site
    address)], beside one shared array of the table members: every site
    reaches every member, so nginx's 700 sites stand for 924,000
    [Indirect] edges that are never materialized. The accessors below
    expand them on demand, in the order a fully materialized graph
    sorted by [(e_from, e_addr, e_target)] would list them. *)

type t = {
  index : Analysis.t;
  graph : graph;
  scc_id : int array;      (** per function index: its component id *)
  n_sccs : int;
  bottom_up : int array;
      (** every function index, components in reverse-topological
          (callee-first) order, ascending within a component — the
          iteration order for bottom-up summary computation *)
  recursive : bool array;
      (** per function index: sits in a non-trivial component or has a
          self edge, so its summary must fall back to
          {!Summary.conservative} to break the cycle. A table member
          with an indirect site of its own has a self edge. *)
  build_cycles : int;  (** modelled cycles charged by {!build} *)
}

val build : Sgx.Perf.t -> Analysis.t -> t
(** One charged pass: {!Costmodel.callgraph_scan_step} per function
    probed against the table ranges and per slice instruction scanned
    for cross-function branches, {!Costmodel.callgraph_edge} per edge
    (an indirect site is charged for all of its edges at once), and
    {!Costmodel.callgraph_scc_step} per step of the iterative Tarjan
    condensation: one per function pushed, one per edge followed, one
    per function popped. Tarjan follows each function's out-edges in
    {!edges_from} order, expanding a site into the members as it goes,
    so the components, their numbering, [bottom_up], [recursive] and
    every charge are those of the materialized graph. Never raises. *)

val edges_from : t -> int -> edge list
(** Outgoing edges of a function index, by [(e_addr, e_target)]: an
    indirect site lists one edge per table member, in ascending order.
    A function with indirect sites has [#sites * #members] of them. *)

val edges_to : t -> int -> edge list
(** Incoming edges of a function index, by [(e_from, e_addr)]: a table
    member gets one edge from every indirect site. *)

val iter_edges : (edge -> unit) -> t -> unit
(** Every edge, sorted by [(e_from, e_addr, e_target)], built one at a
    time. *)

val tail_edges : t -> int -> edge list
(** The [Tail] edges leaving a function index, ascending site address. *)

val jump_into : t -> int -> edge list
(** The [Jump_into] edges targeting the inside of a function index —
    non-empty means the function's single-entry assumption is void. *)

val out_degree : t -> int -> int
(** How many edges {!edges_from} lists for a function index, counted
    without building them. *)

val in_degree : t -> int -> int
(** How many edges {!edges_to} lists for a function index, counted
    without building them. *)

val edge_count : t -> kind -> int
(** The number of edges of one kind. *)

val kind_to_string : kind -> string
(** ["direct"] | ["indirect"] | ["tail"] | ["jump-into"]. *)

val to_dot : t -> string
(** Graphviz rendering: one box per function (name and entry vaddr,
    doubled border when recursive), one arrow per edge styled by kind
    (solid direct, dashed indirect, dotted tail, bold red jump-into), in
    {!iter_edges} order. Labels go through {!Cfg.dot_escape}; like
    {!Cfg.to_dot}, the output shows names and addresses, never code
    bytes. *)
