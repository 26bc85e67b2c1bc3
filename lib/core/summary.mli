(** Per-function dataflow summaries — the interprocedural tier's unit
    of reuse.

    A summary condenses what one function does to machine state into a
    few bit masks over the 16 GPRs plus the flags (bit {!flags_bit}):
    what it reads before defining ([s_reads], the sanitization
    obligation it imposes on callers), what it is guaranteed to have
    defined on every return path ([s_defines]), what it may write at
    all ([s_clobbers]), whether it establishes the stack canary,
    whether it can return, and which registers hold the {e same} known
    {!Dataflow.Regs.av} at every return — the channel by which an IFCC
    masking sequence established in a callee becomes visible at the
    caller's indirect call.

    Summaries are computed bottom-up over the {!Callgraph}
    condensation with the existing {!Dataflow} engine (a must-init
    mask domain plus the {!Dataflow.Regs} lattice) and memoized in a
    {!store} keyed by function start address, alongside the
    {!Analysis.function_hash} memo in spirit: the first request per
    function charges the full computation
    ({!Costmodel.summary_step} / [dataflow_step] / [summary_apply]),
    every later request charges only {!Costmodel.summary_memo_lookup}.
    Functions on a call-graph cycle get {!conservative} — sound, and
    it breaks the recursion deterministically whatever the query
    order. Computation never raises on any buffer. *)

type t = {
  s_defines : int;
      (** must-define: state initialized on {e every} path from entry
          to a reachable [ret] (the meet across return sites); all-ones
          when the function cannot return *)
  s_reads : int;
      (** may-read-before-define: state some path consumes before the
          function (or a summarized callee) has written it *)
  s_clobbers : int;
      (** may-write: every register any path can modify, callee
          clobbers included *)
  s_canary : bool;  (** some instruction loads the [%fs:0x28] canary *)
  s_masks : (int * Dataflow.Regs.av) list;
      (** registers (by {!X86.Reg.number}, ascending) holding the same
          non-[Top] abstract value at every reachable return — e.g. a
          [Target] proving an IFCC mask survives the call *)
  s_returns : bool;
      (** can reach a [ret], a tail exit to a returning (or unknown)
          function, an indirect jump, or a fall-through off the slice *)
}

val flags_bit : int
(** Bit index of the flags register in the state masks (the GPRs own
    bits 0–15 by {!X86.Reg.number}). *)

val all_state : int
(** All 17 tracked bits set. *)

val sanitize_mask : int
(** The entry-point sanitization obligation: the System V argument
    registers [%rdi %rsi %rdx %rcx %r8 %r9] plus flags — the state a
    hostile host controls at enclave entry. [%rsp]/[%rbp] are exempt
    (the loader owns them). *)

type store
(** The per-analysis summary memo (function start vaddr -> {!t}). *)

val create_store : unit -> store

val get :
  store ->
  Sgx.Perf.t ->
  Analysis.t ->
  cfg:(Analysis.func -> Cfg.t option) ->
  callgraph:Callgraph.t ->
  addr:int ->
  t option
(** The summary of the function starting exactly at [addr] ([None]
    otherwise). Charges {!Costmodel.summary_memo_lookup} per request;
    a miss computes the summary — recursing into direct and tail
    callees, bottom-up — and memoizes it. [cfg] supplies the (shared,
    memoized) per-function CFG; functions without one, and functions
    {!Callgraph.t.recursive} flags, get {!conservative}. *)

val compute_all :
  store ->
  Sgx.Perf.t ->
  Analysis.t ->
  cfg:(Analysis.func -> Cfg.t option) ->
  callgraph:Callgraph.t ->
  unit
(** Populate the store for every function in
    {!Callgraph.t.bottom_up} order — the explicit bottom-up sweep;
    afterwards every {!get} is a memo hit. *)

val effective_reads : callee:(addr:int -> t option) -> Disasm.entry -> int
(** {!reads_of_insn}, except a direct call reports its resolved
    callee's [s_reads] (the obligation the callee imposes), and an
    unresolved or indirect call conservatively reads {!all_state}. *)

val must_init_problem :
  perf:Sgx.Perf.t -> callee:(addr:int -> t option) -> int Dataflow.problem
(** The must-init forward dataflow the sanitize policy and the summary
    computation share: the fact is the mask of state defined on every
    path so far (join = intersection). A direct call applies the
    callee's [s_defines] (all of {!all_state} when the callee cannot
    return — nothing downstream executes), charging
    {!Costmodel.summary_apply} to [perf]; unknown callees and indirect
    calls define nothing. *)

val regs_problem_via :
  perf:Sgx.Perf.t ->
  callee:(addr:int -> t option) ->
  Dataflow.Regs.t Dataflow.problem
(** {!Dataflow.Regs.problem} with a summary-refined call transfer: a
    resolved direct call demotes exactly the callee's [s_clobbers] to
    [Top] and installs its [s_masks] (charging
    {!Costmodel.summary_apply} to [perf]); unresolved and indirect
    calls keep the conservative demote-everything behaviour. *)
