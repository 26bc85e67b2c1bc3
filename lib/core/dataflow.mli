(** Forward dataflow framework over a recovered {!Cfg.t}.

    A small worklist solver, generic in the fact domain: a policy
    supplies the entry fact, a per-instruction transfer function, a
    join and an equality test, and gets back one in-fact per basic
    block. Unreached blocks carry no fact ([None]), which doubles as
    the bottom element — domains never need an artificial ⊥.

    Charged work: {!Costmodel.dataflow_step} per transfer application
    and {!Costmodel.dataflow_join} per edge joined, so the bench table
    can compare flow-sensitive policy cost against the paper's pattern
    probes on equal footing.

    The module also ships the one concrete domain the flow-sensitive
    policies share: {!Regs}, a register abstract-value ("taint")
    lattice precise enough to prove that an IFCC masking sequence
    still governs the target register at the indirect call, and to
    resolve computed-jump targets for the lint policy. *)

type 'a problem = {
  init : 'a;  (** fact on entry to the function's entry block *)
  transfer : Disasm.entry -> 'a -> 'a;
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

type 'a solution = { in_facts : 'a option array }
(** One fact per block id: the join over all incoming edges, [None]
    for blocks the solver never reached. *)

val solve : Sgx.Perf.t -> Disasm.buffer -> Cfg.t -> 'a problem -> 'a solution
(** Iterate to a fixpoint in reverse postorder. Iteration count is
    bounded (lattice-height × blocks for any finite-height domain; a
    generous hard cap protects against ill-behaved domains), and the
    solver never raises on any CFG {!Cfg.build} produces. *)

val fact_at :
  Sgx.Perf.t -> Disasm.buffer -> Cfg.t -> 'a problem -> 'a solution ->
  index:int -> 'a option
(** The fact holding immediately {e before} the buffer entry [index]:
    the containing block's in-fact replayed through the block's
    transfer functions up to (excluding) [index]. [None] when the
    block is unreachable or the index is outside the function. *)

(** Register abstract values for the IFCC masking discipline.

    Each register holds one of: [Top] (anything — clobbered or never
    constrained), [Addr a] (a known vaddr, from [lea disp(%rip)]),
    [Diff (p, b)] (pointer minus table base, from the 32-bit [sub]),
    [Masked (p, b, m)] (after [and $m]), or [Target (b, t)] (base
    re-added: a provably masked call target [t] derived from table
    base [b]). Joining unequal values gives [Top], so any path that
    bypasses part of the sequence demotes the register — exactly the
    property the flow-sensitive IFCC policy checks at the call. *)
module Regs : sig
  type av =
    | Top
    | Addr of int
    | Diff of int * int
    | Masked of int * int * int
    | Target of int * int

  type t
  (** A map from the 16 GPRs to abstract values. Immutable. *)

  val get : t -> X86.Reg.t -> av

  val set : t -> X86.Reg.t -> av -> t
  (** Functional update — for summary-based call transfers that refine
      a post-call state register by register. *)

  val problem : t problem
  (** Entry fact: every register [Top]. Transfer recognizes the IFCC
      shapes ([lea %rip], 32-bit [sub], [and $imm], [add], reg-reg
      [mov] copies); every other write to a register — including all
      16 at a [call], which may clobber anything — demotes it to
      [Top]. *)

  val problem_via : call:(Disasm.entry -> t -> t option) -> t problem
  (** {!problem}, except a [call]/[callq *%reg] consults [call] first:
      [Some t'] is the refined post-call state (the interprocedural
      tier passes a {!Summary}-based transfer here — see
      {!Summary.regs_problem_via}); [None] falls back to demoting
      every register to [Top], so [problem_via ~call:(fun _ _ -> None)]
      is exactly {!problem}. *)
end
