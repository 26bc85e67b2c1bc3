(** Entry-point sanitization compliance — the fifth builtin policy,
    and the first that is interprocedural by construction.

    The host controls every register and the flags at EENTER, so an
    enclave entry point that consumes inherited state hands the host an
    input channel the interface never declared (Guardian-style
    interface-orderliness, applied to register state). The policy
    identifies entry points by the toolchain's interface naming
    convention ([enclave_entry], or an [ecall_] prefix — ordinary
    functions and [_start] are not entries) and proves, via the
    must-init dataflow of {!Summary.must_init_problem}, that on every
    path from the entry each of [%rdi %rsi %rdx %rcx %r8 %r9] and the
    flags ({!Summary.sanitize_mask}) is written before it is first
    consumed.

    Delegation counts: a direct call applies the callee's summary, so
    an entry that calls a scrubbing helper first is compliant, while a
    callee that itself consumes unsanitized state propagates the
    obligation to the entry's call site ({!Summary.effective_reads}).
    Unknown and indirect callees conservatively consume everything.

    Findings, in address order: [sanitize-unscrubbed-reg] at the first
    consuming instruction per offending register,
    [sanitize-unscrubbed-flags] for a branch on inherited flags, and
    [sanitize-entry-outside-code] when an entry symbol has no decoded
    instructions. Binaries with no entry-named functions — including
    all seven paper evaluation workloads — are vacuously compliant. *)

val is_entry_name : string -> bool
(** The interface naming convention shared with the DSL transcription's
    [P_fn_is_entry] primitive. *)

val tracked_regs : int list
(** The argument-register numbers the policy reports individually, in
    emission order (ascending {!X86.Reg.number}); the flags bit is
    reported separately. Shared with the DSL transcription so both
    engines emit identical finding sequences. *)

val make : unit -> Policy.t
