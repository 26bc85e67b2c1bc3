(** Shared instruction-shape predicates.

    The stack, IFCC and lint policies each recognize a handful of
    instruction shapes (canary loads, masking-sequence steps, direct
    branches). These used to live as near-identical private helpers in
    every [policy_*.ml]; they are factored here so the native modules
    and the {!Policyvm} interpreter's primitives agree on the shapes
    by construction — a DSL program probing [canary_check_site] sees
    exactly what the native stack policy sees.

    All predicates are pure and charge nothing; callers own the cost
    accounting. *)

val canary_load_into : X86.Reg.t -> X86.Insn.t -> bool
(** [mov %fs:0x28, %r]: the canary load ({!X86.Insn.canary_load}) into
    exactly register [r]. *)

val defines : X86.Reg.t -> X86.Insn.t -> bool
(** Does the instruction (re)define register [r]? Destination is the
    last operand under the AT&T convention the IR uses. *)

val canary_check_site :
  Disasm.buffer -> Symhash.t -> lo:int -> hi:int -> int -> int option
(** Is entry [i] the [cmp (%rsp), %r] of a full canary check — the cmp
    preceded (modulo padding) by a canary load into the same register
    and followed by a [jne] to a [callq __stack_chk_fail]? Returns the
    entry index of the [jne], the check's block terminator. *)

val lea_rip_target : Disasm.entry -> (X86.Reg.t * int) option
(** [lea disp(%rip), %r64]: the register and the computed vaddr. *)

val ifcc_sub32 : X86.Insn.t -> (X86.Reg.t * X86.Reg.t) option
(** The masking sequence's 32-bit [sub %s32, %d32]: (source, dest). *)

val ifcc_and64 : X86.Insn.t -> (int * X86.Reg.t) option
(** The masking sequence's [and $mask, %d64]: (mask, dest). *)

val ifcc_add64 : X86.Insn.t -> (X86.Reg.t * X86.Reg.t) option
(** The masking sequence's 64-bit [add %s, %d]: (source, dest). *)

val branch_target : Disasm.entry -> int option
(** Direct [jmp]/[jcc] target vaddr. *)

val can_fall_through : X86.Insn.t -> bool
(** Can control reach the next instruction ([jmp]/[jmpq *]/[ret]/[ud2]
    cannot)? *)

val sole_reg_operand : X86.Insn.t -> X86.Reg.t option
(** The register when the operand list is exactly [[%reg]] (computed
    jump/call target). *)
