(** Typed x86-64 instruction representation shared by the encoder, the
    decoder and EnGarde's policy modules.

    The subset covers everything the paper's evaluation binaries contain:
    the ALU/mov/branch vocabulary of compiled C code, the Clang
    [-fstack-protector] canary sequence ([mov %fs:0x28, %rax] et al.),
    the IFCC masking sequence ([lea disp(%rip)], [sub], [and $imm],
    [add], [callq *reg]) and IFCC jump-table entries
    ([jmpq rel32; nopl (%rax)]). *)

type width = W32 | W64

type cond = E | NE | L | LE | G | GE | B | BE | A | AE | S | NS
(** Condition codes for [Jcc]. *)

type mem = {
  seg_fs : bool;                 (** FS segment override (canary loads) *)
  base : Reg.t option;           (** [None] means absolute disp32 (SIB, no base) *)
  index : (Reg.t * int) option;  (** register and scale in {1,2,4,8} *)
  disp : int;                    (** signed displacement *)
}
(** A ModRM/SIB memory operand. [RSP] is never a valid index. *)

type operand =
  | Reg of width * Reg.t
  | Imm of int                  (** immediate, sign-extended *)
  | Mem of width * mem          (** width of the memory access *)
  | Rip of int                  (** RIP-relative: disp from end of insn *)
  | Rel of int                  (** branch displacement from end of insn *)

type mnem =
  | MOV | LEA | ADD | SUB | AND | OR | XOR | CMP | TEST | IMUL
  | SHL | SHR | PUSH | POP | CALL | CALL_IND | JMP | JMP_IND
  | JCC of cond | RET | NOP | UD2

type t = { mnem : mnem; ops : operand list }

(** {1 Constructors for the common shapes} *)

(** [mov $imm32, %r64] *)
val mov_ri : Reg.t -> int -> t

(** [mov %src, %dst] *)
val mov_rr : ?w:width -> Reg.t -> Reg.t -> t
val mov_load : ?w:width -> ?seg_fs:bool -> mem -> Reg.t -> t
val mov_store : ?w:width -> Reg.t -> mem -> t

(** [mov %fs:0x28, %reg] *)
val mov_fs_canary : Reg.t -> t

(** [mov %reg, (%rsp)] *)
val store_rsp : Reg.t -> t

(** [cmp (%rsp), %reg] *)
val cmp_rsp : Reg.t -> t

(** [lea disp(%rip), %reg] *)
val lea_rip : Reg.t -> int -> t
val add_rr : ?w:width -> Reg.t -> Reg.t -> t
val sub_rr : ?w:width -> Reg.t -> Reg.t -> t
val and_ri : Reg.t -> int -> t
val add_ri : Reg.t -> int -> t
val sub_ri : Reg.t -> int -> t
val cmp_ri : Reg.t -> int -> t
val xor_rr : ?w:width -> Reg.t -> Reg.t -> t
val and_rr : ?w:width -> Reg.t -> Reg.t -> t
val or_rr : ?w:width -> Reg.t -> Reg.t -> t
val cmp_rr : ?w:width -> Reg.t -> Reg.t -> t
val test_rr : ?w:width -> Reg.t -> Reg.t -> t
val imul_rr : Reg.t -> Reg.t -> t
val shl_ri : Reg.t -> int -> t
val shr_ri : Reg.t -> int -> t
val push : Reg.t -> t
val pop : Reg.t -> t

(** rel32 *)
val call : int -> t

(** [callq *%reg] *)
val call_ind : Reg.t -> t
val jmp : int -> t
val jmp_ind : Reg.t -> t
val jcc : cond -> int -> t
val ret : t
val nop : t

(** [nopl (%rax)]: 0f 1f 00 *)
val nopl : t
val ud2 : t

val mem : ?seg_fs:bool -> ?base:Reg.t -> ?index:Reg.t * int -> int -> mem

val equal : t -> t -> bool

(** {1 Shape predicates} *)

val stack_store : t -> Reg.t option
(** The stored register of a stack store, [mov %reg, disp(%rsp|%rbp)]
    without the FS override. The stack policies and the rewriter decide
    which functions need a canary by this one predicate. *)

val canary_load : t -> Reg.t option
(** The destination register of a canary load, the shape
    {!mov_fs_canary} builds: a [mov] from [%fs:0x28] with no base and no
    index register. An indexed load such as [mov %fs:0x28(,%rcx,8), %rax]
    reads [fs:0x28 + 8*rcx], not the canary, so it is [None]. Every
    canary recogniser (the stack policies, the summaries, the rewriter)
    asks this one predicate. *)

val mnem_name : mnem -> string

val to_string : t -> string
(** AT&T-flavoured rendering, close to objdump output. *)
