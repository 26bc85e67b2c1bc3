(** x86-64 general-purpose registers. *)

type t =
  | RAX | RCX | RDX | RBX | RSP | RBP | RSI | RDI
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

val all : t list

val number : t -> int
(** Hardware encoding 0–15 (the low 3 bits go in ModRM/SIB; bit 3 into
    the REX prefix). *)

val of_number : int -> t
(** @raise Invalid_argument outside 0–15. *)

val name64 : t -> string
(** AT&T-style name, e.g. ["%rax"], ["%r13"]. *)

val name32 : t -> string
(** 32-bit alias, e.g. ["%eax"], ["%r13d"]. *)

val equal : t -> t -> bool
