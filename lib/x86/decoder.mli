(** x86-64 disassembler for the {!Insn} subset, modelled on the NaCl
    64-bit disassembler the paper builds on: prefix parsing, one- and
    two-byte opcode tables, ModRM/SIB decoding, and per-instruction
    metadata (number of prefix, opcode and displacement bytes — the same
    metadata the paper says NaCl's tables produce).

    A sweep decodes straight into one array of {!decoded} records in
    address order: that array is the inspector's instruction buffer
    ([Disasm.entry] is this record), and {!lower_bound} is the one
    lookup every consumer uses on it. Records share their immutable
    parts: the register operands, the [Some] base registers, the
    one-register instructions ([push], [pop], [callq *], [jmpq *]) and
    one {!meta} per instruction shape are built once at module
    initialisation and never mutated, so domains may share them. *)

type meta = {
  len : int;        (** total instruction length in bytes *)
  n_prefix : int;   (** legacy + REX prefix bytes *)
  n_opcode : int;   (** opcode bytes (1 or 2) *)
  n_disp : int;     (** displacement bytes (0, 1 or 4) *)
  n_imm : int;      (** immediate bytes (0, 1 or 4) *)
}

type decoded = {
  addr : int;       (** sweep base + offset of the instruction *)
  insn : Insn.t;
  len : int;        (** [meta.len] *)
  meta : meta;
}

type error =
  | Truncated of int            (** ran off the end at this offset *)
  | Unknown_opcode of int * int (** offset, first undecodable opcode byte *)
  | Invalid of int * string     (** offset, reason *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap byte buffer (structural alias for [Elf64.Buf.Big.t] —
    declared locally so this library keeps zero dependencies). *)

type src = Big of bigstring
(** Instruction byte source: the decoder reads the mapped section in
    place, so parallel domains share one off-heap buffer instead of
    copying strings through the GC heap. *)

val src_length : src -> int

val src_of_string : string -> src
(** A copy of the string in one fresh off-heap buffer. *)

val decode_all_src :
  ?base:int -> ?pos:int -> ?len:int -> src -> (decoded array, error) result
(** Linear sweep over [len] bytes from [pos] (defaults: the whole
    source), in place, with one cursor for every instruction. The
    instruction at offset [o] gets [addr = base + o] ([base] defaults to
    0). Stops at the first undecodable byte. *)

val lower_bound : decoded array -> int -> int
(** The smallest index whose [addr] is at least the given address, or
    the array's length: a binary search over a sweep's records. *)

val find_addr : decoded array -> int -> int
(** The index of the record starting exactly at an address, or -1. *)

val index_of_addr : decoded array -> int -> int option
(** {!find_addr} as an option. *)

val decode_one : string -> pos:int -> (decoded, error) result
val decode_all : ?base:int -> ?pos:int -> ?len:int -> string -> (decoded array, error) result
(** {!decode_one_src} and {!decode_all_src} over a copy of a string. *)
