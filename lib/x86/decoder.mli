(** x86-64 disassembler for the {!Insn} subset, modelled on the NaCl
    64-bit disassembler the paper builds on: prefix parsing, one- and
    two-byte opcode tables, ModRM/SIB decoding, and per-instruction
    metadata (number of prefix, opcode and displacement bytes — the same
    metadata the paper says NaCl's tables produce). *)

type meta = {
  len : int;        (** total instruction length in bytes *)
  n_prefix : int;   (** legacy + REX prefix bytes *)
  n_opcode : int;   (** opcode bytes (1 or 2) *)
  n_disp : int;     (** displacement bytes (0, 1 or 4) *)
  n_imm : int;      (** immediate bytes (0, 1 or 4) *)
}

type decoded = {
  insn : Insn.t;
  off : int;        (** offset of the instruction within the buffer *)
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

val decode_one : string -> pos:int -> (decoded, error) result
(** Decode the instruction starting at byte [pos]. *)

val decode_all : ?pos:int -> ?len:int -> string -> (decoded list, error) result
(** Linear sweep over [len] bytes from [pos] (defaults: whole string).
    Stops at the first undecodable byte. *)

val decode_one_src : src -> pos:int -> (decoded, error) result
(** {!decode_one} over a byte source, in place. *)

val decode_all_src : ?pos:int -> ?len:int -> src -> (decoded list, error) result
(** {!decode_all} over a byte source, in place. *)
