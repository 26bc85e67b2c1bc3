(** NaCl-style code validation, as used by EnGarde for reliable
    disassembly (paper, Section 3): instructions must not straddle a
    32-byte bundle boundary, every direct control transfer must target an
    instruction start, and all instructions must be reachable from the
    given roots (entry point and function entries). *)

type violation =
  | Decode_error of Decoder.error
  | Bundle_overlap of { off : int; len : int }
      (** instruction at [off] crosses a bundle boundary *)
  | Bad_branch_target of { off : int; target : int }
      (** direct branch at [off] targets a non-instruction offset *)
  | Unreachable of { off : int }
      (** instruction not reachable from any root *)

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

val bundle_size : int
(** 32, as in NaCl and the paper. *)

val branch_target : Decoder.decoded -> int option
(** Target offset of a direct CALL/JMP/Jcc, if this is one. *)

val validate :
  ?roots:int list ->
  ?check_reachability:bool ->
  string ->
  (Decoder.decoded array, violation) result
(** Linear-sweep disassembly plus the three NaCl checks. [roots] are
    additional reachability roots besides offset 0 (function entries and
    jump-table entries reached through masked indirect calls).
    [check_reachability] defaults to [true]. On success, returns the full
    instruction buffer in code order. *)

val validate_src :
  ?roots:int list ->
  ?check_reachability:bool ->
  Decoder.src ->
  (Decoder.decoded array, violation) result
(** {!validate} over a byte source, in place (zero-copy); {!validate}
    copies its string into one off-heap buffer first. *)
