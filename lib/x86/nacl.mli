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

val violation_to_string : violation -> string

val bundle_size : int
(** 32, as in NaCl and the paper. *)

val validate_src :
  ?base:int ->
  ?roots:int list ->
  ?check_reachability:bool ->
  Decoder.src ->
  (Decoder.decoded array, violation) result
(** One {!Decoder.decode_all_src} sweep at [base] (default 0), in
    place, plus the three NaCl checks in this order: bundles, then
    direct-branch targets in instruction order, then the first
    unreached non-nop. [roots] are offsets of additional reachability
    roots besides offset 0 (function entries and jump-table entries
    reached through masked indirect calls). [check_reachability]
    defaults to [true]. Violations report offsets from the start of the
    code. On success, returns the sweep's array: the instruction buffer
    in code order.

    Targets and roots are found with {!Decoder.find_addr} on that
    array; reachability walks a worklist of instruction indices and
    marks them in a byte map. Nothing else is built. *)

val validate :
  ?roots:int list ->
  ?check_reachability:bool ->
  string ->
  (Decoder.decoded array, violation) result
(** {!validate_src} over a copy of a string in one off-heap buffer. *)
