(** The charged policy-program interpreter.

    Runs one {!Prog.t} against a {!Policy.context}. Two cost streams
    are kept strictly apart:

    - {b Modelled policy cycles} go to [ctx.perf] (and [ctx.cfg_perf]
      through the shared CFG store): [Charge] statements spend the
      {!Prog.costc} constants, and charged fact primitives
      ([P_function_hash], [P_fact_before], [P_has_cfg]) charge exactly
      what the native modules' calls charge. A program transcribing a
      native policy therefore reproduces its modelled cycles bit for
      bit — the differential suite holds the builtins to that.
    - {b Interpreter overhead} ({!Costmodel.vm_step} per node
      evaluated, plus blob-decoding cost in {!of_blob}) goes to the
      separate [vm_perf] counter, so it can be reported and bounded
      (the bench smoke gate) without perturbing verdict-relevant
      accounting.

    Every node evaluation also burns one unit of fuel; running dry,
    any dynamic type mismatch, any out-of-bounds fact access, and any
    malformed format string abort the run with an {!error} — the
    interpreter never raises and never reads outside the facts it is
    given, whatever program the negotiation admitted. *)

open Engarde

type error =
  | Fuel_exhausted
  | Type_error of string
  | Bounds of string
  | Arity of string
  | Bad_format of string

type outcome = {
  verdict : (Policy.verdict, error) result;
  fuel_left : int;
  vm_nodes : int;  (** nodes evaluated = fuel spent *)
}

val run :
  ?fuel:int ->
  ?vm_perf:Sgx.Perf.t ->
  ?tables:(string, string) Hashtbl.t array ->
  Prog.t ->
  Policy.context ->
  outcome
(** One interpretation. [tables] lets a caller reuse prebuilt lookup
    tables across runs (as {!policy} does); by default they are built
    from the program's embedded entries. *)

val policy : ?fuel:int -> ?vm_perf:Sgx.Perf.t -> Prog.t -> Policy.t
(** Package a program as an ordinary {!Policy.t}. A VM error becomes a
    single ["policy-vm-error"] violation — a misbehaving agreed
    program rejects the binary instead of wedging the service. *)

val of_blob :
  ?fuel:int -> ?vm_perf:Sgx.Perf.t -> string -> (Policy.t, string) result
(** Decode a canonical blob ({!Encode.decode}) and package it. Charges
    {!Costmodel.vm_decode_per_byte} per blob byte to [vm_perf] when
    given. *)
