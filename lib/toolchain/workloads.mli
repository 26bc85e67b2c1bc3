(** The seven evaluation workloads of the paper (Section 5): Nginx,
    401.bzip2, Graph-500, 429.mcf, Memcached, Netperf and otp-gen.

    EnGarde never executes client code — it inspects it — so what each
    workload must reproduce is the *static structure* the policies and
    the disassembler traverse: total instruction count (the paper's
    "#Inst." column, which this module calibrates to exactly), function
    count and size distribution (e.g. bzip2's few huge functions, which
    drive the quadratic stack-protection checking cost), direct-call
    density into libc (which drives the library-linking hash cost),
    indirect-call sites and jump-table entries (Figure 5), and the
    relocation count (which drives loading cost).

    Function counts per application are inferred from the paper's own
    tables: Figure 4 minus Figure 3 instruction deltas divided by the
    per-function canary overhead. Indirect-site/table-entry counts come
    from the Figure 5 deltas the same way. *)

type name = Nginx | Bzip2 | Graph500 | Mcf | Memcached | Netperf | Otpgen

val all : name list
val to_string : name -> string
val of_string : string -> name option

type profile = {
  bench : name;
  app_functions : int;
  libc_breadth : int;        (** distinct libc functions called *)
  libc_calls_per_fn : int;   (** mean direct libc calls per function *)
  app_calls_per_fn : int;    (** mean direct app-internal calls *)
  indirect_sites : int;
  table_entries : int;
  data_slots : int;          (** relocated function-pointer slots *)
  data_bytes : int;          (** raw .data payload besides the slots *)
  bss_bytes : int;
  giants : int * float;
      (** (count, weight): the first [count] functions are outsized by
          [weight] — SPEC bzip2's mainSort-style monsters, whose
          quadratic stack-protection scan cost Figure 4 exposes *)
  stack_density : float;
      (** probability a filler instruction stores to a stack slot (a
          canary-store candidate for the policy scan) *)
  target_plain : int;        (** paper Figure 3 #Inst. *)
  target_stack : int;        (** paper Figure 4 #Inst. *)
  target_ifcc : int;         (** paper Figure 5 #Inst. *)
}

type built = {
  prof : profile;
  funcs : Asm.func list;         (** _start, app, jump table, libc, pad *)
  libc_names : string list;      (** corpus names linked into the binary *)
  data : string;
  data_symbols : (string * int) list;  (** symbol -> offset within .data *)
  pointer_slots : (int * string) list;
      (** (.data offset, target function) pairs needing
          [R_X86_64_RELATIVE] relocations *)
  bss_size : int;
  instructions : int;            (** decoded instruction count of the text *)
}

val build :
  ?seed:string -> ?libc:Libc.version -> Codegen.instrumentation -> name -> built
(** Deterministically synthesize the workload, calibrated so
    [instructions] equals the paper's #Inst for the chosen
    instrumentation (exact for the default corpus; a different [libc]
    version shifts it by at most the version's size delta). *)

(** {1 Adversarial fixtures}

    Tiny binaries that defeat one analysis tier and are caught (or
    vindicated) by the next. The first two target the pattern/flow gap;
    the rest target the intra/interprocedural gap:

    - [Jump_past_mask]: a conditional branch lands directly on a
      [callq *%rcx] whose five textually-preceding instructions are a
      complete, legitimate IFCC masking sequence. The pattern-mode
      IFCC policy accepts; flow mode sees the unmasked branch-taken
      path join in and rejects with [ifcc-unmasked-on-path] at the
      call.
    - [Early_ret]: a function with a correct canary prologue and a
      correct compare+[jne __stack_chk_fail] epilogue, plus a
      conditional early [ret] that unwinds without the compare. The
      pattern-mode stack policy finds the epilogue somewhere in the
      function and accepts; flow mode rejects with
      [stack-ret-unprotected] at the early return.
    - [Jump_into_mask]: the masked indirect call is perfectly guarded
      within its own CFG, but another function jumps straight onto the
      call instruction. Intra flow mode accepts; the interprocedural
      tier sees the call graph's [Jump_into] edge and rejects with
      [ifcc-unmasked-interproc] at the call.
    - [Tail_call_skip]: every [ret] is dominated by the canary compare,
      but a conditional tail jump to a {e returning} function exits the
      frame before the compare. Intra flow mode accepts; the
      interprocedural tier rejects with
      [stack-ret-unprotected-interproc] at the tail jump.
    - [Mask_in_callee]: the masking sequence lives in a helper; the
      caller issues the indirect call right after the helper returns.
      Intra flow mode wrongly rejects ([ifcc-unmasked-on-path]); the
      interprocedural tier applies the helper's summary and accepts —
      the precision direction.
    - [Unsanitized_entry]: an [ecall_] entry point branches on
      host-controlled flags and reads [%rdi] before scrubbing either
      ([sanitize-unscrubbed-flags], [sanitize-unscrubbed-reg]); a
      sibling entry scrubs first and stays clean.
    - [Giant n]: a compliant [n]-function call chain under a sanitized
      entry — zero findings everywhere, one summary per function; the
      summary-memoization benchmark's raw material.

    Link them with {!Linker.link_adversarial}. *)

type adversarial =
  | Jump_past_mask
  | Early_ret
  | Jump_into_mask
  | Tail_call_skip
  | Mask_in_callee
  | Unsanitized_entry
  | Giant of int

val adversarial_all : adversarial list
val adversarial_to_string : adversarial -> string

val adversarial_funcs : adversarial -> Asm.func list
(** The fixture's function list ([_start], the attacking function, and
    its victims/handlers), ready for {!Asm.assemble} or
    {!Linker.link_raw}. *)
