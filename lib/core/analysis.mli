(** Shared program-analysis index.

    Every policy module used to sweep the full instruction buffer and
    re-derive the same program structure: function boundaries, call-site
    classification, IFCC jump-table extents, callee hashes. This module
    computes all of it in ONE charged pass over the {!Disasm.buffer}
    ({!Costmodel.index_step} per entry, plus per-site classification
    costs) and hands the result to every policy through
    [Policy.context]. Policies then visit pre-classified events —
    direct-call sites, indirect-call sites, function slices — instead of
    re-scanning the raw entry array, so the per-entry scan is paid once
    for the whole agreed policy set instead of once per policy.

    The index also owns the lazy memoized function-hash store: SHA-256
    of a function's instruction bytes is computed (and charged) at most
    once, then shared by all consumers — the optimization the paper's
    library-linking policy lacks and that makes its policy phase the
    dominant cost in Figure 3. *)

type func = {
  fn_addr : int;             (** function start vaddr (symbol value) *)
  fn_name : string;
  fn_end : int;              (** exclusive end vaddr: next function start
                                 or end of code *)
  fn_slice : (int * int) option;
      (** [Some (lo, hi)]: entry indices [lo, hi) of the function's
          instructions; [None] when the symbol does not land on a
          decoded instruction *)
}

type direct_call = {
  dc_index : int;            (** entry index of the call instruction *)
  dc_addr : int;             (** call-site vaddr *)
  dc_target : int;           (** computed target vaddr *)
  dc_name : string option;   (** target resolved through the symbol table *)
}

type indirect_call = {
  ic_index : int;
  ic_addr : int;
  ic_reg : X86.Reg.t;        (** the [callq *%reg] target register *)
  ic_window : int array;
      (** up to five preceding non-padding entry indices, nearest first
          — the IFCC masking sequence lives here. "Padding" means
          exactly {!is_padding} (every NOP encoding the toolchain emits
          as bundle fill, including the multi-byte [nopl]); the window
          skips those and nothing else, so any real instruction —
          including a stray branch — occupies a window slot. *)
}

type t = {
  buffer : Disasm.buffer;
  symbols : Symhash.t;
  functions : func array;            (** in address order *)
  direct_calls : direct_call array;  (** in address order *)
  indirect_calls : indirect_call array;
  indirect_jumps : (int * int) array;
      (** (entry index, vaddr) of [jmpq *%reg] sites, in address order *)
  tables : (int * int) array;
      (** IFCC jump-table vaddr ranges [(lo, hi)), sorted by [lo],
          non-overlapping *)
  branch_targets : int array;
      (** sorted, deduplicated vaddrs targeted by any direct [jmp] or
          [jcc] outside the jump tables — the straight-line soundness
          oracle: a range with no branch target in it cannot be entered
          sideways *)
  hashes : (int, string) Hashtbl.t;
      (** the shared function-hash store: function start vaddr ->
          lowercase SHA-256 hex (use {!function_hash}) *)
  mutable build_cycles : int;
      (** modelled cycles charged by {!build} — the amortized index
          cost, reported separately from per-policy work *)
}

val build : Sgx.Perf.t -> Disasm.buffer -> Symhash.t -> t
(** One charged pass over the buffer: classify every entry
    ({!Costmodel.index_step} each), compute and resolve direct-call
    targets ({!Costmodel.call_target_compute} each), collect the
    preceding-window of every indirect call
    ({!Costmodel.pattern_probe} per window slot), and detect the
    maximal runs of [(jmpq; nopl)] jump-table entry pairs. The hash
    store starts empty — hashes are computed lazily. *)

val is_padding : X86.Insn.t -> bool
(** The shared padding predicate: true exactly for NOP-mnemonic
    instructions (one-byte [0x90], prefixed forms, multi-byte [nopl]).
    Used by the indirect-call window scan, the CFG leader scan
    ({!Cfg.build}), and the lint policy so all three agree on what
    counts as toolchain fill. *)

val function_containing : func array -> int -> int option
(** The index of the function whose [fn_addr, fn_end) range contains
    [addr] in an address-ordered table such as {!field-functions}: a
    binary search for the greatest start [<= addr], then a check against
    its exclusive end. The call graph, the policy VM and the IFCC policy
    all ask this one search; it charges nothing. *)

val function_at : func array -> int -> int option
(** The index of the function that starts exactly at [addr]: the same
    search, then a check of the start. Charges nothing. *)

val branch_target_within : t -> lo:int -> hi:int -> bool
(** Is any direct-branch target in the half-open vaddr range
    [lo, hi)? One binary search over {!field-branch_targets}; callers
    charge {!Costmodel.range_probe}. This is the fast soundness check
    for straight-line code: if a masking sequence and its call span a
    range no branch targets, the sequence cannot be bypassed. *)

val in_table : t -> int -> bool
(** Binary search over the sorted table ranges: is [addr] inside an
    IFCC jump table? O(log #tables), where the pre-index policy paid a
    linear [List.exists] per indirect call site. *)

val function_hash : t -> perf:Sgx.Perf.t -> addr:int -> string option
(** Memoized SHA-256 (lowercase hex) of the instructions from [addr] to
    the next function start. The first request charges the full hash
    cost ({!Costmodel.hash_per_insn} / [hash_per_byte] / [hash_finalize])
    and stores the digest; later requests charge only
    {!Costmodel.hash_memo_lookup}. [None] if [addr] is not a decoded
    instruction. *)

val function_hash_unmemoized : t -> perf:Sgx.Perf.t -> addr:int -> string option
(** Always recompute and charge, never consult or fill the store — the
    paper's per-call-site behaviour, kept as the ablation baseline. *)
