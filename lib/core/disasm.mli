(** In-enclave disassembly driver (paper, Section 4).

    Sweeps the client executable's text section with the NaCl-style
    decoder, validating the NaCl constraints (bundle discipline, branch
    targets, reachability from the entry point and function symbols) and
    accumulating every decoded instruction into a dynamically allocated
    instruction buffer — the input all policy modules consume. The
    buffer grows one page at a time: each page allocation costs one
    enclave-exit trampoline, the paper's explicit [malloc] optimization.

    The model charges that buffer by the page; the simulator stores it
    once. The decoder's sweep writes each instruction's record straight
    into one array, NaCl validates that array, and it becomes
    [entries] as it is: no copy, no second record, no hash table. *)

type entry = X86.Decoder.decoded = {
  addr : int;                 (** virtual address of the instruction *)
  insn : X86.Insn.t;          (** shares its register operands *)
  len : int;
  meta : X86.Decoder.meta;    (** one shared record per shape *)
}

type buffer = {
  entries : entry array;      (** in address order *)
  base : int;                 (** vaddr of the first code byte *)
  code : X86.Decoder.src;     (** raw text bytes, for hashing — an
                                  off-heap view *)
}

val index_of_addr : buffer -> int -> int option
(** Buffer index of the instruction starting at a virtual address: a
    binary search over [entries] ({!X86.Decoder.index_of_addr}). *)

val code_length : X86.Decoder.src -> int

val bytes_between : buffer -> lo:int -> hi:int -> string
(** Raw code bytes for the vaddr range [lo, hi). *)

val run :
  ?alloc:[ `Page | `Record ] ->
  Sgx.Perf.t ->
  code:string ->
  base:int ->
  symbols:Elf64.Types.symbol list ->
  (buffer * Symhash.t, X86.Nacl.violation) result
(** Disassemble, validate, build the symbol hash table; charge all
    modelled cycles (decode work, malloc trampolines, symbol inserts) to
    the counter. [alloc] selects the buffer-growth strategy: [`Page]
    (the paper's page-at-a-time malloc, default) or [`Record] (naive
    per-instruction allocation — the ablation baseline). [code] is
    copied into one off-heap buffer ({!X86.Decoder.src_of_string}). *)

val run_src :
  ?alloc:[ `Page | `Record ] ->
  Sgx.Perf.t ->
  src:X86.Decoder.src ->
  base:int ->
  symbols:Elf64.Types.symbol list ->
  (buffer * Symhash.t, X86.Nacl.violation) result
(** {!run} over a byte source: the whole decode/analyze/hash pipeline
    reads the off-heap buffer in place — no copy of the text section
    ever enters the OCaml heap, so parallel domains stop fighting the GC
    over multi-megabyte strings. *)
