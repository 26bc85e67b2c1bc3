(** Static linker: turns a synthesized workload into the position-
    independent, statically linked ELF64 executable the paper's clients
    ship (Section 4): separate code/data sections on distinct pages,
    [STT_FUNC] symbols for every function and jump-table entry, and a
    [.rela.dyn] table of [R_X86_64_RELATIVE] entries for the
    function-pointer slots in [.data]. *)

type image = {
  elf : string;              (** complete ELF file bytes *)
  text_addr : int;
  data_addr : int;
  bss_addr : int;
  entry : int;
  text : string;             (** the linked code blob *)
  symbols : Elf64.Types.symbol list;
  relocations : Elf64.Types.rela list;
}

val link :
  ?text_addr:int ->
  ?strip:bool ->
  ?data_addr_override:int ->
  Workloads.built ->
  image
(** [text_addr] defaults to 0x1000. [strip] drops the symbol table
    (EnGarde must reject such binaries). [data_addr_override] lets tests
    place [.data] onto the same page as the end of [.text], seeding the
    mixed code/data page violation EnGarde checks for. *)

val link_raw :
  ?text_addr:int ->
  ?strip:bool ->
  ?data_addr_override:int ->
  ?entry_symbol:string ->
  funcs:Asm.func list ->
  data:string ->
  data_symbols:(string * int) list ->
  pointer_slots:(int * string) list ->
  bss_size:int ->
  unit ->
  image
(** The general form {!link} wraps: link an arbitrary function list —
    used by EnGarde's binary rewriter to re-link instrumented code. *)

val link_adversarial : ?text_addr:int -> Workloads.adversarial -> image
(** Link one of the adversarial fixtures
    ({!Workloads.adversarial_funcs}) into a complete ELF: no data, no
    relocations, just the code and its symbols. *)
