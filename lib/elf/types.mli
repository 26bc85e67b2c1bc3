(** ELF64 constants and record types (System V ABI, x86-64 supplement).
    Only what a statically linked position-independent executable needs. *)

val elfmag : string
(** "\x7fELF" *)

val elfclass64 : int
val elfdata2lsb : int
val ev_current : int
val et_dyn : int
(** Shared object / PIE file type. *)

val em_x86_64 : int
val ehsize : int
val phentsize : int
val shentsize : int
val symentsize : int
val relaentsize : int
val dynentsize : int

(** Program header types *)

val pt_load : int
val pt_dynamic : int

(** Program header flags *)

val pf_x : int
val pf_w : int
val pf_r : int

(** Section header types *)

val sht_null : int
val sht_progbits : int
val sht_symtab : int
val sht_strtab : int
val sht_rela : int
val sht_nobits : int
val sht_dynamic : int

(** Section flags *)

val shf_write : int
val shf_alloc : int
val shf_execinstr : int

(** Symbol table *)

val stt_func : int
val stt_object : int
val stb_global : int

(** Dynamic tags *)

val dt_null : int
val dt_rela : int
val dt_relasz : int
val dt_relaent : int

(** Relocations *)

val r_x86_64_relative : int

type phdr = {
  p_type : int;
  p_flags : int;
  p_offset : int;
  p_vaddr : int;
  p_filesz : int;
  p_memsz : int;
  p_align : int;
}

type shdr = {
  sh_name : string;
  sh_type : int;
  sh_flags : int;
  sh_addr : int;
  sh_offset : int;
  sh_size : int;
  sh_link : int;
  sh_entsize : int;
}

type symbol = {
  st_name : string;
  st_value : int;   (** virtual address *)
  st_size : int;
  st_info : int;    (** (bind lsl 4) lor type *)
}

val symbol_is_func : symbol -> bool

type rela = {
  r_offset : int;   (** virtual address to patch *)
  r_type : int;
  r_sym : int;
  r_addend : int;
}
