let elfmag = "\x7fELF"
let elfclass64 = 2
let elfdata2lsb = 1
let ev_current = 1
let et_dyn = 3
let em_x86_64 = 62
let ehsize = 64
let phentsize = 56
let shentsize = 64
let symentsize = 24
let relaentsize = 24
let dynentsize = 16

let pt_load = 1
let pt_dynamic = 2

let pf_x = 1
let pf_w = 2
let pf_r = 4

let sht_null = 0
let sht_progbits = 1
let sht_symtab = 2
let sht_strtab = 3
let sht_rela = 4
let sht_nobits = 8
let sht_dynamic = 6

let shf_write = 1
let shf_alloc = 2
let shf_execinstr = 4

let stt_func = 2
let stt_object = 1
let stb_global = 1

let dt_null = 0
let dt_rela = 7
let dt_relasz = 8
let dt_relaent = 9

let r_x86_64_relative = 8

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
  st_value : int;
  st_size : int;
  st_info : int;
}

let symbol_is_func s = s.st_info land 0xf = stt_func

type rela = {
  r_offset : int;
  r_type : int;
  r_sym : int;
  r_addend : int;
}
