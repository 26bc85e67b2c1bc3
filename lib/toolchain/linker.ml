type image = {
  elf : string;
  text_addr : int;
  data_addr : int;
  bss_addr : int;
  entry : int;
  text : string;
  symbols : Elf64.Types.symbol list;
  relocations : Elf64.Types.rela list;
}

let page = 4096
let align_up v a = (v + a - 1) / a * a

let link_raw ?(text_addr = 0x1000) ?(strip = false) ?data_addr_override ?(entry_symbol = "_start")
    ~funcs ~data ~data_symbols ~pointer_slots ~bss_size () =
  (* First pass with zero extern addresses fixes all sizes (every
     symbolic form has a fixed-width encoding). *)
  let dummy_externs = List.map (fun (n, _) -> (n, 0)) data_symbols in
  let pass1 = Asm.assemble ~base:text_addr ~extern:dummy_externs funcs in
  let text_size = String.length pass1.Asm.code in
  let data_addr =
    match data_addr_override with
    | Some a -> a
    | None -> align_up (text_addr + text_size) page
  in
  let externs = List.map (fun (n, off) -> (n, data_addr + off)) data_symbols in
  let asm = Asm.assemble ~base:text_addr ~extern:externs funcs in
  assert (String.length asm.Asm.code = text_size);
  let bss_addr = align_up (data_addr + String.length data) page in
  let fn_symbols =
    List.map
      (fun (name, off, size) ->
        Elf64.Types.{
          st_name = name; st_value = text_addr + off; st_size = size;
          st_info = (stb_global lsl 4) lor stt_func;
        })
      asm.Asm.functions
  in
  (* Jump-table entries are labels inside the table function; LLVM's
     IFCC emits them as first-class symbols and EnGarde's symbol hash
     table needs them (they are the legal indirect-call targets). *)
  let entry_symbols =
    Hashtbl.fold
      (fun name off acc ->
        if Codegen.is_jump_table_entry name && name <> Codegen.jump_table_sym then
          Elf64.Types.{
            st_name = name; st_value = text_addr + off; st_size = 8;
            st_info = (stb_global lsl 4) lor stt_func;
          }
          :: acc
        else acc)
      asm.Asm.labels []
  in
  let data_syms =
    List.map
      (fun (name, off) ->
        Elf64.Types.{
          st_name = name; st_value = data_addr + off; st_size = 8;
          st_info = (stb_global lsl 4) lor stt_object;
        })
      data_symbols
  in
  let symbols = fn_symbols @ entry_symbols @ data_syms in
  let fn_addr name =
    match Hashtbl.find_opt asm.Asm.labels name with
    | Some off -> text_addr + off
    | None -> raise (Asm.Undefined_symbol name)
  in
  let relocations =
    List.map
      (fun (off, target) ->
        Elf64.Types.{
          r_offset = data_addr + off; r_type = r_x86_64_relative; r_sym = 0;
          r_addend = fn_addr target;
        })
      pointer_slots
  in
  let entry = fn_addr entry_symbol in
  let elf =
    Elf64.Writer.build
      {
        Elf64.Writer.default_input with
        Elf64.Writer.entry;
        text_addr;
        text = asm.Asm.code;
        data_addr;
        data;
        bss_addr;
        bss_size;
        symbols;
        relocations;
        strip_symtab = strip;
      }
  in
  { elf; text_addr; data_addr; bss_addr; entry; text = asm.Asm.code; symbols; relocations }

let link ?text_addr ?strip ?data_addr_override (b : Workloads.built) =
  link_raw ?text_addr ?strip ?data_addr_override ~funcs:b.Workloads.funcs
    ~data:b.Workloads.data ~data_symbols:b.Workloads.data_symbols
    ~pointer_slots:b.Workloads.pointer_slots ~bss_size:b.Workloads.bss_size ()

let link_adversarial ?text_addr adv =
  link_raw ?text_addr
    ~funcs:(Workloads.adversarial_funcs adv)
    ~data:"" ~data_symbols:[] ~pointer_slots:[] ~bss_size:0 ()
