open X86

type error = Not_rewritable of string

let error_to_string = function Not_rewritable why -> "not rewritable: " ^ why

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

(* --- lifting: machine code back to the symbolic Asm IR --- *)

type span = { fname : string; lo : int; hi : int }

let spans_of symbols text_lo text_hi =
  let funcs =
    symbols
    |> List.filter Elf64.Types.symbol_is_func
    |> List.map (fun (s : Elf64.Types.symbol) -> (s.st_value, s.st_name))
    |> List.sort_uniq compare
  in
  let rec build = function
    | [] -> []
    | [ (addr, name) ] -> [ { fname = name; lo = addr; hi = text_hi } ]
    | (addr, name) :: ((next, _) :: _ as rest) ->
        { fname = name; lo = addr; hi = next } :: build rest
  in
  match funcs with
  | [] -> fail "no function symbols"
  | (first, _) :: _ ->
      if first <> text_lo then fail "code before the first function symbol";
      build funcs

(* Lift one function's decoded instructions to items. [fn_at] names the
   function starting at an address (if any); [data_sym_at] resolves a
   RIP target inside the data sections to an extern symbol name. *)
let lift_function (span : span) entries ~fn_at ~data_sym_at =
  (* Intra-function branch targets become local labels. *)
  let label_of addr = Printf.sprintf ".Lrw_%s_%x" span.fname addr in
  let local_targets = Hashtbl.create 8 in
  List.iter
    (fun (e : Decoder.decoded) ->
      match (e.Decoder.insn.Insn.mnem, e.Decoder.insn.Insn.ops) with
      | (Insn.JMP | Insn.JCC _ | Insn.CALL), [ Insn.Rel rel ] ->
          let t = e.Decoder.addr + e.Decoder.len + rel in
          if t >= span.lo && t < span.hi && fn_at t = None then
            Hashtbl.replace local_targets t ()
      | _ -> ())
    entries;
  let items =
    List.concat_map
      (fun (e : Decoder.decoded) ->
        let prefix =
          if Hashtbl.mem local_targets e.Decoder.addr then
            [ Asm.Label (label_of e.Decoder.addr) ]
          else []
        in
        let resolved =
          match (e.Decoder.insn.Insn.mnem, e.Decoder.insn.Insn.ops) with
          | Insn.CALL, [ Insn.Rel rel ] -> begin
              let t = e.Decoder.addr + e.Decoder.len + rel in
              match fn_at t with
              | Some name -> Asm.Call_sym name
              | None ->
                  if Hashtbl.mem local_targets t then Asm.Call_sym (label_of t)
                  else fail "call at 0x%x targets 0x%x: neither function nor local" e.Decoder.addr t
            end
          | Insn.JMP, [ Insn.Rel rel ] -> begin
              let t = e.Decoder.addr + e.Decoder.len + rel in
              match fn_at t with
              | Some name -> Asm.Jmp_sym name
              | None ->
                  if Hashtbl.mem local_targets t then Asm.Jmp_sym (label_of t)
                  else fail "jmp at 0x%x targets 0x%x: neither function nor local" e.Decoder.addr t
            end
          | Insn.JCC c, [ Insn.Rel rel ] -> begin
              let t = e.Decoder.addr + e.Decoder.len + rel in
              match fn_at t with
              | Some name -> Asm.Jcc_sym (c, name)
              | None ->
                  if Hashtbl.mem local_targets t then Asm.Jcc_sym (c, label_of t)
                  else fail "jcc at 0x%x targets 0x%x: neither function nor local" e.Decoder.addr t
            end
          | Insn.LEA, [ Insn.Rip disp; Insn.Reg (Insn.W64, r) ] -> begin
              let t = e.Decoder.addr + e.Decoder.len + disp in
              match fn_at t with
              | Some name -> Asm.Lea_sym (r, name)
              | None -> (
                  match data_sym_at t with
                  | Some name -> Asm.Lea_sym (r, name)
                  | None -> fail "lea at 0x%x references 0x%x: unresolvable" e.Decoder.addr t)
            end
          | (Insn.MOV | Insn.ADD | Insn.SUB | Insn.AND | Insn.OR | Insn.XOR | Insn.CMP
            | Insn.TEST | Insn.IMUL), ops
            when List.exists (function Insn.Rip _ -> true | _ -> false) ops ->
              fail "RIP-relative memory operand at 0x%x is not liftable" e.Decoder.addr
          | _ -> Asm.Ins e.Decoder.insn
        in
        prefix @ [ resolved ])
      entries
  in
  { Asm.fname = span.fname; items }

(* --- instrumentation --- *)

let chk_fail = Codegen.stack_chk_fail_sym

(* Insert canary prologue/epilogue into a lifted function. *)
let protect_function (f : Asm.func) =
  let has_store =
    List.exists (function Asm.Ins i -> Insn.stack_store i <> None | _ -> false) f.Asm.items
  in
  let has_canary =
    List.exists (function Asm.Ins i -> Insn.canary_load i <> None | _ -> false) f.Asm.items
  in
  if (not has_store) || has_canary then f
  else begin
    let fail_label = Printf.sprintf ".Lrw_%s_chkfail" f.Asm.fname in
    let epilogue =
      [
        Asm.Ins (Insn.mov_fs_canary Reg.RAX);
        Asm.Ins (Insn.cmp_rsp Reg.RAX);
        Asm.Jcc_sym (Insn.NE, fail_label);
      ]
    in
    let body =
      List.concat_map
        (function
          | Asm.Ins i when Insn.equal i Insn.ret -> epilogue @ [ Asm.Ins Insn.ret ]
          | item -> [ item ])
        f.Asm.items
    in
    let prologue = [ Asm.Ins (Insn.mov_fs_canary Reg.RAX); Asm.Ins (Insn.store_rsp Reg.RAX) ] in
    let handler = [ Asm.Label fail_label; Asm.Call_sym chk_fail; Asm.Ins Insn.ud2 ] in
    { f with Asm.items = prologue @ body @ handler }
  end

(* --- whole-binary rewrite --- *)

let add_stack_protection ?(exempt = []) (elf : Elf64.Reader.t) =
  try
    if Elf64.Reader.function_symbols elf = [] then fail "stripped binary";
    if
      List.exists
        (fun (s : Elf64.Types.symbol) -> Codegen.is_jump_table_entry s.st_name)
        elf.Elf64.Reader.symbols
    then fail "IFCC jump tables present; relayout would change their 8-byte stride";
    let exempt_tbl = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace exempt_tbl n ()) exempt;
    let text =
      match Elf64.Reader.text_sections elf with
      | [ t ] -> t
      | _ -> fail "need exactly one text section"
    in
    let entries =
      match X86.Decoder.decode_all ~base:text.Elf64.Reader.addr text.Elf64.Reader.data with
      | Ok ds -> ds
      | Error e -> fail "undecodable text: %s" (X86.Decoder.error_to_string e)
    in
    let text_lo = text.Elf64.Reader.addr in
    let text_hi = text_lo + String.length text.Elf64.Reader.data in
    let spans = spans_of elf.Elf64.Reader.symbols text_lo text_hi in
    let fn_names = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace fn_names s.lo s.fname) spans;
    let fn_at addr = Hashtbl.find_opt fn_names addr in
    (* Data layout: preserve relative offsets; symbols come through as
       externs, plus synthetic externs for anonymous lea targets. *)
    let datas = Elf64.Reader.data_sections elf in
    let data_section =
      match List.find_opt (fun (s : Elf64.Reader.section) -> s.name = ".data") datas with
      | Some s -> s
      | None -> fail "no .data section"
    in
    let bss_size =
      match List.find_opt (fun (s : Elf64.Reader.section) -> s.name = ".bss") datas with
      | Some s -> s.size
      | None -> 0
    in
    let data_lo = data_section.addr in
    let data_len = String.length data_section.data in
    let extra_syms = Hashtbl.create 8 in
    let declared =
      List.filter_map
        (fun (s : Elf64.Types.symbol) ->
          if Elf64.Types.symbol_is_func s then None
          else if s.st_value >= data_lo && s.st_value < data_lo + data_len then
            Some (s.st_name, s.st_value - data_lo)
          else None)
        elf.Elf64.Reader.symbols
    in
    let data_sym_at addr =
      if addr < data_lo || addr >= data_lo + data_len + bss_size then None
      else begin
        let off = addr - data_lo in
        match List.find_opt (fun (_, o) -> o = off) declared with
        | Some (name, _) -> Some name
        | None ->
            let name = Printf.sprintf "__rw_data_%x" off in
            Hashtbl.replace extra_syms name off;
            Some name
      end
    in
    (* Lift, instrument, and make sure a __stack_chk_fail exists. *)
    let funcs =
      List.map
        (fun span ->
          let lo = X86.Decoder.lower_bound entries span.lo in
          let hi = max lo (X86.Decoder.lower_bound entries span.hi) in
          let body = Array.to_list (Array.sub entries lo (hi - lo)) in
          let lifted = lift_function span body ~fn_at ~data_sym_at in
          if Hashtbl.mem exempt_tbl lifted.Asm.fname then lifted
          else protect_function lifted)
        spans
    in
    let funcs =
      if List.exists (fun (f : Asm.func) -> f.Asm.fname = chk_fail) funcs then funcs
      else funcs @ [ { Asm.fname = chk_fail; items = [ Asm.Ins Insn.ud2 ] } ]
    in
    (* Relocation slots: addends must be function starts so they can be
       re-resolved after relayout. *)
    let pointer_slots =
      List.map
        (fun (r : Elf64.Types.rela) ->
          if r.r_type <> Elf64.Types.r_x86_64_relative then
            fail "unsupported relocation type %d" r.r_type;
          match fn_at r.r_addend with
          | Some name -> (r.r_offset - data_lo, name)
          | None -> fail "relocation addend 0x%x is not a function" r.r_addend)
        elf.Elf64.Reader.relocations
    in
    let data_symbols =
      declared @ Hashtbl.fold (fun name off acc -> (name, off) :: acc) extra_syms []
    in
    let entry_symbol =
      match fn_at elf.Elf64.Reader.entry with
      | Some name -> name
      | None -> fail "entry point is not a function start"
    in
    let image =
      Linker.link_raw ~text_addr:text_lo ~entry_symbol ~funcs
        ~data:data_section.Elf64.Reader.data ~data_symbols ~pointer_slots ~bss_size ()
    in
    Ok image.Linker.elf
  with
  | Fail why -> Error (Not_rewritable why)
  | Asm.Undefined_symbol s -> Error (Not_rewritable ("undefined symbol " ^ s))
  | Asm.Duplicate_symbol s -> Error (Not_rewritable ("duplicate symbol " ^ s))
