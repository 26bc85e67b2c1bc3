type entry = X86.Decoder.decoded = {
  addr : int;
  insn : X86.Insn.t;
  len : int;
  meta : X86.Decoder.meta;
}

type buffer = { entries : entry array; base : int; code : X86.Decoder.src }

let index_of_addr b addr = X86.Decoder.index_of_addr b.entries addr

let code_length = X86.Decoder.src_length

let code_sub (X86.Decoder.Big b) ~pos ~len = Elf64.Buf.Big.sub_string b ~pos ~len

let bytes_between b ~lo ~hi =
  if hi < lo || lo < b.base || hi > b.base + code_length b.code then
    invalid_arg "Disasm.bytes_between";
  code_sub b.code ~pos:(lo - b.base) ~len:(hi - lo)

let records_per_page = Sgx.Epc.page_size / Costmodel.buffer_record_bytes

let run_src ?(alloc = `Page) perf ~src ~base ~symbols =
  let roots =
    List.filter_map
      (fun (s : Elf64.Types.symbol) ->
        if Elf64.Types.symbol_is_func s then Some (s.st_value - base) else None)
      symbols
  in
  match X86.Nacl.validate_src ~base ~roots src with
  | Error v -> Error v
  | Ok entries ->
      let n = Array.length entries in
      (* Decode cost: table dispatch + per byte + per prefix byte. *)
      Array.iter
        (fun e ->
          Sgx.Perf.count_cycles perf
            (Costmodel.decode_base
            + (Costmodel.decode_per_byte * e.len)
            + (Costmodel.decode_per_prefix * e.meta.n_prefix)))
        entries;
      (* Buffer memory comes from malloc, which exits the enclave via a
         trampoline. The paper's optimization allocates a page at a time
         (Section 4); the naive alternative pays one trampoline per
         instruction record (the ablation benchmark measures the gap). *)
      let trampolines =
        match alloc with
        | `Page -> (n + records_per_page - 1) / records_per_page
        | `Record -> n
      in
      for _ = 1 to trampolines do Sgx.Perf.trampoline perf done;
      let symhash = Symhash.build perf symbols in
      Ok ({ entries; base; code = src }, symhash)

let run ?alloc perf ~code ~base ~symbols =
  run_src ?alloc perf ~src:(X86.Decoder.src_of_string code) ~base ~symbols
