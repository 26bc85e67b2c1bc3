(* Writes two crafted 429.mcf images for the CLI's rejection rule:
   [NOEXEC], whose .text lost SHF_EXECINSTR (no executable section),
   and [EXECDATA], whose .data is executable and read-only (two text
   sections). Both pass every header, symbol and page check before the
   text-section count, so only the inspector's single-text rule rejects
   them.

   Usage: craft_elf.exe NOEXEC EXECDATA *)

let u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)
let u32 s off = u16 s off lor (u16 s (off + 2) lsl 16)
let u64 s off = u32 s off lor (u32 s (off + 4) lsl 32)

(* Overwrite the sh_flags of the section called [name]. *)
let set_flags elf name flags =
  let shoff = u64 elf 0x28 and shentsize = u16 elf 0x3a and shnum = u16 elf 0x3c in
  let shdr i = shoff + (i * shentsize) in
  let strtab = u64 elf (shdr (u16 elf 0x3e) + 24) in
  let name_of i =
    let start = strtab + u32 elf (shdr i) in
    String.sub elf start (String.index_from elf start '\x00' - start)
  in
  let i = List.find (fun i -> name_of i = name) (List.init shnum Fun.id) in
  let b = Bytes.of_string elf in
  Bytes.set_int64_le b (shdr i + 8) (Int64.of_int flags);
  Bytes.to_string b

let () =
  let mcf = Toolchain.Workloads.build Toolchain.Codegen.plain Toolchain.Workloads.Mcf in
  let elf = (Toolchain.Linker.link mcf).Toolchain.Linker.elf in
  let alloc = Elf64.Types.shf_alloc and exec = Elf64.Types.shf_execinstr in
  let write path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
  write Sys.argv.(1) (set_flags elf ".text" alloc);
  write Sys.argv.(2) (set_flags elf ".data" (alloc lor exec))
