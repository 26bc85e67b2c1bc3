(* The list-and-Hashtbl instruction buffer that one decoded array
   replaced, kept as the reference for {!X86.Decoder}, {!X86.Nacl} and
   {!Engarde.Disasm}: a fresh cursor and result per instruction, a list
   sweep reversed at the end, an offset -> index [Hashtbl] for NaCl's
   target and reachability checks with a [Queue] worklist, and Disasm's
   copy of every record into a second record with a vaddr -> index
   [Hashtbl]. test_x86's "oracle" holds the table to it record by
   record. *)

open X86
open Insn

type meta = {
  len : int;
  n_prefix : int;
  n_opcode : int;
  n_disp : int;
  n_imm : int;
}

type decoded = { insn : Insn.t; off : int; meta : meta }

(* Decoding cursor over an immutable byte buffer. *)
type cursor = {
  code : Decoder.bigstring;
  code_len : int;  (* cached [Bigarray.Array1.dim code] *)
  start : int;     (* offset of the instruction being decoded *)
  mutable pos : int;
  mutable seg_fs : bool;
  mutable rex : int;           (* 0 when absent *)
  mutable n_prefix : int;
  mutable n_opcode : int;
  mutable n_disp : int;
  mutable n_imm : int;
}

exception Fail of Decoder.error

let peek c =
  if c.pos >= c.code_len then raise (Fail (Decoder.Truncated c.start));
  Char.code (Bigarray.Array1.unsafe_get c.code c.pos)

let next c =
  let b = peek c in
  c.pos <- c.pos + 1;
  b

let sign8 v = if v >= 0x80 then v - 0x100 else v

let read_disp8 c =
  c.n_disp <- c.n_disp + 1;
  sign8 (next c)

let read_i32 c =
  let b0 = next c in
  let b1 = next c in
  let b2 = next c in
  let b3 = next c in
  let v = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
  if v land 0x8000_0000 <> 0 then v - (1 lsl 32) else v

let read_disp32 c =
  c.n_disp <- c.n_disp + 4;
  read_i32 c

let read_imm8 c =
  c.n_imm <- c.n_imm + 1;
  sign8 (next c)

let read_imm32 c =
  c.n_imm <- c.n_imm + 4;
  read_i32 c

let rex_w c = c.rex land 8 <> 0
let rex_r c = c.rex land 4 <> 0
let rex_x c = c.rex land 2 <> 0
let rex_b c = c.rex land 1 <> 0

let width_of c = if rex_w c then W64 else W32

(* Decoded r/m field: either a register or a memory operand. *)
type rm = Rm_reg of Reg.t | Rm_mem of mem | Rm_rip of int

let decode_modrm c =
  let modrm = next c in
  let md = modrm lsr 6 in
  let reg = ((modrm lsr 3) land 7) lor (if rex_r c then 8 else 0) in
  let rm_low = modrm land 7 in
  let rm =
    if md = 3 then Rm_reg (Reg.of_number (rm_low lor if rex_b c then 8 else 0))
    else if rm_low = 4 then begin
      (* SIB byte follows. *)
      let sib = next c in
      let scale = 1 lsl (sib lsr 6) in
      let index_num = ((sib lsr 3) land 7) lor (if rex_x c then 8 else 0) in
      let base_low = sib land 7 in
      let index = if index_num = 4 then None else Some (Reg.of_number index_num, scale) in
      if base_low = 5 && md = 0 then begin
        let disp = read_disp32 c in
        Rm_mem { seg_fs = c.seg_fs; base = None; index; disp }
      end
      else begin
        let base = Reg.of_number (base_low lor if rex_b c then 8 else 0) in
        let disp =
          match md with 0 -> 0 | 1 -> read_disp8 c | 2 -> read_disp32 c | _ -> assert false
        in
        Rm_mem { seg_fs = c.seg_fs; base = Some base; index; disp }
      end
    end
    else if rm_low = 5 && md = 0 then Rm_rip (read_disp32 c)
    else begin
      let base = Reg.of_number (rm_low lor if rex_b c then 8 else 0) in
      let disp =
        match md with 0 -> 0 | 1 -> read_disp8 c | 2 -> read_disp32 c | _ -> assert false
      in
      Rm_mem { seg_fs = c.seg_fs; base = Some base; index = None; disp }
    end
  in
  (reg, rm)

(* RIP displacements are encoded relative to the next instruction, and
   the raw disp32 read during ModRM decode was read before trailing
   immediates; the [Insn] IR stores it exactly as encoded (from the end
   of the instruction), which coincides because none of our RIP-using
   instructions carry immediates. *)

let alu_of_mr = function
  | 0x01 -> ADD | 0x09 -> OR | 0x21 -> AND | 0x29 -> SUB | 0x31 -> XOR | 0x39 -> CMP
  | _ -> assert false

let alu_of_rm = function
  | 0x03 -> ADD | 0x0b -> OR | 0x23 -> AND | 0x2b -> SUB | 0x33 -> XOR | 0x3b -> CMP
  | _ -> assert false

let alu_of_ext c off = function
  | 0 -> ADD | 1 -> OR | 4 -> AND | 5 -> SUB | 6 -> XOR | 7 -> CMP
  | n ->
      ignore c;
      raise (Fail (Decoder.Invalid (off, Printf.sprintf "unsupported group-1 extension /%d" n)))

let cond_of_code off = function
  | 4 -> E | 5 -> NE | 0xc -> L | 0xe -> LE | 0xf -> G | 0xd -> GE
  | 2 -> B | 6 -> BE | 7 -> A | 3 -> AE | 8 -> S | 9 -> NS
  | n -> raise (Fail (Decoder.Invalid (off, Printf.sprintf "unsupported condition code %x" n)))

let decode_insn c : Insn.t =
  (* Legacy prefixes we accept: 0x64 (FS segment). Then optional REX. *)
  let rec prefixes () =
    match peek c with
    | 0x64 ->
        c.seg_fs <- true;
        c.n_prefix <- c.n_prefix + 1;
        ignore (next c);
        prefixes ()
    | b when b >= 0x40 && b <= 0x4f ->
        c.rex <- b;
        c.n_prefix <- c.n_prefix + 1;
        ignore (next c);
        (* REX must be the last prefix: opcode follows. *)
        ()
    | _ -> ()
  in
  prefixes ();
  let op = next c in
  c.n_opcode <- 1;
  let w = width_of c in
  match op with
  | 0x0f -> begin
      let op2 = next c in
      c.n_opcode <- 2;
      match op2 with
      | 0xaf ->
          let reg, rm = decode_modrm c in
          let dst = Reg.of_number reg in
          (match rm with
          | Rm_reg src -> { mnem = IMUL; ops = [ Reg (w, src); Reg (w, dst) ] }
          | Rm_mem m -> { mnem = IMUL; ops = [ Mem (w, m); Reg (w, dst) ] }
          | Rm_rip d -> { mnem = IMUL; ops = [ Rip d; Reg (w, dst) ] })
      | 0x1f ->
          let _reg, rm = decode_modrm c in
          (match rm with
          | Rm_mem m -> { mnem = NOP; ops = [ Mem (w, m) ] }
          | Rm_reg _ | Rm_rip _ ->
              raise (Fail (Decoder.Invalid (c.start, "nop 0f1f with non-memory operand"))))
      | 0x0b -> ud2
      | b when b >= 0x80 && b <= 0x8f ->
          let cond = cond_of_code c.start (b land 0xf) in
          jcc cond (read_imm32 c)
      | b -> raise (Fail (Decoder.Unknown_opcode (c.start, (0x0f lsl 8) lor b)))
    end
  | 0x01 | 0x09 | 0x21 | 0x29 | 0x31 | 0x39 ->
      let mnem = alu_of_mr op in
      let reg, rm = decode_modrm c in
      let src = Reg.of_number reg in
      (match rm with
      | Rm_reg dst -> { mnem; ops = [ Reg (w, src); Reg (w, dst) ] }
      | Rm_mem m -> { mnem; ops = [ Reg (w, src); Mem (w, m) ] }
      | Rm_rip d -> { mnem; ops = [ Reg (w, src); Rip d ] })
  | 0x03 | 0x0b | 0x23 | 0x2b | 0x33 | 0x3b ->
      let mnem = alu_of_rm op in
      let reg, rm = decode_modrm c in
      let dst = Reg.of_number reg in
      (match rm with
      | Rm_reg src -> { mnem; ops = [ Reg (w, src); Reg (w, dst) ] }
      | Rm_mem m -> { mnem; ops = [ Mem (w, m); Reg (w, dst) ] }
      | Rm_rip d -> { mnem; ops = [ Rip d; Reg (w, dst) ] })
  | 0x85 ->
      let reg, rm = decode_modrm c in
      let src = Reg.of_number reg in
      (match rm with
      | Rm_reg dst -> { mnem = TEST; ops = [ Reg (w, src); Reg (w, dst) ] }
      | Rm_mem m -> { mnem = TEST; ops = [ Reg (w, src); Mem (w, m) ] }
      | Rm_rip d -> { mnem = TEST; ops = [ Reg (w, src); Rip d ] })
  | 0x81 | 0x83 ->
      let ext, rm = decode_modrm c in
      let mnem = alu_of_ext c c.start (ext land 7) in
      let imm = if op = 0x83 then read_imm8 c else read_imm32 c in
      (match rm with
      | Rm_reg dst -> { mnem; ops = [ Imm imm; Reg (w, dst) ] }
      | Rm_mem m -> { mnem; ops = [ Imm imm; Mem (w, m) ] }
      | Rm_rip d -> { mnem; ops = [ Imm imm; Rip d ] })
  | 0x89 ->
      let reg, rm = decode_modrm c in
      let src = Reg.of_number reg in
      (match rm with
      | Rm_reg dst -> { mnem = MOV; ops = [ Reg (w, src); Reg (w, dst) ] }
      | Rm_mem m -> { mnem = MOV; ops = [ Reg (w, src); Mem (w, m) ] }
      | Rm_rip d -> { mnem = MOV; ops = [ Reg (w, src); Rip d ] })
  | 0x8b ->
      let reg, rm = decode_modrm c in
      let dst = Reg.of_number reg in
      (match rm with
      | Rm_reg src -> { mnem = MOV; ops = [ Reg (w, src); Reg (w, dst) ] }
      | Rm_mem m -> { mnem = MOV; ops = [ Mem (w, m); Reg (w, dst) ] }
      | Rm_rip d -> { mnem = MOV; ops = [ Rip d; Reg (w, dst) ] })
  | 0x8d ->
      let reg, rm = decode_modrm c in
      let dst = Reg.of_number reg in
      (match rm with
      | Rm_rip d -> { mnem = LEA; ops = [ Rip d; Reg (w, dst) ] }
      | Rm_mem m -> { mnem = LEA; ops = [ Mem (w, m); Reg (w, dst) ] }
      | Rm_reg _ -> raise (Fail (Decoder.Invalid (c.start, "lea with register source"))))
  | 0xc7 ->
      let ext, rm = decode_modrm c in
      if ext land 7 <> 0 then raise (Fail (Decoder.Invalid (c.start, "c7 with extension <> /0")));
      let imm = read_imm32 c in
      (match rm with
      | Rm_reg dst -> { mnem = MOV; ops = [ Imm imm; Reg (w, dst) ] }
      | Rm_mem m -> { mnem = MOV; ops = [ Imm imm; Mem (w, m) ] }
      | Rm_rip d -> { mnem = MOV; ops = [ Imm imm; Rip d ] })
  | 0xc1 ->
      let ext, rm = decode_modrm c in
      let mnem =
        match ext land 7 with
        | 4 -> SHL
        | 5 -> SHR
        | n -> raise (Fail (Decoder.Invalid (c.start, Printf.sprintf "shift group extension /%d" n)))
      in
      let imm = read_imm8 c in
      (match rm with
      | Rm_reg r -> { mnem; ops = [ Imm imm; Reg (w, r) ] }
      | Rm_mem _ | Rm_rip _ -> raise (Fail (Decoder.Invalid (c.start, "shift on memory unsupported"))))
  | b when b >= 0x50 && b <= 0x57 ->
      push (Reg.of_number ((b land 7) lor if rex_b c then 8 else 0))
  | b when b >= 0x58 && b <= 0x5f ->
      pop (Reg.of_number ((b land 7) lor if rex_b c then 8 else 0))
  | 0xe8 -> call (read_imm32 c)
  | 0xe9 -> jmp (read_imm32 c)
  | 0xeb -> jmp (read_imm8 c)
  | b when b >= 0x70 && b <= 0x7f ->
      let cond = cond_of_code c.start (b land 0xf) in
      jcc cond (read_imm8 c)
  | 0xff -> begin
      let ext, rm = decode_modrm c in
      match (ext land 7, rm) with
      | 2, Rm_reg r -> call_ind r
      | 4, Rm_reg r -> jmp_ind r
      | 2, (Rm_mem _ | Rm_rip _) | 4, (Rm_mem _ | Rm_rip _) ->
          raise (Fail (Decoder.Invalid (c.start, "indirect branch through memory unsupported")))
      | n, _ -> raise (Fail (Decoder.Invalid (c.start, Printf.sprintf "ff group extension /%d" n)))
    end
  | 0xc3 -> ret
  | 0x90 -> nop
  | b -> raise (Fail (Decoder.Unknown_opcode (c.start, b)))

let max_insn_len = 15

let decode_one_src (Decoder.Big code) ~pos =
  let code_len = Bigarray.Array1.dim code in
  if pos < 0 || pos >= code_len then Error (Decoder.Truncated pos)
  else begin
    let c =
      { code; code_len; start = pos; pos; seg_fs = false; rex = 0;
        n_prefix = 0; n_opcode = 0; n_disp = 0; n_imm = 0 }
    in
    match decode_insn c with
    | insn ->
        let len = c.pos - pos in
        if len > max_insn_len then Error (Decoder.Invalid (pos, "instruction longer than 15 bytes"))
        else
          Ok
            { insn;
              off = pos;
              meta = { len; n_prefix = c.n_prefix; n_opcode = c.n_opcode;
                       n_disp = c.n_disp; n_imm = c.n_imm } }
    | exception Fail e -> Error e
  end

let decode_all_src ?(pos = 0) ?len code =
  let stop = match len with None -> Decoder.src_length code | Some l -> pos + l in
  let rec go acc pos =
    if pos >= stop then Ok (List.rev acc)
    else
      match decode_one_src code ~pos with
      | Error e -> Error e
      | Ok d ->
          if pos + d.meta.len > stop then Error (Decoder.Truncated pos)
          else go (d :: acc) (pos + d.meta.len)
  in
  go [] pos

let branch_target (d : decoded) =
  match (d.insn.mnem, d.insn.ops) with
  | (CALL | JMP | JCC _), [ Rel rel ] -> Some (d.off + d.meta.len + rel)
  | _ -> None

let validate_src ?(roots = []) ?(check_reachability = true) code =
  match decode_all_src code with
  | Error e -> Error (Nacl.Decode_error e)
  | Ok insns ->
      let insns = Array.of_list insns in
      let n = Array.length insns in
      (* Map from offset to instruction index, for target validation. *)
      let index_of_off = Hashtbl.create (2 * n) in
      Array.iteri (fun i (d : decoded) -> Hashtbl.replace index_of_off d.off i) insns;
      let rec check_bundles i =
        if i >= n then None
        else begin
          let d = insns.(i) in
          let first = d.off / Nacl.bundle_size in
          let last = (d.off + d.meta.len - 1) / Nacl.bundle_size in
          if first <> last then Some (Nacl.Bundle_overlap { off = d.off; len = d.meta.len })
          else check_bundles (i + 1)
        end
      in
      let rec check_targets i =
        if i >= n then None
        else begin
          let d = insns.(i) in
          match branch_target d with
          | Some target when not (Hashtbl.mem index_of_off target) ->
              Some (Nacl.Bad_branch_target { off = d.off; target })
          | Some _ | None -> check_targets (i + 1)
        end
      in
      let check_reach () =
        let reached = Array.make n false in
        let queue = Queue.create () in
        let push_off off =
          match Hashtbl.find_opt index_of_off off with
          | Some i when not reached.(i) ->
              reached.(i) <- true;
              Queue.add i queue
          | Some _ | None -> ()
        in
        if n > 0 then push_off insns.(0).off;
        List.iter push_off roots;
        while not (Queue.is_empty queue) do
          let i = Queue.pop queue in
          let d = insns.(i) in
          (match branch_target d with Some t -> push_off t | None -> ());
          let falls_through =
            match d.insn.mnem with
            | JMP | JMP_IND | RET | UD2 -> false
            | MOV | LEA | ADD | SUB | AND | OR | XOR | CMP | TEST | IMUL
            | SHL | SHR | PUSH | POP | CALL | CALL_IND | JCC _ | NOP -> true
          in
          if falls_through && i + 1 < n then begin
            if not reached.(i + 1) then begin
              reached.(i + 1) <- true;
              Queue.add (i + 1) queue
            end
          end
        done;
        (* Alignment padding (nops between a function's terminal ret/jmp
           and the next 32-byte-aligned function entry) is conventional
           dead code; only non-nop unreachable instructions are flagged. *)
        let is_nop (d : decoded) =
          match d.insn.mnem with NOP -> true | _ -> false
        in
        let rec first_unreached i =
          if i >= n then None
          else if (not reached.(i)) && not (is_nop insns.(i)) then
            Some (Nacl.Unreachable { off = insns.(i).off })
          else first_unreached (i + 1)
        in
        first_unreached 0
      in
      let violation =
        match check_bundles 0 with
        | Some v -> Some v
        | None -> (
            match check_targets 0 with
            | Some v -> Some v
            | None -> if check_reachability then check_reach () else None)
      in
      (match violation with Some v -> Error v | None -> Ok insns)

(* The list-and-Hashtbl [Disasm.run_src]: the same charges, then the
   entry copy and its vaddr -> index table. *)
type entry = { addr : int; insn : Insn.t; len : int; meta : meta }

let records_per_page = Sgx.Epc.page_size / Engarde.Costmodel.buffer_record_bytes

let run_src ?(alloc = `Page) perf ~src ~base ~symbols =
  let roots =
    List.filter_map
      (fun (s : Elf64.Types.symbol) ->
        if Elf64.Types.symbol_is_func s then Some (s.st_value - base) else None)
      symbols
  in
  match validate_src ~roots src with
  | Error v -> Error v
  | Ok decoded ->
      let n = Array.length decoded in
      Array.iter
        (fun (d : decoded) ->
          Sgx.Perf.count_cycles perf
            (Engarde.Costmodel.decode_base
            + (Engarde.Costmodel.decode_per_byte * d.meta.len)
            + (Engarde.Costmodel.decode_per_prefix * d.meta.n_prefix)))
        decoded;
      let trampolines =
        match alloc with
        | `Page -> (n + records_per_page - 1) / records_per_page
        | `Record -> n
      in
      for _ = 1 to trampolines do Sgx.Perf.trampoline perf done;
      let entries =
        Array.map
          (fun (d : decoded) -> { addr = base + d.off; insn = d.insn; len = d.meta.len; meta = d.meta })
          decoded
      in
      let index = Hashtbl.create (2 * n) in
      Array.iteri (fun i e -> Hashtbl.replace index e.addr i) entries;
      let symhash = Engarde.Symhash.build perf symbols in
      Ok (entries, index, symhash)
