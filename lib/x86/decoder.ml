open Insn

type meta = {
  len : int;
  n_prefix : int;
  n_opcode : int;
  n_disp : int;
  n_imm : int;
}

type decoded = { addr : int; insn : Insn.t; len : int; meta : meta }

type error =
  | Truncated of int
  | Unknown_opcode of int * int
  | Invalid of int * string

let pp_error fmt = function
  | Truncated off -> Format.fprintf fmt "truncated instruction at offset 0x%x" off
  | Unknown_opcode (off, b) -> Format.fprintf fmt "unknown opcode 0x%02x at offset 0x%x" b off
  | Invalid (off, why) -> Format.fprintf fmt "invalid instruction at offset 0x%x: %s" off why

let error_to_string e = Format.asprintf "%a" pp_error e

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Instruction bytes are an off-heap [bigstring] view of the mapped
   section: parallel workers decode it in place without dragging
   multi-MB strings across the shared major heap. *)
type src = Big of bigstring

let src_length (Big b) = Bigarray.Array1.dim b

let src_of_string s =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  String.iteri (fun i c -> Bigarray.Array1.unsafe_set b i c) s;
  Big b

(* Decoding cursor over an immutable byte buffer, reset for each
   instruction of a sweep. *)
type cursor = {
  code : bigstring;
  code_len : int;  (* cached [Bigarray.Array1.dim code] *)
  mutable start : int;  (* offset of the instruction being decoded *)
  mutable pos : int;
  mutable seg_fs : bool;
  mutable rex : int;           (* 0 when absent *)
  mutable n_prefix : int;
  mutable n_opcode : int;
  mutable n_disp : int;
  mutable n_imm : int;
  mutable reg : int;  (* ModRM reg field, set by [decode_modrm] *)
}

exception Fail of error

let peek c =
  if c.pos >= c.code_len then raise (Fail (Truncated c.start));
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

(* Immutable values every decoded instruction of their shape shares,
   built once at module initialisation: the 32 register operands, the
   16 [Some base] registers, the one-register instructions, and one
   [meta] per shape (below). *)
let reg_ops = Array.init 32 (fun k -> Reg ((if k < 16 then W32 else W64), Reg.of_number (k land 15)))
let reg_op w n = reg_ops.(match w with W32 -> n | W64 -> n + 16)
let some_regs = Array.init 16 (fun n -> Some (Reg.of_number n))
let pushes = Array.init 16 (fun n -> push (Reg.of_number n))
let pops = Array.init 16 (fun n -> pop (Reg.of_number n))
let call_inds = Array.init 16 (fun n -> call_ind (Reg.of_number n))
let jmp_inds = Array.init 16 (fun n -> jmp_ind (Reg.of_number n))

let read_disp c md =
  match md with 0 -> 0 | 1 -> read_disp8 c | 2 -> read_disp32 c | _ -> assert false

(* Read ModRM, and any SIB and displacement after it; leave the reg
   field in [c.reg] and return the r/m operand at width [w]. *)
let decode_modrm c w =
  let modrm = next c in
  let md = modrm lsr 6 in
  c.reg <- ((modrm lsr 3) land 7) lor (if rex_r c then 8 else 0);
  let rm_low = modrm land 7 in
  let high_b = if rex_b c then 8 else 0 in
  if md = 3 then reg_op w (rm_low lor high_b)
  else if rm_low = 4 then begin
    (* SIB byte follows. *)
    let sib = next c in
    let index_num = ((sib lsr 3) land 7) lor (if rex_x c then 8 else 0) in
    let index = if index_num = 4 then None else Some (Reg.of_number index_num, 1 lsl (sib lsr 6)) in
    let base_low = sib land 7 in
    if base_low = 5 && md = 0 then
      let disp = read_disp32 c in
      Mem (w, { seg_fs = c.seg_fs; base = None; index; disp })
    else
      let disp = read_disp c md in
      Mem (w, { seg_fs = c.seg_fs; base = some_regs.(base_low lor high_b); index; disp })
  end
  else if rm_low = 5 && md = 0 then Rip (read_disp32 c)
  else
    let disp = read_disp c md in
    Mem (w, { seg_fs = c.seg_fs; base = some_regs.(rm_low lor high_b); index = None; disp })

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

let alu_of_ext off = function
  | 0 -> ADD | 1 -> OR | 4 -> AND | 5 -> SUB | 6 -> XOR | 7 -> CMP
  | n -> raise (Fail (Invalid (off, Printf.sprintf "unsupported group-1 extension /%d" n)))

let cond_of_code off = function
  | 4 -> E | 5 -> NE | 0xc -> L | 0xe -> LE | 0xf -> G | 0xd -> GE
  | 2 -> B | 6 -> BE | 7 -> A | 3 -> AE | 8 -> S | 9 -> NS
  | n -> raise (Fail (Invalid (off, Printf.sprintf "unsupported condition code %x" n)))

(* Legacy prefixes we accept: 0x64 (FS segment). Then optional REX. *)
let rec prefixes c =
  match peek c with
  | 0x64 ->
      c.seg_fs <- true;
      c.n_prefix <- c.n_prefix + 1;
      ignore (next c);
      prefixes c
  | b when b >= 0x40 && b <= 0x4f ->
      c.rex <- b;
      c.n_prefix <- c.n_prefix + 1;
      ignore (next c)
      (* REX must be the last prefix: opcode follows. *)
  | _ -> ()

let decode_insn c : Insn.t =
  prefixes c;
  let op = next c in
  c.n_opcode <- 1;
  let w = width_of c in
  match op with
  | 0x0f -> begin
      let op2 = next c in
      c.n_opcode <- 2;
      match op2 with
      | 0xaf ->
          let rm = decode_modrm c w in
          { mnem = IMUL; ops = [ rm; reg_op w c.reg ] }
      | 0x1f -> (
          match decode_modrm c w with
          | Mem _ as m -> { mnem = NOP; ops = [ m ] }
          | _ -> raise (Fail (Invalid (c.start, "nop 0f1f with non-memory operand"))))
      | 0x0b -> ud2
      | b when b >= 0x80 && b <= 0x8f ->
          let cond = cond_of_code c.start (b land 0xf) in
          jcc cond (read_imm32 c)
      | b -> raise (Fail (Unknown_opcode (c.start, (0x0f lsl 8) lor b)))
    end
  | 0x01 | 0x09 | 0x21 | 0x29 | 0x31 | 0x39 ->
      let rm = decode_modrm c w in
      { mnem = alu_of_mr op; ops = [ reg_op w c.reg; rm ] }
  | 0x03 | 0x0b | 0x23 | 0x2b | 0x33 | 0x3b ->
      let rm = decode_modrm c w in
      { mnem = alu_of_rm op; ops = [ rm; reg_op w c.reg ] }
  | 0x85 ->
      let rm = decode_modrm c w in
      { mnem = TEST; ops = [ reg_op w c.reg; rm ] }
  | 0x81 | 0x83 ->
      let rm = decode_modrm c w in
      let mnem = alu_of_ext c.start (c.reg land 7) in
      let imm = if op = 0x83 then read_imm8 c else read_imm32 c in
      { mnem; ops = [ Imm imm; rm ] }
  | 0x89 ->
      let rm = decode_modrm c w in
      { mnem = MOV; ops = [ reg_op w c.reg; rm ] }
  | 0x8b ->
      let rm = decode_modrm c w in
      { mnem = MOV; ops = [ rm; reg_op w c.reg ] }
  | 0x8d -> (
      match decode_modrm c w with
      | Reg _ -> raise (Fail (Invalid (c.start, "lea with register source")))
      | rm -> { mnem = LEA; ops = [ rm; reg_op w c.reg ] })
  | 0xc7 ->
      let rm = decode_modrm c w in
      if c.reg land 7 <> 0 then raise (Fail (Invalid (c.start, "c7 with extension <> /0")));
      let imm = read_imm32 c in
      { mnem = MOV; ops = [ Imm imm; rm ] }
  | 0xc1 ->
      let rm = decode_modrm c w in
      let mnem =
        match c.reg land 7 with
        | 4 -> SHL
        | 5 -> SHR
        | n -> raise (Fail (Invalid (c.start, Printf.sprintf "shift group extension /%d" n)))
      in
      let imm = read_imm8 c in
      (match rm with
      | Reg _ -> { mnem; ops = [ Imm imm; rm ] }
      | _ -> raise (Fail (Invalid (c.start, "shift on memory unsupported"))))
  | b when b >= 0x50 && b <= 0x57 -> pushes.((b land 7) lor if rex_b c then 8 else 0)
  | b when b >= 0x58 && b <= 0x5f -> pops.((b land 7) lor if rex_b c then 8 else 0)
  | 0xe8 -> call (read_imm32 c)
  | 0xe9 -> jmp (read_imm32 c)
  | 0xeb -> jmp (read_imm8 c)
  | b when b >= 0x70 && b <= 0x7f ->
      let cond = cond_of_code c.start (b land 0xf) in
      jcc cond (read_imm8 c)
  | 0xff -> begin
      let rm = decode_modrm c w in
      match (c.reg land 7, rm) with
      | 2, Reg (_, r) -> call_inds.(Reg.number r)
      | 4, Reg (_, r) -> jmp_inds.(Reg.number r)
      | (2 | 4), _ -> raise (Fail (Invalid (c.start, "indirect branch through memory unsupported")))
      | n, _ -> raise (Fail (Invalid (c.start, Printf.sprintf "ff group extension /%d" n)))
    end
  | 0xc3 -> ret
  | 0x90 -> nop
  | b -> raise (Fail (Unknown_opcode (c.start, b)))

let max_insn_len = 15

(* One shared [meta] per shape: prefix bytes (0-14), opcode bytes (1-2),
   ModRM and SIB bytes (0-2), displacement and immediate bytes (0, 1 or
   4 each). An instruction of at most 15 bytes has one of these shapes. *)
let widths = [| 0; 1; 4 |]

let metas =
  Array.init (15 * 2 * 3 * 3 * 3) (fun k ->
      let n_imm = widths.(k mod 3) and n_disp = widths.(k / 3 mod 3) in
      let n_opcode = 1 + (k / 27 mod 2) and n_prefix = k / 54 in
      { len = n_prefix + n_opcode + (k / 9 mod 3) + n_disp + n_imm; n_prefix; n_opcode; n_disp; n_imm })

let unfilled = { addr = 0; insn = nop; len = 0; meta = metas.(0) }

(* Decode the instruction at [pos] into a record at address [addr],
   reusing the cursor. *)
let decode_at c ~addr pos =
  if pos < 0 || pos >= c.code_len then raise (Fail (Truncated pos));
  c.start <- pos;
  c.pos <- pos;
  c.seg_fs <- false;
  c.rex <- 0;
  c.n_prefix <- 0;
  c.n_opcode <- 0;
  c.n_disp <- 0;
  c.n_imm <- 0;
  let insn = decode_insn c in
  let len = c.pos - pos in
  if len > max_insn_len then raise (Fail (Invalid (pos, "instruction longer than 15 bytes")));
  let modrm_sib = len - c.n_prefix - c.n_opcode - c.n_disp - c.n_imm in
  let k = (((((c.n_prefix * 2) + c.n_opcode - 1) * 3) + modrm_sib) * 9) + (min c.n_disp 2 * 3) in
  { addr; insn; len; meta = metas.(k + min c.n_imm 2) }

let cursor code =
  { code; code_len = Bigarray.Array1.dim code; start = 0; pos = 0; seg_fs = false; rex = 0;
    n_prefix = 0; n_opcode = 0; n_disp = 0; n_imm = 0; reg = 0 }

let decode_one_src (Big code) ~pos =
  match decode_at (cursor code) ~addr:pos pos with d -> Ok d | exception Fail e -> Error e

(* The one sweep: each record goes straight into a growable array
   (about one slot per three text bytes to start, doubled when full),
   trimmed to its length at the end. *)
let decode_all_src ?(base = 0) ?(pos = 0) ?len (Big code) =
  let c = cursor code in
  let stop = match len with None -> c.code_len | Some l -> pos + l in
  let buf = ref (Array.make (16 + (max 0 (min stop c.code_len - pos) / 3)) unfilled) in
  let rec go n p =
    if p >= stop then Ok (if n = Array.length !buf then !buf else Array.sub !buf 0 n)
    else begin
      let d = decode_at c ~addr:(base + p) p in
      if p + d.len > stop then Error (Truncated p)
      else begin
        if n = Array.length !buf then buf := Array.append !buf !buf;
        Array.unsafe_set !buf n d;
        go (n + 1) (p + d.len)
      end
    end
  in
  try go 0 pos with Fail e -> Error e

(* The one lookup over a sweep's records, which are sorted by address. *)
let lower_bound (ds : decoded array) addr =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ds.(mid).addr < addr then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ds)

let find_addr ds addr =
  let i = lower_bound ds addr in
  if i < Array.length ds && ds.(i).addr = addr then i else -1

let index_of_addr ds addr = match find_addr ds addr with -1 -> None | i -> Some i

let decode_one code ~pos = decode_one_src (src_of_string code) ~pos
let decode_all ?base ?pos ?len code = decode_all_src ?base ?pos ?len (src_of_string code)
