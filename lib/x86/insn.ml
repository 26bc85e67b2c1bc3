type width = W32 | W64

type cond = E | NE | L | LE | G | GE | B | BE | A | AE | S | NS

type mem = {
  seg_fs : bool;
  base : Reg.t option;
  index : (Reg.t * int) option;
  disp : int;
}

type operand =
  | Reg of width * Reg.t
  | Imm of int
  | Mem of width * mem
  | Rip of int
  | Rel of int

type mnem =
  | MOV | LEA | ADD | SUB | AND | OR | XOR | CMP | TEST | IMUL
  | SHL | SHR | PUSH | POP | CALL | CALL_IND | JMP | JMP_IND
  | JCC of cond | RET | NOP | UD2

type t = { mnem : mnem; ops : operand list }

let mem ?(seg_fs = false) ?base ?index disp = { seg_fs; base; index; disp }

(* Operand order convention: AT&T (source first, destination last). *)

let mov_ri r imm = { mnem = MOV; ops = [ Imm imm; Reg (W64, r) ] }
let mov_rr ?(w = W64) src dst = { mnem = MOV; ops = [ Reg (w, src); Reg (w, dst) ] }

let mov_load ?(w = W64) ?(seg_fs = false) m dst =
  { mnem = MOV; ops = [ Mem (w, { m with seg_fs = m.seg_fs || seg_fs }); Reg (w, dst) ] }

let mov_store ?(w = W64) src m = { mnem = MOV; ops = [ Reg (w, src); Mem (w, m) ] }
let mov_fs_canary r = mov_load ~seg_fs:true (mem 0x28) r
let store_rsp r = mov_store r (mem ~base:Reg.RSP 0)
let cmp_rsp r = { mnem = CMP; ops = [ Mem (W64, mem ~base:Reg.RSP 0); Reg (W64, r) ] }
let lea_rip r disp = { mnem = LEA; ops = [ Rip disp; Reg (W64, r) ] }

let binop ?(w = W64) mnem src dst = { mnem; ops = [ Reg (w, src); Reg (w, dst) ] }
let binop_i mnem imm dst = { mnem; ops = [ Imm imm; Reg (W64, dst) ] }

let add_rr ?w src dst = binop ?w ADD src dst
let sub_rr ?w src dst = binop ?w SUB src dst
let xor_rr ?w src dst = binop ?w XOR src dst
let and_rr ?w src dst = binop ?w AND src dst
let or_rr ?w src dst = binop ?w OR src dst
let cmp_rr ?w src dst = binop ?w CMP src dst
let test_rr ?w src dst = binop ?w TEST src dst
let and_ri r imm = binop_i AND imm r
let add_ri r imm = binop_i ADD imm r
let sub_ri r imm = binop_i SUB imm r
let cmp_ri r imm = binop_i CMP imm r
let imul_rr src dst = { mnem = IMUL; ops = [ Reg (W64, src); Reg (W64, dst) ] }
let shl_ri r imm = { mnem = SHL; ops = [ Imm imm; Reg (W64, r) ] }
let shr_ri r imm = { mnem = SHR; ops = [ Imm imm; Reg (W64, r) ] }
let push r = { mnem = PUSH; ops = [ Reg (W64, r) ] }
let pop r = { mnem = POP; ops = [ Reg (W64, r) ] }
let call rel = { mnem = CALL; ops = [ Rel rel ] }
let call_ind r = { mnem = CALL_IND; ops = [ Reg (W64, r) ] }
let jmp rel = { mnem = JMP; ops = [ Rel rel ] }
let jmp_ind r = { mnem = JMP_IND; ops = [ Reg (W64, r) ] }
let jcc c rel = { mnem = JCC c; ops = [ Rel rel ] }
let ret = { mnem = RET; ops = [] }
let nop = { mnem = NOP; ops = [] }
let nopl = { mnem = NOP; ops = [ Mem (W32, mem ~base:Reg.RAX 0) ] }
let ud2 = { mnem = UD2; ops = [] }

let equal a b = a = b

let stack_store i =
  match (i.mnem, i.ops) with
  | MOV, [ Reg (_, src); Mem (_, { seg_fs = false; base = Some (Reg.RSP | Reg.RBP); _ }) ] ->
      Some src
  | _ -> None

let canary_load i =
  match (i.mnem, i.ops) with
  | MOV, [ Mem (_, { seg_fs = true; base = None; index = None; disp = 0x28 }); Reg (_, dst) ] ->
      Some dst
  | _ -> None

let cond_name = function
  | E -> "e" | NE -> "ne" | L -> "l" | LE -> "le" | G -> "g" | GE -> "ge"
  | B -> "b" | BE -> "be" | A -> "a" | AE -> "ae" | S -> "s" | NS -> "ns"

let mnem_name = function
  | MOV -> "mov" | LEA -> "lea" | ADD -> "add" | SUB -> "sub" | AND -> "and"
  | OR -> "or" | XOR -> "xor" | CMP -> "cmp" | TEST -> "test" | IMUL -> "imul"
  | SHL -> "shl" | SHR -> "shr" | PUSH -> "push" | POP -> "pop"
  | CALL -> "callq" | CALL_IND -> "callq*" | JMP -> "jmpq" | JMP_IND -> "jmpq*"
  | JCC c -> "j" ^ cond_name c | RET -> "retq" | NOP -> "nop" | UD2 -> "ud2"

let reg_name w r = match w with W32 -> Reg.name32 r | W64 -> Reg.name64 r

let mem_to_string m =
  let seg = if m.seg_fs then "%fs:" else "" in
  let disp = if m.disp = 0 && (m.base <> None || m.index <> None) then "" else Printf.sprintf "0x%x" m.disp in
  let inner =
    match (m.base, m.index) with
    | None, None -> ""
    | Some b, None -> Printf.sprintf "(%s)" (Reg.name64 b)
    | Some b, Some (i, s) -> Printf.sprintf "(%s,%s,%d)" (Reg.name64 b) (Reg.name64 i) s
    | None, Some (i, s) -> Printf.sprintf "(,%s,%d)" (Reg.name64 i) s
  in
  seg ^ disp ^ inner

let operand_to_string = function
  | Reg (w, r) -> reg_name w r
  | Imm i -> Printf.sprintf "$0x%x" i
  | Mem (_, m) -> mem_to_string m
  | Rip d -> Printf.sprintf "0x%x(%%rip)" d
  | Rel d -> Printf.sprintf ".%+d" d

let to_string t =
  match t.ops with
  | [] -> mnem_name t.mnem
  | ops -> mnem_name t.mnem ^ " " ^ String.concat ", " (List.map operand_to_string ops)
