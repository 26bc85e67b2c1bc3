open X86

let canary_load_into r i =
  match Insn.canary_load i with Some dst -> Reg.equal dst r | None -> false

(* Is the last operand register r? *)
let rec last_is r = function
  | [ Insn.Reg (_, dst) ] -> Reg.equal dst r
  | [] | [ _ ] -> false
  | _ :: ops -> last_is r ops

(* Does this instruction (re)define register r? Destination is the last
   operand under the AT&T convention the IR uses. *)
let defines r (i : Insn.t) =
  match (i.Insn.mnem, i.Insn.ops) with
  | (Insn.MOV | Insn.LEA | Insn.ADD | Insn.SUB | Insn.AND | Insn.OR | Insn.XOR
    | Insn.IMUL | Insn.SHL | Insn.SHR),
    ops ->
      last_is r ops
  | Insn.POP, [ Insn.Reg (_, dst) ] -> Reg.equal dst r
  | _ -> false

let cmp_rsp_reg (i : Insn.t) =
  match (i.Insn.mnem, i.Insn.ops) with
  | Insn.CMP, [ Insn.Mem (_, m); Insn.Reg (_, r) ] -> begin
      match m.Insn.base with
      | Some b when Reg.equal b Reg.RSP && m.Insn.disp = 0 && not m.Insn.seg_fs -> Some r
      | Some _ | None -> None
    end
  | _ -> None

(* NaCl bundle padding may interleave nops anywhere, so adjacency is
   modulo padding: [prev]/[next] skip runs of the shared
   {!Analysis.is_padding} predicate. *)
let prev_non_pad (entries : Disasm.entry array) i lo =
  let rec go j =
    if j < lo then None
    else if Analysis.is_padding entries.(j).Disasm.insn then go (j - 1)
    else Some j
  in
  go (i - 1)

let next_non_pad (entries : Disasm.entry array) i hi =
  let rec go j =
    if j >= hi then None
    else if Analysis.is_padding entries.(j).Disasm.insn then go (j + 1)
    else Some j
  in
  go (i + 1)

let canary_check_site (b : Disasm.buffer) symbols ~lo ~hi i =
  let entries = b.Disasm.entries in
  match cmp_rsp_reg entries.(i).Disasm.insn with
  | Some r2
    when (match prev_non_pad entries i lo with
         | Some p -> canary_load_into r2 entries.(p).Disasm.insn
         | None -> false) -> begin
      match next_non_pad entries i hi with
      | None -> None
      | Some inext -> begin
          match entries.(inext).Disasm.insn with
          | { Insn.mnem = Insn.JCC Insn.NE; ops = [ Insn.Rel rel ] } -> begin
              let e = entries.(inext) in
              let jt = e.Disasm.addr + e.Disasm.len + rel in
              match Disasm.index_of_addr b jt with
              | Some k -> begin
                  match entries.(k).Disasm.insn with
                  | { Insn.mnem = Insn.CALL; ops = [ Insn.Rel crel ] } ->
                      let ct = entries.(k).Disasm.addr + entries.(k).Disasm.len + crel in
                      (match Symhash.name_of_addr symbols ct with
                      | Some "__stack_chk_fail" -> Some inext
                      | Some _ | None -> None)
                  | _ -> None
                end
              | None -> None
            end
          | _ -> None
        end
    end
  | Some _ | None -> None

let lea_rip_target (e : Disasm.entry) =
  match (e.Disasm.insn.Insn.mnem, e.Disasm.insn.Insn.ops) with
  | Insn.LEA, [ Insn.Rip disp; Insn.Reg (Insn.W64, r) ] ->
      Some (r, e.Disasm.addr + e.Disasm.len + disp)
  | _ -> None

let ifcc_sub32 (i : Insn.t) =
  match i with
  | { Insn.mnem = Insn.SUB; ops = [ Insn.Reg (Insn.W32, s); Insn.Reg (Insn.W32, d) ] } ->
      Some (s, d)
  | _ -> None

let ifcc_and64 (i : Insn.t) =
  match i with
  | { Insn.mnem = Insn.AND; ops = [ Insn.Imm m; Insn.Reg (Insn.W64, d) ] } -> Some (m, d)
  | _ -> None

let ifcc_add64 (i : Insn.t) =
  match i with
  | { Insn.mnem = Insn.ADD; ops = [ Insn.Reg (Insn.W64, s); Insn.Reg (Insn.W64, d) ] } ->
      Some (s, d)
  | _ -> None

let branch_target (e : Disasm.entry) =
  match (e.Disasm.insn.Insn.mnem, e.Disasm.insn.Insn.ops) with
  | (Insn.JMP | Insn.JCC _), [ Insn.Rel rel ] ->
      Some (e.Disasm.addr + e.Disasm.len + rel)
  | _ -> None

let can_fall_through (i : Insn.t) =
  match i.Insn.mnem with
  | Insn.JMP | Insn.JMP_IND | Insn.RET | Insn.UD2 -> false
  | _ -> true

let sole_reg_operand (i : Insn.t) =
  match i.Insn.ops with [ Insn.Reg (_, r) ] -> Some r | _ -> None
