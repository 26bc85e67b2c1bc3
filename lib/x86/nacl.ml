type violation =
  | Decode_error of Decoder.error
  | Bundle_overlap of { off : int; len : int }
  | Bad_branch_target of { off : int; target : int }
  | Unreachable of { off : int }

let pp_violation fmt = function
  | Decode_error e -> Decoder.pp_error fmt e
  | Bundle_overlap { off; len } ->
      Format.fprintf fmt "instruction at 0x%x (%d bytes) crosses a 32-byte bundle boundary" off len
  | Bad_branch_target { off; target } ->
      Format.fprintf fmt "branch at 0x%x targets 0x%x, not an instruction start" off target
  | Unreachable { off } -> Format.fprintf fmt "instruction at 0x%x is unreachable" off

let violation_to_string v = Format.asprintf "%a" pp_violation v

let bundle_size = 32

(* Target address of a direct CALL/JMP/Jcc, or [min_int]. *)
let target (d : Decoder.decoded) =
  match (d.insn.mnem, d.insn.ops) with
  | (CALL | JMP | JCC _), [ Rel rel ] -> d.addr + d.len + rel
  | _ -> min_int

let falls_through (d : Decoder.decoded) =
  match d.insn.mnem with
  | JMP | JMP_IND | RET | UD2 -> false
  | MOV | LEA | ADD | SUB | AND | OR | XOR | CMP | TEST | IMUL
  | SHL | SHR | PUSH | POP | CALL | CALL_IND | JCC _ | NOP -> true

let is_nop (d : Decoder.decoded) = match d.insn.mnem with NOP -> true | _ -> false

let validate_src ?(base = 0) ?(roots = []) ?(check_reachability = true) code =
  match Decoder.decode_all_src ~base code with
  | Error e -> Error (Decode_error e)
  | Ok insns ->
      let n = Array.length insns in
      let index = Decoder.find_addr insns in
      let rec check_bundles i =
        if i >= n then None
        else begin
          let d = insns.(i) in
          let off = d.addr - base in
          if off / bundle_size <> (off + d.len - 1) / bundle_size then
            Some (Bundle_overlap { off; len = d.len })
          else check_bundles (i + 1)
        end
      in
      let rec check_targets i =
        if i >= n then None
        else begin
          let t = target insns.(i) in
          if t <> min_int && index t < 0 then
            Some (Bad_branch_target { off = insns.(i).addr - base; target = t - base })
          else check_targets (i + 1)
        end
      in
      let check_reach () =
        (* A byte per instruction marks it reached; an instruction enters
           the worklist once, when first marked. *)
        let reached = Bytes.make n '\000' and work = Array.make n 0 and top = ref 0 in
        let push i =
          if i >= 0 && Bytes.get reached i = '\000' then begin
            Bytes.set reached i '\001';
            work.(!top) <- i;
            incr top
          end
        in
        if n > 0 then push 0;
        List.iter (fun r -> push (index (base + r))) roots;
        while !top > 0 do
          decr top;
          let i = work.(!top) in
          let t = target insns.(i) in
          if t <> min_int then push (index t);
          if falls_through insns.(i) && i + 1 < n then push (i + 1)
        done;
        (* Alignment padding (nops between a function's terminal ret/jmp
           and the next 32-byte-aligned function entry) is conventional
           dead code; only non-nop unreachable instructions are flagged. *)
        let rec first_unreached i =
          if i >= n then None
          else if Bytes.get reached i = '\000' && not (is_nop insns.(i)) then
            Some (Unreachable { off = insns.(i).addr - base })
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

let validate ?roots ?check_reachability code =
  validate_src ?roots ?check_reachability (Decoder.src_of_string code)
