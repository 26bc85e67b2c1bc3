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

let branch_target (d : Decoder.decoded) =
  match (d.insn.mnem, d.insn.ops) with
  | (CALL | JMP | JCC _), [ Rel rel ] -> Some (d.off + d.meta.len + rel)
  | _ -> None

let validate_src ?(roots = []) ?(check_reachability = true) code =
  match Decoder.decode_all_src code with
  | Error e -> Error (Decode_error e)
  | Ok insns ->
      let insns = Array.of_list insns in
      let n = Array.length insns in
      (* Map from offset to instruction index, for target validation. *)
      let index_of_off = Hashtbl.create (2 * n) in
      Array.iteri (fun i (d : Decoder.decoded) -> Hashtbl.replace index_of_off d.off i) insns;
      let rec check_bundles i =
        if i >= n then None
        else begin
          let d = insns.(i) in
          let first = d.Decoder.off / bundle_size in
          let last = (d.Decoder.off + d.Decoder.meta.len - 1) / bundle_size in
          if first <> last then Some (Bundle_overlap { off = d.Decoder.off; len = d.Decoder.meta.len })
          else check_bundles (i + 1)
        end
      in
      let rec check_targets i =
        if i >= n then None
        else begin
          let d = insns.(i) in
          match branch_target d with
          | Some target when not (Hashtbl.mem index_of_off target) ->
              Some (Bad_branch_target { off = d.Decoder.off; target })
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
        if n > 0 then push_off insns.(0).Decoder.off;
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
        let is_nop (d : Decoder.decoded) =
          match d.insn.mnem with NOP -> true | _ -> false
        in
        let rec first_unreached i =
          if i >= n then None
          else if (not reached.(i)) && not (is_nop insns.(i)) then
            Some (Unreachable { off = insns.(i).Decoder.off })
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
