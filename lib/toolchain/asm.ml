open X86

type item =
  | Ins of Insn.t
  | Label of string
  | Call_sym of string
  | Jmp_sym of string
  | Jcc_sym of Insn.cond * string
  | Lea_sym of Reg.t * string
  | Align of int

type func = {
  fname : string;
  items : item list;
}

type result = {
  code : string;
  labels : (string, int) Hashtbl.t;
  functions : (string * int * int) list;
  n_instructions : int;
}

exception Undefined_symbol of string
exception Duplicate_symbol of string

let bundle = Nacl.bundle_size

(* Symbolic items have fixed encodings, so sizes are known up front. *)
let item_size = function
  | Ins i -> Encoder.length i
  | Label _ -> 0
  | Call_sym _ | Jmp_sym _ -> 5
  | Jcc_sym _ -> 6
  | Lea_sym _ -> 7
  | Align _ -> -1 (* position dependent; handled explicitly *)

let align_up v a = (v + a - 1) / a * a

(* Padding needed so an [n]-byte instruction starting at [off] does not
   cross a bundle boundary. *)
let bundle_pad off n =
  if n > bundle then invalid_arg "Asm: instruction longer than a bundle";
  let room = bundle - (off mod bundle) in
  if n <= room then 0 else room

(* Layout pass: assign an offset to every instruction and label. *)
let layout funcs =
  let labels = Hashtbl.create 256 in
  let bind name off =
    if Hashtbl.mem labels name then raise (Duplicate_symbol name);
    Hashtbl.replace labels name off
  in
  let off = ref 0 in
  let positions = ref [] in
  (* Each emitted chunk: (offset, item). Pending labels bind to the next
     instruction, after any bundle padding. *)
  let functions = ref [] in
  List.iter
    (fun f ->
      off := align_up !off bundle;
      bind f.fname !off;
      let fstart = !off in
      let pending = ref [] in
      List.iter
        (fun item ->
          match item with
          | Label name -> pending := name :: !pending
          | Align a ->
              off := align_up !off a;
              ()
          | _ ->
              let n = item_size item in
              off := !off + bundle_pad !off n;
              List.iter (fun name -> bind name !off) !pending;
              pending := [];
              positions := (!off, n, item) :: !positions;
              off := !off + n)
        f.items;
      List.iter (fun name -> bind name !off) !pending;
      functions := (f.fname, fstart) :: !functions)
    funcs;
  let total = align_up !off bundle in
  (labels, List.rev !positions, List.rev !functions, total)

let assemble ?(base = 0) ?(extern = []) funcs =
  let labels, positions, function_starts, total = layout funcs in
  (* [resolve name ~at] is the rel32 displacement from the end of the
     referring instruction (blob offset [at]) to the symbol. Local labels
     are blob-relative; extern symbols are absolute virtual addresses. *)
  let resolve name ~at =
    match Hashtbl.find_opt labels name with
    | Some off -> off - at
    | None -> (
        match List.assoc_opt name extern with
        | Some abs -> abs - (base + at)
        | None -> raise (Undefined_symbol name))
  in
  let buf = Bytes.make total '\x90' in
  List.iter
    (fun (off, _, item) ->
      let bytes =
        match item with
        | Ins i -> Encoder.encode i
        | Call_sym name -> Encoder.encode (Insn.call (resolve name ~at:(off + 5)))
        | Jmp_sym name -> Encoder.encode (Insn.jmp (resolve name ~at:(off + 5)))
        | Jcc_sym (c, name) -> Encoder.encode (Insn.jcc c (resolve name ~at:(off + 6)))
        | Lea_sym (r, name) -> Encoder.encode (Insn.lea_rip r (resolve name ~at:(off + 7)))
        | Label _ | Align _ -> assert false
      in
      Bytes.blit_string bytes 0 buf off (String.length bytes))
    positions;
  let code = Bytes.to_string buf in
  (* Every byte not covered by an item is a 1-byte nop, so the decoded
     instruction count is items + padding bytes. *)
  let item_bytes = List.fold_left (fun acc (_, n, _) -> acc + n) 0 positions in
  let n_instructions = List.length positions + (total - item_bytes) in
  (* Function sizes run to the next function start (or blob end). *)
  let rec sizes = function
    | [] -> []
    | [ (name, start) ] -> [ (name, start, total - start) ]
    | (name, start) :: ((_, next) :: _ as rest) -> (name, start, next - start) :: sizes rest
  in
  { code; labels; functions = sizes function_starts; n_instructions }

let count_only funcs =
  let _, positions, _, total = layout funcs in
  let item_bytes = List.fold_left (fun acc (_, n, _) -> acc + n) 0 positions in
  List.length positions + (total - item_bytes)

let instruction_count r =
  match Decoder.decode_all r.code with
  | Ok ds -> Array.length ds
  | Error e -> failwith ("Asm.instruction_count: " ^ Decoder.error_to_string e)
