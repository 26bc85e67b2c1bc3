module W = struct
  type t = Buffer.t

  let create () = Buffer.create 4096
  let length = Buffer.length
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t v;
    u16 t (v lsr 16)

  let u64 t v =
    if v < 0 then invalid_arg "Buf.W.u64: negative";
    u32 t v;
    u32 t (v lsr 32)

  let bytes t s = Buffer.add_string t s
  let zeros t n = Buffer.add_string t (String.make n '\x00')

  let pad_to t off =
    let cur = Buffer.length t in
    if off < cur then invalid_arg (Printf.sprintf "Buf.W.pad_to: offset 0x%x < current 0x%x" off cur);
    zeros t (off - cur)

  let contents = Buffer.contents
end

module R = struct
  type t = string

  exception Out_of_bounds of int

  let of_string s = s
  let length = String.length

  let check t pos n = if pos < 0 || pos + n > String.length t then raise (Out_of_bounds pos)

  let u8 t ~pos =
    check t pos 1;
    Char.code t.[pos]

  let u16 t ~pos =
    check t pos 2;
    Char.code t.[pos] lor (Char.code t.[pos + 1] lsl 8)

  let u32 t ~pos =
    check t pos 4;
    u16 t ~pos lor (u16 t ~pos:(pos + 2) lsl 16)

  let u64 t ~pos =
    check t pos 8;
    let lo = u32 t ~pos and hi = u32 t ~pos:(pos + 4) in
    if hi land 0xe000_0000 <> 0 then failwith "Buf.R.u64: value exceeds max_int";
    lo lor (hi lsl 32)

  let sub t ~pos ~len =
    check t pos len;
    String.sub t pos len

  let cstring t ~pos =
    check t pos 0;
    let rec find i = if i >= String.length t || t.[i] = '\x00' then i else find (i + 1) in
    let stop = find pos in
    String.sub t pos (stop - pos)
end

module Big = struct
  type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create n : t = Bigarray.Array1.create Bigarray.Char Bigarray.c_layout n
  let length (t : t) = Bigarray.Array1.dim t
  let get (t : t) i = Bigarray.Array1.get t i

  let of_string s =
    let n = String.length s in
    let t = create n in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set t i (String.unsafe_get s i)
    done;
    t

  let to_string t = String.init (length t) (fun i -> Bigarray.Array1.unsafe_get t i)

  let check (t : t) pos len =
    if pos < 0 || len < 0 || pos + len > length t then invalid_arg "Buf.Big: out of bounds"

  (* Zero-copy view: shares storage with [t]. *)
  let sub (t : t) ~pos ~len : t =
    check t pos len;
    Bigarray.Array1.sub t pos len

  let sub_string (t : t) ~pos ~len =
    check t pos len;
    String.init len (fun i -> Bigarray.Array1.unsafe_get t (pos + i))
end
