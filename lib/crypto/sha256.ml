(* SHA-256 over int32 state, FIPS 180-4. Message schedule and compression
   are kept allocation-free per block: one reusable int32 array. *)

let k =
  [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
     0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
     0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
     0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
     0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
     0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
     0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
     0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
     0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
     0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
     0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
     0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
     0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

type ctx = {
  h : int32 array;            (* 8-word chaining state *)
  block : Bytes.t;            (* 64-byte input buffer *)
  mutable fill : int;         (* bytes currently buffered *)
  mutable total : int64;      (* total message bytes absorbed *)
  w : int32 array;            (* 64-word message schedule, reused *)
}

let init () =
  { h =
      [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
         0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |];
    block = Bytes.create 64;
    fill = 0;
    total = 0L;
    w = Array.make 64 0l }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let ( +% ) = Int32.add
let ( ^% ) = Int32.logxor
let ( &% ) = Int32.logand

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Schedule expansion + 64 rounds, once the first 16 words of [w] hold
   the block. Shared by the Bytes / string / bigstring block loaders so
   every input path runs the identical FIPS 180-4 compression. *)
let compress_rounds ctx =
  let w = ctx.w in
  for i = 16 to 63 do
    let s0 = rotr w.(i - 15) 7 ^% rotr w.(i - 15) 18 ^% Int32.shift_right_logical w.(i - 15) 3 in
    let s1 = rotr w.(i - 2) 17 ^% rotr w.(i - 2) 19 ^% Int32.shift_right_logical w.(i - 2) 10 in
    w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
  done;
  let h = ctx.h in
  let a = ref h.(0) and b' = ref h.(1) and c = ref h.(2) and d = ref h.(3)
  and e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 ^% rotr !e 11 ^% rotr !e 25 in
    let ch = (!e &% !f) ^% (Int32.lognot !e &% !g) in
    let t1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
    let s0 = rotr !a 2 ^% rotr !a 13 ^% rotr !a 22 in
    let maj = (!a &% !b') ^% (!a &% !c) ^% (!b' &% !c) in
    let t2 = s0 +% maj in
    hh := !g; g := !f; f := !e; e := !d +% t1;
    d := !c; c := !b'; b' := !a; a := t1 +% t2
  done;
  h.(0) <- h.(0) +% !a; h.(1) <- h.(1) +% !b'; h.(2) <- h.(2) +% !c;
  h.(3) <- h.(3) +% !d; h.(4) <- h.(4) +% !e; h.(5) <- h.(5) +% !f;
  h.(6) <- h.(6) +% !g; h.(7) <- h.(7) +% !hh

let word b0 b1 b2 b3 =
  Int32.logor
    (Int32.shift_left (Int32.of_int b0) 24)
    (Int32.logor
       (Int32.shift_left (Int32.of_int b1) 16)
       (Int32.logor (Int32.shift_left (Int32.of_int b2) 8) (Int32.of_int b3)))

let compress ctx =
  let w = ctx.w and b = ctx.block in
  for i = 0 to 15 do
    let j = 4 * i in
    w.(i) <-
      word
        (Char.code (Bytes.get b j))
        (Char.code (Bytes.get b (j + 1)))
        (Char.code (Bytes.get b (j + 2)))
        (Char.code (Bytes.get b (j + 3)))
  done;
  compress_rounds ctx

(* Whole aligned block straight out of the source string — skips the
   bounce through [ctx.block], which is most of the per-block overhead
   when callers hand us full messages. *)
let compress_string ctx s off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (4 * i) in
    w.(i) <-
      word
        (Char.code (String.unsafe_get s j))
        (Char.code (String.unsafe_get s (j + 1)))
        (Char.code (String.unsafe_get s (j + 2)))
        (Char.code (String.unsafe_get s (j + 3)))
  done;
  compress_rounds ctx

let compress_big ctx (b : bigstring) off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (4 * i) in
    w.(i) <-
      word
        (Char.code (Bigarray.Array1.unsafe_get b j))
        (Char.code (Bigarray.Array1.unsafe_get b (j + 1)))
        (Char.code (Bigarray.Array1.unsafe_get b (j + 2)))
        (Char.code (Bigarray.Array1.unsafe_get b (j + 3)))
  done;
  compress_rounds ctx

let update_sub ctx s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Sha256.update_sub";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref pos and len = ref len in
  (* Top up a partial block first so the fast path below stays aligned. *)
  if ctx.fill > 0 && !len > 0 then begin
    let n = min (64 - ctx.fill) !len in
    Bytes.blit_string s !pos ctx.block ctx.fill n;
    ctx.fill <- ctx.fill + n;
    pos := !pos + n;
    len := !len - n;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  end;
  if ctx.fill = 0 then begin
    while !len >= 64 do
      compress_string ctx s !pos;
      pos := !pos + 64;
      len := !len - 64
    done;
    if !len > 0 then begin
      Bytes.blit_string s !pos ctx.block 0 !len;
      ctx.fill <- !len
    end
  end

let update_big_sub ctx (b : bigstring) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim b then
    invalid_arg "Sha256.update_big_sub";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let blit_to_block src_pos dst_pos n =
    for i = 0 to n - 1 do
      Bytes.unsafe_set ctx.block (dst_pos + i)
        (Bigarray.Array1.unsafe_get b (src_pos + i))
    done
  in
  let pos = ref pos and len = ref len in
  if ctx.fill > 0 && !len > 0 then begin
    let n = min (64 - ctx.fill) !len in
    blit_to_block !pos ctx.fill n;
    ctx.fill <- ctx.fill + n;
    pos := !pos + n;
    len := !len - n;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  end;
  if ctx.fill = 0 then begin
    while !len >= 64 do
      compress_big ctx b !pos;
      pos := !pos + 64;
      len := !len - 64
    done;
    if !len > 0 then begin
      blit_to_block !pos 0 !len;
      ctx.fill <- !len
    end
  end

let update ctx s = update_sub ctx s ~pos:0 ~len:(String.length s)

let finalize ctx =
  let bits = Int64.mul ctx.total 8L in
  (* Padding: 0x80, zeros, 8-byte big-endian bit length. *)
  update ctx "\x80";
  while ctx.fill <> 56 do update ctx "\x00" done;
  let len8 = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set len8 i
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * (7 - i))) 0xffL)))
  done;
  update ctx (Bytes.to_string len8);
  assert (ctx.fill = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    for j = 0 to 3 do
      Bytes.set out ((4 * i) + j)
        (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v (8 * (3 - j))) 0xffl)))
    done
  done;
  Bytes.to_string out

(* Midstate import/export: the chaining state of a partially-absorbed
   message, serialized to a fixed 104-byte string. Layout: 8 big-endian
   h-words (32) || big-endian total (8) || fill (1) || block bytes
   padded with zeros to 63 (only [fill] of them meaningful; fill < 64
   always holds between updates). Resuming an imported state and
   absorbing the remaining message yields the same digest as hashing
   the whole message in one context — the property SGX-MAGE-style
   measurement derivation depends on. *)

let state_len = 32 + 8 + 1 + 63

let export_state ctx =
  let b = Bytes.create state_len in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    for j = 0 to 3 do
      Bytes.set b ((4 * i) + j)
        (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v (8 * (3 - j))) 0xffl)))
    done
  done;
  for i = 0 to 7 do
    Bytes.set b (32 + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical ctx.total (8 * (7 - i))) 0xffL)))
  done;
  Bytes.set b 40 (Char.chr ctx.fill);
  Bytes.blit ctx.block 0 b 41 ctx.fill;
  Bytes.to_string b

let import_state s =
  if String.length s <> state_len then None
  else begin
    let fill = Char.code s.[40] in
    let total = ref 0L in
    for i = 0 to 7 do
      total := Int64.logor (Int64.shift_left !total 8) (Int64.of_int (Char.code s.[32 + i]))
    done;
    (* A state between updates always has fill < 64, and the buffered
       tail is exactly total mod 64. *)
    if fill > 63 || Int64.rem !total 64L <> Int64.of_int fill || !total < 0L then None
    else begin
      let h = Array.make 8 0l in
      for i = 0 to 7 do
        let v = ref 0l in
        for j = 0 to 3 do
          v := Int32.logor (Int32.shift_left !v 8) (Int32.of_int (Char.code s.[(4 * i) + j]))
        done;
        h.(i) <- !v
      done;
      let block = Bytes.make 64 '\x00' in
      Bytes.blit_string s 41 block 0 fill;
      Some { h; block; fill; total = !total; w = Array.make 64 0l }
    end
  end

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let digest_hex s = hex (digest s)
