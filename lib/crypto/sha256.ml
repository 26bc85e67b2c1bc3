(* SHA-256, FIPS 180-4. The chaining state, the message schedule and
   the working variables are native ints holding 32-bit words, so
   compressing a block allocates nothing. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;              (* 8-word chaining state *)
  block : Bytes.t;            (* 64-byte input buffer *)
  mutable fill : int;         (* bytes currently buffered *)
  mutable total : int;        (* total message bytes absorbed, mod 2^63 *)
  w : int array;              (* 64-word message schedule, reused *)
}

let init () =
  { h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0 }

let mask = 0xffffffff

(* Rotate the 32-bit word [x] right, leaving junk above bit 31. Sums
   and xors of such values are exact in their low 32 bits (2^32 divides
   the native int's 2^63 modulus), so the rounds mask only what they
   store: every word a shift reads from is clean. *)
let rotr x n = (x lsr n) lor (x lsl (32 - n))

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Schedule expansion + 64 rounds, once the first 16 words of [w] hold
   the block. Shared by the Bytes / string / bigstring block loaders so
   every input path runs the identical FIPS 180-4 compression. Indices
   are loop-bounded within the 64-entry [w] and [k]. *)
let compress_rounds ctx =
  let w = ctx.w in
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3)
  and e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = rotr e' 6 lxor rotr e' 11 lxor rotr e' 25 in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = rotr a' 2 lxor rotr a' 13 lxor rotr a' 22 in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g; g := !f; f := e'; e := (!d + t1) land mask;
    d := !c; c := !b; b := a'; a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask; h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

let word b0 b1 b2 b3 = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3

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
  ctx.total <- ctx.total + len;
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
  ctx.total <- ctx.total + len;
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

(* The 8 chaining words, big-endian, at the start of [b]. *)
let put_words ctx b = Array.iteri (fun i v -> Bytes.set_int32_be b (4 * i) (Int32.of_int v)) ctx.h

let finalize ctx =
  (* The bit length mod 2^64 depends only on the byte count mod 2^61,
     which [total] holds exactly. *)
  let bits = Int64.mul (Int64.of_int ctx.total) 8L in
  (* Padding: 0x80, zeros up to 56 mod 64, 8-byte big-endian bit length. *)
  let zeros = (119 - ctx.fill) mod 64 in
  let pad = Bytes.make (1 + zeros + 8) '\x00' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad (1 + zeros) bits;
  update ctx (Bytes.unsafe_to_string pad);
  assert (ctx.fill = 0);
  let out = Bytes.create 32 in
  put_words ctx out;
  Bytes.unsafe_to_string out

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
  let b = Bytes.make state_len '\x00' in
  put_words ctx b;
  (* [total] is the byte count mod 2^63; as an unsigned 63-bit value it
     is the count itself for any message shorter than 2^63 bytes. *)
  Bytes.set_int64_be b 32 (Int64.logand (Int64.of_int ctx.total) Int64.max_int);
  Bytes.set b 40 (Char.chr ctx.fill);
  Bytes.blit ctx.block 0 b 41 ctx.fill;
  Bytes.unsafe_to_string b

(* In place, allocating nothing: every field is read a byte at a time
   into native ints. *)
let byte s i = Char.code (String.unsafe_get s i)

let import_state_into ctx s =
  String.length s = state_len
  &&
  let fill = byte s 40 in
  let total = ref 0 in
  for i = 32 to 39 do
    total := (!total lsl 8) lor byte s i
  done;
  (* A state between updates always has fill < 64, and the buffered
     tail is exactly total mod 64; a count of 2^63 or more (top bit
     set) is refused. *)
  fill <= 63 && byte s 32 < 0x80 && !total land 63 = fill
  && begin
       for i = 0 to 7 do
         let j = 4 * i in
         ctx.h.(i) <- word (byte s j) (byte s (j + 1)) (byte s (j + 2)) (byte s (j + 3))
       done;
       ctx.total <- !total;
       ctx.fill <- fill;
       Bytes.blit_string s 41 ctx.block 0 fill;
       true
     end

let import_state s =
  let ctx = init () in
  if import_state_into ctx s then Some ctx else None

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let digest_hex s = hex (digest s)
