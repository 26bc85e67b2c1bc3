(* AES (FIPS 197), forward cipher only: CTR mode never runs the inverse.
   The state is four big-endian 32-bit column words, and each round is
   sixteen lookups into four 256-entry T-tables. The S-box is computed
   once from the GF(2^8) inverse and the T-tables from the S-box, so no
   256-entry literal table needs to be transcribed. Table lookups index
   by secret bytes: this is not constant-time (DESIGN.md §7). *)

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

let sbox =
  (* Multiplicative inverses via exponentiation tables on generator 3. *)
  let exp = Array.make 256 0 and log = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := !x lxor xtime !x (* multiply by generator 3 = x*2 xor x *)
  done;
  let inverse b = if b = 0 then 0 else exp.((255 - log.(b)) mod 255) in
  let rotl8 v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
  Array.init 256 (fun b ->
      let iv = inverse b in
      iv lxor rotl8 iv 1 lxor rotl8 iv 2 lxor rotl8 iv 3 lxor rotl8 iv 4 lxor 0x63)

(* te0.(x) is SubBytes then MixColumns of byte x entering row 0 of a
   column: the bytes 2·S(x), S(x), S(x), 3·S(x), big-endian. Rows 1–3
   see the same column rotated one byte right per row. *)
let te0, te1, te2, te3 =
  let rotr8 w = (w lsr 8) lor ((w land 0xff) lsl 24) in
  let t0 =
    Array.map
      (fun s ->
        let s2 = xtime s in
        (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s))
      sbox
  in
  let t1 = Array.map rotr8 t0 in
  let t2 = Array.map rotr8 t1 in
  (t0, t1, t2, Array.map rotr8 t2)

type key = {
  round_keys : int array;  (* one 32-bit word per column, 4 per round key *)
  rounds : int;            (* 10 for AES-128, 14 for AES-256 *)
}

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let be32 s i =
  (Char.code s.[i] lsl 24) lor (Char.code s.[i + 1] lsl 16)
  lor (Char.code s.[i + 2] lsl 8) lor Char.code s.[i + 3]

let sub_word w =
  (sbox.(w lsr 24) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let expand raw =
  let nk =
    match String.length raw with
    | 16 -> 4
    | 32 -> 8
    | n -> invalid_arg (Printf.sprintf "Aes.expand: key must be 16 or 32 bytes, got %d" n)
  in
  let rounds = nk + 6 in
  let w = Array.make (4 * (rounds + 1)) 0 in
  for i = 0 to nk - 1 do w.(i) <- be32 raw (4 * i) done;
  for i = nk to Array.length w - 1 do
    let t = w.(i - 1) in
    let t =
      if i mod nk = 0 then
        (* RotWord + SubWord + Rcon *)
        sub_word (((t lsl 8) land 0xffffffff) lor (t lsr 24)) lxor (rcon.((i / nk) - 1) lsl 24)
      else if nk > 6 && i mod nk = 4 then sub_word t
      else t
    in
    w.(i) <- w.(i - nk) lxor t
  done;
  { round_keys = w; rounds }

(* The last round: SubBytes and ShiftRows of one output column, whose
   rows come from columns [a], [b], [c], [d]; no MixColumns. *)
let last_column a b c d k =
  (sbox.(a lsr 24) lsl 24)
  lor (sbox.((b lsr 16) land 0xff) lsl 16)
  lor (sbox.((c lsr 8) land 0xff) lsl 8)
  lor sbox.(d land 0xff)
  lxor k

(* Encrypt the block whose column words are [x0..x3] into [out.(0..3)].
   Column j of a round's output takes row r from column j + r of its
   input (ShiftRows), which is why each line rotates the columns. Every
   word stays below 2^32, so each table index is below 256: the lookups
   skip the bounds check. *)
let encrypt_words { round_keys = rk; rounds } x0 x1 x2 x3 (out : int array) =
  let t0 i = Array.unsafe_get te0 i and t1 i = Array.unsafe_get te1 i in
  let t2 i = Array.unsafe_get te2 i and t3 i = Array.unsafe_get te3 i in
  let s0 = ref (x0 lxor rk.(0)) and s1 = ref (x1 lxor rk.(1)) in
  let s2 = ref (x2 lxor rk.(2)) and s3 = ref (x3 lxor rk.(3)) in
  for r = 1 to rounds - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and b = 4 * r in
    s0 :=
      t0 (a0 lsr 24) lxor t1 ((a1 lsr 16) land 0xff) lxor t2 ((a2 lsr 8) land 0xff)
      lxor t3 (a3 land 0xff) lxor rk.(b);
    s1 :=
      t0 (a1 lsr 24) lxor t1 ((a2 lsr 16) land 0xff) lxor t2 ((a3 lsr 8) land 0xff)
      lxor t3 (a0 land 0xff) lxor rk.(b + 1);
    s2 :=
      t0 (a2 lsr 24) lxor t1 ((a3 lsr 16) land 0xff) lxor t2 ((a0 lsr 8) land 0xff)
      lxor t3 (a1 land 0xff) lxor rk.(b + 2);
    s3 :=
      t0 (a3 lsr 24) lxor t1 ((a0 lsr 16) land 0xff) lxor t2 ((a1 lsr 8) land 0xff)
      lxor t3 (a2 land 0xff) lxor rk.(b + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and b = 4 * rounds in
  out.(0) <- last_column a0 a1 a2 a3 rk.(b);
  out.(1) <- last_column a1 a2 a3 a0 rk.(b + 1);
  out.(2) <- last_column a2 a3 a0 a1 rk.(b + 2);
  out.(3) <- last_column a3 a0 a1 a2 rk.(b + 3)

(* Byte [j] of the block held as four words; callers keep [j] in 0–15. *)
let block_byte (words : int array) j =
  (Array.unsafe_get words (j lsr 2) lsr (24 - (8 * (j land 3)))) land 0xff

let encrypt_block key block =
  if String.length block <> 16 then invalid_arg "Aes: block must be 16 bytes";
  let out = Array.make 4 0 in
  encrypt_words key (be32 block 0) (be32 block 4) (be32 block 8) (be32 block 12) out;
  String.init 16 (fun j -> Char.chr (block_byte out j))

let ctr_at ~key ~nonce ~offset data =
  if String.length nonce <> 16 then invalid_arg "Aes.ctr: nonce must be 16 bytes";
  if offset < 0 then invalid_arg "Aes.ctr_at: negative offset";
  (* Counter block i: bytes 0–7 are the nonce's, bytes 8–15 are (the
     nonce's low 64 bits + i) mod 2^64, big-endian, built as two words. *)
  let c0 = be32 nonce 0 and c1 = be32 nonce 4 in
  let hi = be32 nonce 8 and lo = be32 nonce 12 in
  let len = String.length data in
  let out = Bytes.create len in
  let keystream = Array.make 4 0 in
  let pos = ref 0 in
  while !pos < len do
    let stream_pos = offset + !pos in
    let index = stream_pos lsr 4 and in_block = stream_pos land 15 in
    let low = lo + (index land 0xffffffff) in
    let high = (hi + (index lsr 32) + (low lsr 32)) land 0xffffffff in
    encrypt_words key c0 c1 high (low land 0xffffffff) keystream;
    let n = Int.min (16 - in_block) (len - !pos) in
    for j = in_block to in_block + n - 1 do
      let p = !pos + j - in_block in
      Bytes.unsafe_set out p
        (Char.unsafe_chr (Char.code (String.unsafe_get data p) lxor block_byte keystream j))
    done;
    pos := !pos + n
  done;
  Bytes.unsafe_to_string out

let ctr ~key ~nonce data = ctr_at ~key ~nonce ~offset:0 data
