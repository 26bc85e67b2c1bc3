type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let seed_of_bytes s =
  let d = Sha256.digest s in
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code d.[i]))
  done;
  !v

let create s = { state = seed_of_bytes s }

let uniform t n =
  if n <= 0 then invalid_arg "Fastrand.uniform";
  if n = 1 then 0
  else begin
    (* Keep draws in 60 bits: 1 lsl 62 would overflow OCaml's 63-bit
       native int. Rejection sampling keeps the draw exact. *)
    let bound = 1 lsl 60 in
    let limit = bound - (bound mod n) in
    let rec draw () =
      let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 4) in
      if v < limit then v mod n else draw ()
    in
    draw ()
  end

let bool t = Int64.logand (bits64 t) 1L = 1L
