type t = {
  mutable k : string;  (* 32 bytes *)
  mutable v : string;  (* 32 bytes *)
}

let update t provided =
  t.k <- Hmac.sha256 ~key:t.k (t.v ^ "\x00" ^ provided);
  t.v <- Hmac.sha256 ~key:t.k t.v;
  if provided <> "" then begin
    t.k <- Hmac.sha256 ~key:t.k (t.v ^ "\x01" ^ provided);
    t.v <- Hmac.sha256 ~key:t.k t.v
  end

let create ?(personalization = "") seed =
  let t = { k = String.make 32 '\x00'; v = String.make 32 '\x01' } in
  update t (seed ^ personalization);
  t

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate";
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    t.v <- Hmac.sha256 ~key:t.k t.v;
    Buffer.add_string buf t.v
  done;
  update t "";
  Buffer.sub buf 0 n

let byte t = Char.code (generate t 1).[0]

let uniform t n =
  if n <= 0 then invalid_arg "Drbg.uniform";
  if n = 1 then 0
  else begin
    (* Rejection sampling over 30-bit draws. *)
    let bound = 1 lsl 30 in
    let limit = bound - (bound mod n) in
    let rec draw () =
      let b = generate t 4 in
      let v =
        (Char.code b.[0] lsl 22) lxor (Char.code b.[1] lsl 14)
        lxor (Char.code b.[2] lsl 6) lxor (Char.code b.[3] lsr 2)
      in
      if v < limit then v mod n else draw ()
    in
    draw ()
  end

let split t label =
  let seed = generate t 32 in
  create ~personalization:label seed
