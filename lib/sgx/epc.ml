let page_size = 4096
let default_pages = 32000

type slot = { index : int; mutable live : bool }

(* Pages are kept in plaintext inside this module and encrypted on
   demand: the [t] type is abstract, so the only way software outside
   the hardware boundary can observe page contents is
   [raw_ciphertext], which applies the hardware key exactly as a
   memory-bus probe would see it. Deferring the cipher keeps enclave
   builds (tens of thousands of page stores) fast without changing
   anything observable through the API. A slot's page is allocated on
   the slot's first [alloc], so an EPC costs only the pages it backs. *)
type t = {
  key : Crypto.Aes.key;                  (* hardware key, never exported *)
  pages : Bytes.t array;                 (* plaintext, module-private;
                                            empty until first allocated *)
  mutable free : int list;
  capacity : int;
  mutable n_free : int;
  mutable epoch : int array;             (* per-page nonce freshness *)
}

exception Out_of_epc

let create ?(pages = default_pages) ~seed () =
  if pages <= 0 then invalid_arg "Epc.create: pages must be positive";
  let drbg = Crypto.Drbg.create ~personalization:"epc-hardware-key" seed in
  {
    key = Crypto.Aes.expand (Crypto.Drbg.generate drbg 32);
    pages = Array.make pages Bytes.empty;
    free = List.init pages Fun.id;
    capacity = pages;
    n_free = pages;
    epoch = Array.make pages 0;
  }

let capacity t = t.capacity
let free_pages t = t.n_free

let alloc t =
  match t.free with
  | [] -> raise Out_of_epc
  | index :: rest ->
      t.free <- rest;
      t.n_free <- t.n_free - 1;
      if Bytes.length t.pages.(index) = 0 then t.pages.(index) <- Bytes.make page_size '\x00';
      { index; live = true }

let check_live s = if not s.live then invalid_arg "Epc: use of released slot"

let nonce t s =
  (* Unique per (page, epoch): the page index in the first 4 bytes, the
     epoch in the next 4, zero counter space after. *)
  let b = Bytes.make 16 '\x00' in
  let set32 pos v =
    for i = 0 to 3 do Bytes.set b (pos + i) (Char.chr ((v lsr (8 * i)) land 0xff)) done
  in
  set32 0 s.index;
  set32 4 t.epoch.(s.index);
  Bytes.to_string b

let release t s =
  check_live s;
  s.live <- false;
  Bytes.fill t.pages.(s.index) 0 page_size '\x00';
  t.epoch.(s.index) <- t.epoch.(s.index) + 1;
  t.free <- s.index :: t.free;
  t.n_free <- t.n_free + 1

let store t s content =
  check_live s;
  if String.length content <> page_size then
    invalid_arg (Printf.sprintf "Epc.store: need %d bytes, got %d" page_size (String.length content));
  t.epoch.(s.index) <- t.epoch.(s.index) + 1;
  Bytes.blit_string content 0 t.pages.(s.index) 0 page_size

let load t s =
  check_live s;
  Bytes.to_string t.pages.(s.index)

let load_sub t s ~pos ~len =
  check_live s;
  if pos < 0 || len < 0 || pos + len > page_size then invalid_arg "Epc.load_sub";
  Bytes.sub_string t.pages.(s.index) pos len

let store_sub t s ~pos content =
  check_live s;
  let len = String.length content in
  if pos < 0 || pos + len > page_size then invalid_arg "Epc.store_sub";
  t.epoch.(s.index) <- t.epoch.(s.index) + 1;
  Bytes.blit_string content 0 t.pages.(s.index) pos len

let raw_ciphertext t s =
  check_live s;
  Crypto.Aes.ctr ~key:t.key ~nonce:(nonce t s) (Bytes.to_string t.pages.(s.index))
