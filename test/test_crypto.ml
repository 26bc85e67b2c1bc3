(* Crypto substrate tests: published vectors for SHA-256 / HMAC / AES,
   algebraic properties (qcheck) for bignum, and RSA round-trips. *)

open Crypto

let check_hex name expected got =
  Alcotest.(check string) name expected (Sha256.hex got)

(* ------------------------------------------------------------------ *)
(* SHA-256: FIPS 180-4 / NIST CAVP vectors                             *)
(* ------------------------------------------------------------------ *)

let sha256_empty () =
  check_hex "sha256(\"\")"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "")

let sha256_abc () =
  check_hex "sha256(abc)"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc")

let sha256_448bits () =
  check_hex "sha256(two-block)"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let sha256_million_a () =
  let ctx = Sha256.init () in
  let chunk = String.make 10_000 'a' in
  for _ = 1 to 100 do Sha256.update ctx chunk done;
  check_hex "sha256(10^6 x a)"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.finalize ctx)

let sha256_streaming_equals_oneshot () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 7; 63; 64; 65; 100; 700 ] in
  List.iter
    (fun sz ->
      let sz = min sz (String.length msg - !pos) in
      Sha256.update_sub ctx msg ~pos:!pos ~len:sz;
      pos := !pos + sz)
    sizes;
  Sha256.update_sub ctx msg ~pos:!pos ~len:(String.length msg - !pos);
  Alcotest.(check string) "streamed = one-shot"
    (Sha256.digest_hex msg)
    (Sha256.hex (Sha256.finalize ctx))

let sha256_update_sub_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "negative pos" (Invalid_argument "Sha256.update_sub")
    (fun () -> Sha256.update_sub ctx "abc" ~pos:(-1) ~len:1);
  Alcotest.check_raises "len overflow" (Invalid_argument "Sha256.update_sub")
    (fun () -> Sha256.update_sub ctx "abc" ~pos:2 ~len:2)

let sha256_big_buffer_equals_string () =
  (* The zero-copy Bigarray absorb path, streamed in chunk sizes that
     straddle the 64-byte block boundary, must agree with the string
     one-shot. *)
  let msg = String.init 1000 (fun i -> Char.chr (i * 7 mod 256)) in
  let big = Elf64.Buf.Big.of_string msg in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  List.iter
    (fun sz ->
      let sz = min sz (String.length msg - !pos) in
      Sha256.update_big_sub ctx big ~pos:!pos ~len:sz;
      pos := !pos + sz)
    [ 1; 7; 63; 64; 65; 100; 700 ];
  Sha256.update_big_sub ctx big ~pos:!pos ~len:(String.length msg - !pos);
  Alcotest.(check string) "big streamed = string one-shot" (Sha256.digest_hex msg)
    (Sha256.hex (Sha256.finalize ctx))

(* Midstate export/import composes with one-shot hashing: a context
   cut anywhere in a message, exported, imported and resumed gives the
   one-shot digest of the whole message. *)
let arb_msgs =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun s -> string_of_int (String.length s)) l))
    QCheck.Gen.(list_size (int_range 0 20) (string_size ~gen:char (int_range 0 300)))

let prop_midstate_resume =
  QCheck.Test.make ~name:"midstate resume matches digest" ~count:100
    (QCheck.pair arb_msgs (QCheck.int_range 0 1000))
    (fun (msgs, cut0) ->
      let resumed =
        List.map
          (fun msg ->
            let cut = if msg = "" then 0 else cut0 mod (String.length msg + 1) in
            let ctx = Sha256.init () in
            Sha256.update_sub ctx msg ~pos:0 ~len:cut;
            match Sha256.import_state (Sha256.export_state ctx) with
            | None -> QCheck.Test.fail_report "midstate did not import"
            | Some ctx' ->
                Sha256.update_sub ctx' msg ~pos:cut ~len:(String.length msg - cut);
                Sha256.finalize ctx')
          msgs
      in
      resumed = List.map Sha256.digest msgs)

(* A peer-supplied midstate may claim any byte count below 2^63. Past
   2^62 it no longer fits an OCaml int, and the bit length in the
   padding wraps mod 2^64. The pinned digests come from a separate
   int32 implementation of FIPS 180-4, not from this one. *)
let sha256_midstate_huge_total () =
  let ctx = Sha256.init () in
  Sha256.update ctx (String.init 109 (fun i -> Char.chr (((i * 13) + 1) land 0xff)));
  let state = Sha256.export_state ctx in
  let with_total total =
    let b = Bytes.of_string state in
    Bytes.set_int64_be b 32 total;
    Bytes.to_string b
  in
  List.iter
    (fun (total, expect) ->
      match Sha256.import_state (with_total total) with
      | None -> Alcotest.failf "total %Lx refused" total
      | Some ctx ->
          Sha256.update ctx (String.make 100 'z');
          check_hex (Printf.sprintf "resumed at %Lx" total) expect (Sha256.finalize ctx))
    [
      (0x400000000000002dL, "40f3f3520906f5a58a6122a7fd9f71fc6719db5706167d70820238c3dc86444e");
      (0x40000000000c0e6dL, "7526de97d4ae554412e03bec69db953935afb727597d645e450e992f3b2cfcda");
      (0x7fffffffffffff2dL, "c9270ce709a30034af914769114baeef21b4fa9f0953a8a252af7b2b471e28f5");
    ];
  Alcotest.(check bool) "total >= 2^63 refused" true
    (Sha256.import_state (with_total 0x800000000000002dL) = None)

(* An exported midstate is a function of the context alone: the unused
   tail of its block field is zeros, whatever the heap held before. *)
let sha256_export_deterministic () =
  let ctx = Sha256.init () in
  Sha256.update ctx "abc";
  let first = Sha256.export_state ctx in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Bytes.make 100 'X'))
  done;
  Gc.minor ();
  Alcotest.(check string) "same export" first (Sha256.export_state ctx);
  Alcotest.(check string) "zero tail" (String.make 60 '\x00') (String.sub first 44 60)

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256: RFC 4231 vectors                                       *)
(* ------------------------------------------------------------------ *)

let hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  check_hex "rfc4231 #1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.sha256 ~key "Hi There")

let hmac_rfc4231_case2 () =
  check_hex "rfc4231 #2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?")

let hmac_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let msg = String.make 50 '\xdd' in
  check_hex "rfc4231 #3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.sha256 ~key msg)

let hmac_rfc4231_long_key () =
  let key = String.make 131 '\xaa' in
  check_hex "rfc4231 #6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.sha256 ~key "Test Using Larger Than Block-Size Key - Hash Key First")

let hmac_verify_roundtrip () =
  let tag = Hmac.sha256 ~key:"k" "m" in
  Alcotest.(check bool) "accepts valid" true (Hmac.verify ~key:"k" ~msg:"m" ~tag);
  let bad = String.mapi (fun i c -> if i = 3 then Char.chr (Char.code c lxor 1) else c) tag in
  Alcotest.(check bool) "rejects flipped bit" false (Hmac.verify ~key:"k" ~msg:"m" ~tag:bad);
  Alcotest.(check bool) "rejects short tag" false (Hmac.verify ~key:"k" ~msg:"m" ~tag:"short")

(* ------------------------------------------------------------------ *)
(* AES: FIPS-197 appendix vectors + CTR involution                     *)
(* ------------------------------------------------------------------ *)

let of_hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let aes128_fips197 () =
  let key = Aes.expand (of_hex "000102030405060708090a0b0c0d0e0f") in
  let ct = Aes.encrypt_block key (of_hex "00112233445566778899aabbccddeeff") in
  check_hex "aes128 encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a" ct

let aes256_fips197 () =
  let key =
    Aes.expand (of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
  in
  let ct = Aes.encrypt_block key (of_hex "00112233445566778899aabbccddeeff") in
  check_hex "aes256 encrypt" "8ea2b7ca516745bfeafc49904b496089" ct

(* NIST SP 800-38A F.5: the plaintext and initial counter block are the
   same for every key size. *)
let sp80038a_nonce = of_hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"

let sp80038a_plaintext =
  of_hex
    ("6bc1bee22e409f96e93d7e117393172a" ^ "ae2d8a571e03ac9c9eb76fac45af8e51"
   ^ "30c81c46a35ce411e5fbc1191a0a52ef" ^ "f69f2445df4f9b17ad2b417be66c3710")

let aes_sp80038a_ctr () =
  (* F.5.1: AES-128-CTR *)
  let key = Aes.expand (of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let expect =
    "874d6191b620e3261bef6864990db6ce" ^ "9806f66b7970fdff8617187bb9fffdff"
    ^ "5ae4df3edbd5d35e5b4f09020db03eab" ^ "1e031dda2fbe03d1792170a0f3009cee"
  in
  check_hex "aes128-ctr sp800-38a" expect (Aes.ctr ~key ~nonce:sp80038a_nonce sp80038a_plaintext)

let aes256_sp80038a_ctr () =
  (* F.5.5: AES-256-CTR, the key size every channel uses *)
  let key =
    Aes.expand (of_hex "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
  in
  let expect =
    "601ec313775789a5b7a7f504bbf3d228" ^ "f443e3ca4d62b59aca84e990cacaf5c5"
    ^ "2b0930daa23de94ce87017ba2d84988d" ^ "dfc9c58db67aada613c2dd08457941a6"
  in
  check_hex "aes256-ctr sp800-38a" expect (Aes.ctr ~key ~nonce:sp80038a_nonce sp80038a_plaintext)

(* The counter is the nonce's last 8 bytes plus the block index, mod
   2^64. Five blocks from ...fffffffe carry from byte 12 into byte 11;
   five from ...fffffffffffffffe wrap to zero and leave bytes 0-7 alone,
   so their third keystream block is the first one of the all-zero
   counter. The pinned digests come from a separate byte-oriented
   implementation of FIPS 197, not from this one. *)
let aes_ctr_carry_and_wrap () =
  let key = Aes.expand (String.init 32 (fun i -> Char.chr ((i * 11) land 0xff))) in
  let data = String.init 80 (fun i -> Char.chr (((i * 37) + 5) land 0xff)) in
  let ctr nonce = Aes.ctr ~key ~nonce:(of_hex nonce) data in
  check_hex "carry into byte 11"
    ("d6e3279d0a2efd9491abe97536dec78c59bb571d8899ff755b69ce782d8328b4"
   ^ "44e8389e6efd4299497d8fada0cdb5f215f1a8b0830a375d68f3bbf37da2aa8e"
   ^ "7f10bee9c9b36b61a603ddee6b789570")
    (ctr "00112233445566778899aabbfffffffe");
  check_hex "wrap at 2^64"
    ("093cb7db75aad595557725043fed9e1eaa4b248b01262055d54ccc016a97b33a"
   ^ "9aa1ece2da1bcd51156f7d7d5e85c2ce77122a55f63b426348aaf124246b1b8b"
   ^ "fa6fcaa964b8500573a4c2b31544d3f2")
    (ctr "0011223344556677fffffffffffffffe");
  let keystream nonce = Aes.ctr ~key ~nonce:(of_hex nonce) (String.make 48 '\x00') in
  Alcotest.(check string) "wrapped block = block 0 of the zero counter"
    (String.sub (keystream "00112233445566770000000000000000") 0 16)
    (String.sub (keystream "0011223344556677fffffffffffffffe") 32 16)

(* An offset of 2^36 bytes is 2^32 blocks: the block index no longer
   fits the counter's low word, and advancing by it is the same as
   adding one to bytes 8-11 of the nonce. *)
let aes_ctr_at_beyond_2_32_blocks () =
  let key = Aes.expand (String.init 16 (fun i -> Char.chr (0xa0 + i))) in
  let nonce = of_hex "0f0e0d0c0b0a09080706050403020100" in
  let data = String.init 80 (fun i -> Char.chr (((i * 37) + 5) land 0xff)) in
  let at offset = Aes.ctr_at ~key ~nonce ~offset data in
  let far = at ((1 lsl 36) + 87) in
  check_hex "offset 2^36 + 87"
    ("c9bcff1dfdcfd37f23a302507e00b246633b0492c49605e796612caa05f1d21a"
   ^ "37442cac1c473d5f6583807bceec04a9dc9741b2978781a59859b27bf560704a"
   ^ "70c842cd2817f5a1f4d7315a024da9e6")
    far;
  check_hex "offset 3 * 2^40 + 9"
    ("bc77b93feb35448eb8be5cda4d38e843e1fc84c52ea50fd39d4bc6395a2a02cd"
   ^ "1480ffec947bfd0160b741db6bd1b94acb27a7aa391a09cdaa7214b3a3d3d03f"
   ^ "81f1dbf6579472e53df9d833b4d8eeb9")
    (at ((3 lsl 40) + 9));
  Alcotest.(check string) "2^32 blocks on = high counter word + 1"
    (Aes.ctr_at ~key ~nonce:(of_hex "0f0e0d0c0b0a09080706050503020100") ~offset:87 data)
    far

let aes_ctr_involution () =
  let key = Aes.expand (String.make 32 'k') in
  let nonce = String.make 16 'n' in
  let data = String.init 1037 (fun i -> Char.chr ((i * 7) mod 256)) in
  Alcotest.(check string) "ctr(ctr(x)) = x" data (Aes.ctr ~key ~nonce (Aes.ctr ~key ~nonce data))

let aes_ctr_at_offset () =
  let key = Aes.expand (String.make 16 'q') in
  let nonce = String.make 16 '\x01' in
  let data = String.init 400 (fun i -> Char.chr (i mod 251)) in
  let whole = Aes.ctr ~key ~nonce data in
  (* Encrypt in three odd-sized pieces at explicit offsets. *)
  let p1 = Aes.ctr_at ~key ~nonce ~offset:0 (String.sub data 0 33) in
  let p2 = Aes.ctr_at ~key ~nonce ~offset:33 (String.sub data 33 100) in
  let p3 = Aes.ctr_at ~key ~nonce ~offset:133 (String.sub data 133 267) in
  Alcotest.(check string) "piecewise = whole" whole (p1 ^ p2 ^ p3)

let aes_bad_key_length () =
  Alcotest.check_raises "24-byte key rejected"
    (Invalid_argument "Aes.expand: key must be 16 or 32 bytes, got 24") (fun () ->
      ignore (Aes.expand (String.make 24 'x')))

(* The nonce is checked on entry, so empty data cannot slip a short one
   past it. *)
let aes_bad_nonce_length () =
  let key = Aes.expand (String.make 16 'k') in
  let bad = Invalid_argument "Aes.ctr: nonce must be 16 bytes" in
  Alcotest.check_raises "short nonce, empty data" bad (fun () ->
      ignore (Aes.ctr ~key ~nonce:"short" ""));
  Alcotest.check_raises "long nonce, empty data at an offset" bad (fun () ->
      ignore (Aes.ctr_at ~key ~nonce:(String.make 17 'n') ~offset:5 ""));
  Alcotest.check_raises "short nonce, some data" bad (fun () ->
      ignore (Aes.ctr ~key ~nonce:"short" "data"))

(* ------------------------------------------------------------------ *)
(* Allocation ceilings: the ciphers run without per-block garbage      *)
(* ------------------------------------------------------------------ *)

let mib = String.init (1 lsl 20) (fun i -> Char.chr ((i * 7) land 0xff))

(* Empty the minor heap first: a minor collection during the
   measurement otherwise adds up to a minor heap's worth of promotions
   made for earlier tests to the reading. Empty it again before reading:
   OCaml 5.1 counts what is still in the minor heap short. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  Gc.allocated_bytes () -. before

let check_ceiling name ~ceiling bytes =
  if bytes > float_of_int ceiling then
    Alcotest.failf "%s allocated %.0f bytes, ceiling %d" name bytes ceiling

(* The output string, plus a little: reads 1,048,728 bytes. *)
let aes_ctr_allocation () =
  let key = Aes.expand (String.make 32 'k') and nonce = String.make 16 'n' in
  check_ceiling "Aes.ctr over 1 MiB" ~ceiling:((1 lsl 20) + (64 lsl 10))
    (allocated (fun () -> Aes.ctr ~key ~nonce mib))

(* The context and the padding: reads 984 bytes. *)
let sha256_allocation () =
  check_ceiling "Sha256.digest over 1 MiB" ~ceiling:(64 lsl 10)
    (allocated (fun () -> Sha256.digest mib))

(* Importing into a live context continues exactly where the exporter
   stopped, allocates nothing, and leaves the context alone when the
   midstate is malformed. *)
let sha256_import_in_place () =
  let src = Sha256.init () in
  Sha256.update src (String.sub mib 0 1000);
  let state = Sha256.export_state src in
  let ctx = Sha256.init () in
  Sha256.update ctx "unrelated prefix";
  let before = Sha256.export_state ctx in
  Alcotest.(check bool) "malformed refused" false
    (Sha256.import_state_into ctx (String.make Sha256.state_len '\xff'));
  Alcotest.(check string) "refusal leaves the context" before (Sha256.export_state ctx);
  (* [allocated] itself reads 96 bytes: the boxed counters of its first
     [Gc.allocated_bytes]. *)
  let harness = allocated (fun () -> true) in
  Alcotest.(check (float 0.)) "allocates nothing" harness
    (allocated (fun () -> Sha256.import_state_into ctx state));
  Sha256.update ctx (String.sub mib 1000 500);
  check_hex "resumed in place" (Sha256.digest_hex (String.sub mib 0 1500))
    (Sha256.finalize ctx)

(* ------------------------------------------------------------------ *)
(* Bignum: unit + property tests                                       *)
(* ------------------------------------------------------------------ *)

let bn = Alcotest.testable Bignum.pp Bignum.equal

let bignum_small_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (string_of_int n) (Some n) (Bignum.to_int_opt (Bignum.of_int n)))
    [ 0; 1; 2; 255; 256; 65535; 1 lsl 26; (1 lsl 26) - 1; 123456789; max_int / 2 ]

let bignum_bytes_roundtrip () =
  let v = Bignum.of_hex "deadbeef0123456789abcdef" in
  Alcotest.check bn "bytes roundtrip" v (Bignum.of_bytes_be (Bignum.to_bytes_be v));
  Alcotest.(check int) "padded width" 20 (String.length (Bignum.to_bytes_be ~width:20 v));
  Alcotest.check bn "padded roundtrip" v (Bignum.of_bytes_be (Bignum.to_bytes_be ~width:20 v))

let bignum_divmod_known () =
  let a = Bignum.of_hex "ffffffffffffffffffffffffffffffff" in
  let b = Bignum.of_hex "fedcba9876543210" in
  let q, r = Bignum.divmod a b in
  Alcotest.check bn "a = q*b + r" a (Bignum.add (Bignum.mul q b) r);
  Alcotest.(check bool) "r < b" true (Bignum.compare r b < 0)

let bignum_modpow_fermat () =
  (* 2^(p-1) mod p = 1 for prime p = 1000003 *)
  let p = Bignum.of_int 1000003 in
  let r = Bignum.modpow ~base:Bignum.two ~exp:(Bignum.sub p Bignum.one) ~modulus:p in
  Alcotest.check bn "fermat little theorem" Bignum.one r

let bignum_modpow_even_modulus () =
  (* 3^5 mod 18 = 243 mod 18 = 9; exercises the non-Montgomery path. *)
  let r =
    Bignum.modpow ~base:(Bignum.of_int 3) ~exp:(Bignum.of_int 5) ~modulus:(Bignum.of_int 18)
  in
  Alcotest.check bn "even modulus" (Bignum.of_int 9) r

let bignum_invmod_known () =
  (* 3 * 7 = 21 = 1 mod 10 *)
  Alcotest.check bn "invmod 3 10" (Bignum.of_int 7) (Bignum.invmod (Bignum.of_int 3) (Bignum.of_int 10));
  Alcotest.check_raises "no inverse" Not_found (fun () ->
      ignore (Bignum.invmod (Bignum.of_int 4) (Bignum.of_int 10)))

let bignum_sub_negative () =
  Alcotest.check_raises "negative result"
    (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (Bignum.sub Bignum.one Bignum.two))

let bignum_prime_generation () =
  let drbg = Drbg.create "prime-test-seed" in
  let rand n = Drbg.generate drbg n in
  let p = Bignum.generate_prime rand 96 in
  Alcotest.(check int) "exact bit width" 96 (Bignum.bit_length p);
  Alcotest.(check bool) "odd" true (Bignum.is_odd p);
  Alcotest.(check bool) "probable prime" true (Bignum.is_probable_prime rand p)

let bignum_known_composites_rejected () =
  let drbg = Drbg.create "composite-test" in
  let rand n = Drbg.generate drbg n in
  List.iter
    (fun n ->
      Alcotest.(check bool) (string_of_int n) false
        (Bignum.is_probable_prime rand (Bignum.of_int n)))
    [ 0; 1; 4; 561; 1105; 41041; 825265 (* Carmichael numbers included *) ]

let bignum_known_primes_accepted () =
  let drbg = Drbg.create "prime-accept" in
  let rand n = Drbg.generate drbg n in
  List.iter
    (fun n ->
      Alcotest.(check bool) (string_of_int n) true
        (Bignum.is_probable_prime rand (Bignum.of_int n)))
    [ 2; 3; 5; 97; 101; 65537; 1000003; 2147483647 ]

(* Property tests over random naturals. *)
let gen_bignum =
  QCheck.Gen.(
    let* nbytes = int_range 0 40 in
    let* s = string_size ~gen:char (return nbytes) in
    return (Bignum.of_bytes_be s))

let arb_bignum = QCheck.make ~print:Bignum.to_hex gen_bignum

let prop_add_comm =
  QCheck.Test.make ~name:"bignum add commutative" ~count:200
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_add_sub =
  QCheck.Test.make ~name:"bignum (a+b)-b = a" ~count:200
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.sub (Bignum.add a b) b) a)

let prop_mul_distributes =
  QCheck.Test.make ~name:"bignum a*(b+c) = a*b + a*c" ~count:100
    (QCheck.triple arb_bignum arb_bignum arb_bignum) (fun (a, b, c) ->
      Bignum.equal
        (Bignum.mul a (Bignum.add b c))
        (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_divmod =
  QCheck.Test.make ~name:"bignum divmod identity" ~count:300
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"bignum shift left/right roundtrip" ~count:200
    (QCheck.pair arb_bignum (QCheck.int_range 0 100)) (fun (a, k) ->
      Bignum.equal a (Bignum.shift_right (Bignum.shift_left a k) k))

let prop_modpow_matches_naive =
  QCheck.Test.make ~name:"modpow matches naive small" ~count:200
    (QCheck.triple (QCheck.int_range 0 1000) (QCheck.int_range 0 12) (QCheck.int_range 3 1001))
    (fun (b, e, m) ->
      let naive =
        let rec go acc i = if i = 0 then acc else go (acc * b mod m) (i - 1) in
        go (1 mod m) e
      in
      let got =
        Bignum.modpow ~base:(Bignum.of_int b) ~exp:(Bignum.of_int e) ~modulus:(Bignum.of_int m)
      in
      Bignum.to_int_opt got = Some naive)

let prop_invmod =
  QCheck.Test.make ~name:"invmod is inverse" ~count:200
    (QCheck.pair (QCheck.int_range 1 100000) (QCheck.int_range 2 100000)) (fun (a, m) ->
      let ba = Bignum.of_int a and bm = Bignum.of_int m in
      match Bignum.invmod ba bm with
      | inv -> Bignum.to_int_opt (Bignum.rem (Bignum.mul inv ba) bm) = Some (1 mod m)
      | exception Not_found ->
          (* Only legal when gcd <> 1. *)
          Bignum.to_int_opt (Bignum.gcd ba bm) <> Some 1)

(* ------------------------------------------------------------------ *)
(* DRBG                                                                *)
(* ------------------------------------------------------------------ *)

let drbg_deterministic () =
  let a = Drbg.create "seed" and b = Drbg.create "seed" in
  Alcotest.(check string) "same seed same stream" (Drbg.generate a 64) (Drbg.generate b 64)

let drbg_distinct_seeds () =
  let a = Drbg.create "seed-1" and b = Drbg.create "seed-2" in
  Alcotest.(check bool) "different seeds differ" true (Drbg.generate a 32 <> Drbg.generate b 32)

let drbg_personalization () =
  let a = Drbg.create ~personalization:"x" "seed" and b = Drbg.create ~personalization:"y" "seed" in
  Alcotest.(check bool) "personalization separates" true (Drbg.generate a 32 <> Drbg.generate b 32)

let drbg_split_independent () =
  let parent = Drbg.create "seed" in
  let c1 = Drbg.split parent "child" in
  let c2 = Drbg.split parent "child" in
  (* The parent advanced between splits, so same label still differs. *)
  Alcotest.(check bool) "sequential splits differ" true (Drbg.generate c1 32 <> Drbg.generate c2 32)

let drbg_uniform_in_range =
  QCheck.Test.make ~name:"drbg uniform stays in range" ~count:300
    (QCheck.pair QCheck.small_string (QCheck.int_range 1 1000)) (fun (seed, n) ->
      let d = Drbg.create seed in
      let v = Drbg.uniform d n in
      v >= 0 && v < n)

(* ------------------------------------------------------------------ *)
(* RSA                                                                 *)
(* ------------------------------------------------------------------ *)

let test_keypair =
  lazy
    (let drbg = Drbg.create "rsa-test-keypair" in
     Rsa.generate drbg ~bits:512)

let rsa_encrypt_roundtrip () =
  let kp = Lazy.force test_keypair in
  let msg = "aes-256-session-key-32-bytes!!!!" in
  let ct = Rsa.encrypt kp.Rsa.pub msg in
  Alcotest.(check (option string)) "roundtrip" (Some msg) (Rsa.decrypt kp ct)

let rsa_decrypt_garbage () =
  let kp = Lazy.force test_keypair in
  let k = Rsa.modulus_bytes kp.Rsa.pub in
  Alcotest.(check (option string)) "garbage rejected" None (Rsa.decrypt kp (String.make k '\x7f'));
  Alcotest.(check (option string)) "wrong length rejected" None (Rsa.decrypt kp "short")

let rsa_sign_verify () =
  let kp = Lazy.force test_keypair in
  let msg = "enclave measurement report" in
  let signature = Rsa.sign kp msg in
  Alcotest.(check bool) "verifies" true (Rsa.verify kp.Rsa.pub ~msg ~signature);
  Alcotest.(check bool) "wrong msg fails" false
    (Rsa.verify kp.Rsa.pub ~msg:"tampered" ~signature);
  let bad =
    String.mapi (fun i c -> if i = 10 then Char.chr (Char.code c lxor 0x40) else c) signature
  in
  Alcotest.(check bool) "corrupt sig fails" false (Rsa.verify kp.Rsa.pub ~msg ~signature:bad)

let rsa_pub_serialization () =
  let kp = Lazy.force test_keypair in
  let bytes = Rsa.pub_to_bytes kp.Rsa.pub in
  match Rsa.pub_of_bytes bytes with
  | None -> Alcotest.fail "pub_of_bytes failed"
  | Some pub ->
      Alcotest.check bn "n survives" kp.Rsa.pub.n pub.Rsa.n;
      Alcotest.check bn "e survives" kp.Rsa.pub.e pub.Rsa.e;
      Alcotest.(check (option Alcotest.reject)) "truncated rejected" None
        (Option.map ignore (Rsa.pub_of_bytes (String.sub bytes 0 (String.length bytes - 1))))

let rsa_keygen_is_deterministic () =
  let kp1 = Rsa.generate (Drbg.create "same-seed") ~bits:256 in
  let kp2 = Rsa.generate (Drbg.create "same-seed") ~bits:256 in
  Alcotest.check bn "same modulus from same seed" kp1.Rsa.pub.n kp2.Rsa.pub.n

let rsa_message_too_long () =
  let kp = Lazy.force test_keypair in
  let k = Rsa.modulus_bytes kp.Rsa.pub in
  Alcotest.check_raises "overlong message"
    (Invalid_argument "Rsa.encrypt: message too long") (fun () ->
      ignore (Rsa.encrypt kp.Rsa.pub (String.make (k - 10) 'x')))

(* ------------------------------------------------------------------ *)
(* HKDF: RFC 5869 Appendix A vectors (SHA-256)                         *)
(* ------------------------------------------------------------------ *)

let bytes_range lo hi = String.init (hi - lo) (fun i -> Char.chr (lo + i))

let hkdf_rfc5869_case1 () =
  let ikm = String.make 22 '\x0b' in
  let salt = bytes_range 0x00 0x0d in
  let info = bytes_range 0xf0 0xfa in
  check_hex "PRK" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    (Hkdf.extract ~salt ikm);
  check_hex "OKM"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Hkdf.derive ~salt ~ikm ~info 42)

let hkdf_rfc5869_case2 () =
  (* Longer inputs/outputs: exercises the multi-block T(i) loop. *)
  let ikm = bytes_range 0x00 0x50 in
  let salt = bytes_range 0x60 0xb0 in
  let info = bytes_range 0xb0 0x100 in
  check_hex "OKM"
    "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87"
    (Hkdf.derive ~salt ~ikm ~info 82)

let hkdf_rfc5869_case3 () =
  (* Zero-length salt and info: HMAC zero-pads the empty salt to the
     RFC's HashLen of zeros. *)
  let ikm = String.make 22 '\x0b' in
  check_hex "OKM"
    "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    (Hkdf.derive ~salt:"" ~ikm ~info:"" 42)

let hkdf_expand_bounds () =
  let prk = Hkdf.extract ~salt:"s" "ikm" in
  Alcotest.(check int) "max length ok" (255 * 32)
    (String.length (Hkdf.expand ~prk ~info:"" (255 * 32)));
  Alcotest.check_raises "over max" (Invalid_argument "Hkdf.expand: length out of range")
    (fun () -> ignore (Hkdf.expand ~prk ~info:"" ((255 * 32) + 1)))

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty" `Quick sha256_empty;
          Alcotest.test_case "abc" `Quick sha256_abc;
          Alcotest.test_case "two-block" `Quick sha256_448bits;
          Alcotest.test_case "million a" `Slow sha256_million_a;
          Alcotest.test_case "streaming" `Quick sha256_streaming_equals_oneshot;
          Alcotest.test_case "update_sub bounds" `Quick sha256_update_sub_bounds;
          Alcotest.test_case "bigarray streaming" `Quick sha256_big_buffer_equals_string;
          Alcotest.test_case "midstate total >= 2^62" `Quick sha256_midstate_huge_total;
          Alcotest.test_case "export pads with zeros" `Quick sha256_export_deterministic;
          Alcotest.test_case "digest allocation ceiling" `Quick sha256_allocation;
          Alcotest.test_case "import in place" `Quick sha256_import_in_place;
        ]
        @ qsuite [ prop_midstate_resume ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 #1" `Quick hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 #2" `Quick hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 #3" `Quick hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 #6 long key" `Quick hmac_rfc4231_long_key;
          Alcotest.test_case "verify" `Quick hmac_verify_roundtrip;
        ] );
      ( "hkdf",
        [
          Alcotest.test_case "rfc5869 #1" `Quick hkdf_rfc5869_case1;
          Alcotest.test_case "rfc5869 #2 long" `Quick hkdf_rfc5869_case2;
          Alcotest.test_case "rfc5869 #3 empty salt" `Quick hkdf_rfc5869_case3;
          Alcotest.test_case "expand bounds" `Quick hkdf_expand_bounds;
        ] );
      ( "aes",
        [
          Alcotest.test_case "fips197 aes128" `Quick aes128_fips197;
          Alcotest.test_case "fips197 aes256" `Quick aes256_fips197;
          Alcotest.test_case "sp800-38a ctr" `Quick aes_sp80038a_ctr;
          Alcotest.test_case "sp800-38a ctr aes256" `Quick aes256_sp80038a_ctr;
          Alcotest.test_case "ctr involution" `Quick aes_ctr_involution;
          Alcotest.test_case "ctr_at offsets" `Quick aes_ctr_at_offset;
          Alcotest.test_case "ctr carry and wrap" `Quick aes_ctr_carry_and_wrap;
          Alcotest.test_case "ctr_at beyond 2^32 blocks" `Quick aes_ctr_at_beyond_2_32_blocks;
          Alcotest.test_case "bad key length" `Quick aes_bad_key_length;
          Alcotest.test_case "bad nonce length" `Quick aes_bad_nonce_length;
          Alcotest.test_case "ctr allocation ceiling" `Quick aes_ctr_allocation;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "int roundtrip" `Quick bignum_small_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick bignum_bytes_roundtrip;
          Alcotest.test_case "divmod known" `Quick bignum_divmod_known;
          Alcotest.test_case "fermat" `Quick bignum_modpow_fermat;
          Alcotest.test_case "even modulus" `Quick bignum_modpow_even_modulus;
          Alcotest.test_case "invmod known" `Quick bignum_invmod_known;
          Alcotest.test_case "sub negative" `Quick bignum_sub_negative;
          Alcotest.test_case "prime generation" `Slow bignum_prime_generation;
          Alcotest.test_case "composites rejected" `Quick bignum_known_composites_rejected;
          Alcotest.test_case "primes accepted" `Quick bignum_known_primes_accepted;
        ]
        @ qsuite
            [
              prop_add_comm; prop_add_sub; prop_mul_distributes; prop_divmod;
              prop_shift_roundtrip; prop_modpow_matches_naive; prop_invmod;
            ] );
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick drbg_deterministic;
          Alcotest.test_case "distinct seeds" `Quick drbg_distinct_seeds;
          Alcotest.test_case "personalization" `Quick drbg_personalization;
          Alcotest.test_case "split" `Quick drbg_split_independent;
        ]
        @ qsuite [ drbg_uniform_in_range ] );
      ( "rsa",
        [
          Alcotest.test_case "encrypt roundtrip" `Slow rsa_encrypt_roundtrip;
          Alcotest.test_case "decrypt garbage" `Slow rsa_decrypt_garbage;
          Alcotest.test_case "sign/verify" `Slow rsa_sign_verify;
          Alcotest.test_case "pub serialization" `Slow rsa_pub_serialization;
          Alcotest.test_case "deterministic keygen" `Slow rsa_keygen_is_deterministic;
          Alcotest.test_case "message too long" `Slow rsa_message_too_long;
        ] );
    ]
