(* SGX model tests: EPC encryption-at-rest, enclave lifecycle and
   measurement, attestation quotes, two-level page permissions, and the
   EnGarde host-OS provisioning/seal behaviour. *)

open Sgx

let page = Epc.page_size

let fresh_epc ?(pages = 64) () = Epc.create ~pages ~seed:"test-epc" ()

(* ------------------------------------------------------------------ *)
(* EPC                                                                 *)
(* ------------------------------------------------------------------ *)

let epc_roundtrip () =
  let epc = fresh_epc () in
  let slot = Epc.alloc epc in
  let content = String.init page (fun i -> Char.chr ((i * 13) mod 256)) in
  Epc.store epc slot content;
  Alcotest.(check string) "load = store" content (Epc.load epc slot)

let epc_encrypted_at_rest () =
  let epc = fresh_epc () in
  let slot = Epc.alloc epc in
  let content = String.make page 'A' in
  Epc.store epc slot content;
  let ct = Epc.raw_ciphertext epc slot in
  Alcotest.(check bool) "bus sees ciphertext" true (ct <> content);
  (* A uniform plaintext must not leak structure: no page-sized run of
     one byte in the ciphertext. *)
  let all_same = String.for_all (fun c -> c = ct.[0]) ct in
  Alcotest.(check bool) "ciphertext not uniform" false all_same

let epc_sub_access () =
  let epc = fresh_epc () in
  let slot = Epc.alloc epc in
  Epc.store epc slot (String.make page '\x00');
  Epc.store_sub epc slot ~pos:100 "hello";
  Alcotest.(check string) "sub readback" "hello" (Epc.load_sub epc slot ~pos:100 ~len:5);
  Alcotest.(check string) "rest untouched" (String.make 5 '\x00')
    (Epc.load_sub epc slot ~pos:200 ~len:5)

let epc_exhaustion () =
  let epc = fresh_epc ~pages:3 () in
  let _ = Epc.alloc epc and _ = Epc.alloc epc and s3 = Epc.alloc epc in
  Alcotest.(check int) "no pages left" 0 (Epc.free_pages epc);
  (try
     ignore (Epc.alloc epc);
     Alcotest.fail "expected Out_of_epc"
   with Epc.Out_of_epc -> ());
  Epc.release epc s3;
  Alcotest.(check int) "page returned" 1 (Epc.free_pages epc);
  ignore (Epc.alloc epc)

let epc_release_scrubs () =
  let epc = fresh_epc () in
  let slot = Epc.alloc epc in
  Epc.store epc slot (String.make page 'S');
  Epc.release epc slot;
  Alcotest.check_raises "released slot unusable" (Invalid_argument "Epc: use of released slot")
    (fun () -> ignore (Epc.load epc slot))

let epc_fresh_nonce_per_store () =
  let epc = fresh_epc () in
  let slot = Epc.alloc epc in
  let content = String.make page 'N' in
  Epc.store epc slot content;
  let ct1 = Epc.raw_ciphertext epc slot in
  Epc.store epc slot content;
  let ct2 = Epc.raw_ciphertext epc slot in
  Alcotest.(check bool) "same plaintext, different ciphertext" true (ct1 <> ct2)

(* ------------------------------------------------------------------ *)
(* Enclave lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let build_enclave ?(pages = 8) epc =
  let e = Enclave.ecreate epc ~base:0x100000 ~size:(pages * page) () in
  for i = 0 to pages - 1 do
    Enclave.eadd e ~vaddr:(0x100000 + (i * page)) ~perm:Enclave.rw
      ~content:(String.make page '\x00')
  done;
  e

let lifecycle_happy_path () =
  let epc = fresh_epc () in
  let e = build_enclave epc in
  Alcotest.(check bool) "building" true (Enclave.state e = Enclave.Building);
  let m = Enclave.einit e in
  Alcotest.(check int) "sha-256 measurement" 32 (String.length m);
  Alcotest.(check bool) "live" true (Enclave.state e = Enclave.Live);
  Enclave.eenter e;
  Enclave.write e ~vaddr:0x100010 "secret";
  Alcotest.(check string) "in-enclave readback" "secret" (Enclave.read e ~vaddr:0x100010 ~len:6);
  Enclave.eexit e

let measurement_is_deterministic () =
  let m1 = Enclave.einit (build_enclave (fresh_epc ())) in
  let m2 = Enclave.einit (build_enclave (fresh_epc ())) in
  Alcotest.(check string) "same build, same measurement" (Crypto.Sha256.hex m1)
    (Crypto.Sha256.hex m2)

let measurement_sensitive_to_content () =
  let epc = fresh_epc () in
  let e1 = Enclave.ecreate epc ~base:0x100000 ~size:page () in
  Enclave.eadd e1 ~vaddr:0x100000 ~perm:Enclave.rw ~content:(String.make page '\x00');
  let epc2 = fresh_epc () in
  let e2 = Enclave.ecreate epc2 ~base:0x100000 ~size:page () in
  Enclave.eadd e2 ~vaddr:0x100000 ~perm:Enclave.rw ~content:("X" ^ String.make (page - 1) '\x00');
  Alcotest.(check bool) "one flipped byte changes measurement" true
    (Enclave.einit e1 <> Enclave.einit e2)

let measurement_sensitive_to_perms () =
  let build perm =
    let e = Enclave.ecreate (fresh_epc ()) ~base:0x100000 ~size:page () in
    Enclave.eadd e ~vaddr:0x100000 ~perm ~content:(String.make page '\x00');
    Enclave.einit e
  in
  Alcotest.(check bool) "perms measured" true (build Enclave.rw <> build Enclave.rx)

let measurement_sensitive_to_order () =
  let build order =
    let e = Enclave.ecreate (fresh_epc ()) ~base:0x100000 ~size:(2 * page) () in
    List.iter
      (fun i ->
        Enclave.eadd e ~vaddr:(0x100000 + (i * page)) ~perm:Enclave.rw
          ~content:(String.make page (Char.chr (65 + i))))
      order;
    Enclave.einit e
  in
  Alcotest.(check bool) "EADD order measured" true (build [ 0; 1 ] <> build [ 1; 0 ])

let outside_access_faults () =
  let epc = fresh_epc () in
  let e = build_enclave epc in
  ignore (Enclave.einit e);
  (* Not in enclave mode: plaintext access must fault. *)
  match Enclave.read e ~vaddr:0x100000 ~len:4 with
  | _ -> Alcotest.fail "outside read should fault"
  | exception Enclave.Sgx_fault _ -> ()

let eadd_after_einit_faults () =
  let epc = fresh_epc () in
  let e = build_enclave ~pages:2 epc in
  ignore (Enclave.einit e);
  match
    Enclave.eadd e ~vaddr:(0x100000 + (2 * page)) ~perm:Enclave.rw
      ~content:(String.make page '\x00')
  with
  | () -> Alcotest.fail "EADD after EINIT should fault"
  | exception Enclave.Sgx_fault _ -> ()

let eaug_then_seal () =
  let epc = fresh_epc () in
  let e = Enclave.ecreate epc ~base:0x100000 ~size:(8 * page) () in
  Enclave.eadd e ~vaddr:0x100000 ~perm:Enclave.rw ~content:(String.make page '\x00');
  ignore (Enclave.einit e);
  (* SGX v2 heap growth while live... *)
  Enclave.eaug e ~vaddr:(0x100000 + page) ~perm:Enclave.rw;
  Alcotest.(check int) "two pages mapped" 2 (Enclave.page_count e);
  (* ...but nothing after the EnGarde seal. *)
  Enclave.seal e;
  match Enclave.eaug e ~vaddr:(0x100000 + (2 * page)) ~perm:Enclave.rw with
  | () -> Alcotest.fail "EAUG after seal should fault"
  | exception Enclave.Sgx_fault _ -> ()

let permission_checks () =
  let epc = fresh_epc () in
  let e = Enclave.ecreate epc ~base:0x100000 ~size:(2 * page) () in
  Enclave.eadd e ~vaddr:0x100000 ~perm:Enclave.rx ~content:(String.make page '\x90');
  Enclave.eadd e ~vaddr:(0x100000 + page) ~perm:Enclave.rw ~content:(String.make page '\x00');
  ignore (Enclave.einit e);
  Enclave.eenter e;
  (* Fetch from rx page works; write faults. *)
  Alcotest.(check string) "fetch code" "\x90\x90" (Enclave.fetch e ~vaddr:0x100000 ~len:2);
  (match Enclave.write e ~vaddr:0x100000 "AB" with
  | () -> Alcotest.fail "write to rx page should fault"
  | exception Enclave.Sgx_fault _ -> ());
  (* Fetch from rw page faults (W^X). *)
  (match Enclave.fetch e ~vaddr:(0x100000 + page) ~len:1 with
  | _ -> Alcotest.fail "fetch from rw page should fault"
  | exception Enclave.Sgx_fault _ -> ());
  Enclave.eexit e

let cross_page_access () =
  let epc = fresh_epc () in
  let e = build_enclave ~pages:2 epc in
  ignore (Enclave.einit e);
  Enclave.eenter e;
  let data = String.init 100 (fun i -> Char.chr (i + 1)) in
  Enclave.write e ~vaddr:(0x100000 + page - 50) data;
  Alcotest.(check string) "straddling write/read" data
    (Enclave.read e ~vaddr:(0x100000 + page - 50) ~len:100);
  Enclave.eexit e

let emod_permissions () =
  let epc = fresh_epc () in
  let e = build_enclave ~pages:1 epc in
  ignore (Enclave.einit e);
  Enclave.emodpr e ~vaddr:0x100000 ~perm:Enclave.r_only;
  Alcotest.(check string) "restricted to r--" "r--"
    (Enclave.perm_to_string (Option.get (Enclave.page_perm e ~vaddr:0x100000)));
  Enclave.emodpe e ~vaddr:0x100000 ~perm:Enclave.rx;
  Alcotest.(check string) "extended to r-x" "r-x"
    (Enclave.perm_to_string (Option.get (Enclave.page_perm e ~vaddr:0x100000)))

let perf_counts_sgx_instructions () =
  let epc = fresh_epc () in
  let e = build_enclave ~pages:4 epc in
  ignore (Enclave.einit e);
  let p = Enclave.perf e in
  (* ECREATE + 4*(EADD + 16 EEXTEND) + EINIT = 1 + 68 + 1 = 70 *)
  Alcotest.(check int) "sgx instruction count" 70 (Perf.sgx_instructions p);
  Alcotest.(check int) "cycles at 10K each" 700_000 (Perf.total_cycles p);
  Perf.trampoline p;
  Alcotest.(check int) "trampoline adds 2" 72 (Perf.sgx_instructions p)

let destroy_returns_pages () =
  let epc = fresh_epc ~pages:8 () in
  let e = build_enclave ~pages:8 epc in
  Alcotest.(check int) "epc exhausted" 0 (Epc.free_pages epc);
  Enclave.destroy e;
  Alcotest.(check int) "all pages back" 8 (Epc.free_pages epc)

(* ------------------------------------------------------------------ *)
(* Quotes                                                              *)
(* ------------------------------------------------------------------ *)

let device = lazy (Quote.device_create ~seed:"machine-0")

let quote_verifies () =
  let epc = fresh_epc () in
  let e = build_enclave epc in
  ignore (Enclave.einit e);
  let report_data = Crypto.Sha256.digest "enclave-ephemeral-pubkey" in
  let q = Quote.quote (Lazy.force device) ~enclave:e ~report_data in
  Alcotest.(check bool) "verifies under device key" true
    (Quote.verify (Quote.device_public (Lazy.force device)) q);
  Alcotest.(check string) "measurement matches" (Enclave.measurement e) q.Quote.measurement

let quote_rejects_tamper () =
  let epc = fresh_epc () in
  let e = build_enclave epc in
  ignore (Enclave.einit e);
  let q = Quote.quote (Lazy.force device) ~enclave:e ~report_data:(String.make 32 'd') in
  let pub = Quote.device_public (Lazy.force device) in
  Alcotest.(check bool) "tampered measurement fails" false
    (Quote.verify pub { q with Quote.measurement = String.make 32 'm' });
  Alcotest.(check bool) "tampered report data fails" false
    (Quote.verify pub { q with Quote.report_data = String.make 32 'x' });
  let other = Quote.device_create ~seed:"other-machine" in
  Alcotest.(check bool) "wrong device key fails" false
    (Quote.verify (Quote.device_public other) q)

let quote_serialization () =
  let epc = fresh_epc () in
  let e = build_enclave epc in
  ignore (Enclave.einit e);
  let q = Quote.quote (Lazy.force device) ~enclave:e ~report_data:(String.make 32 'r') in
  (match Quote.of_bytes (Quote.to_bytes q) with
  | Some q' ->
      Alcotest.(check bool) "roundtrip verifies" true
        (Quote.verify (Quote.device_public (Lazy.force device)) q')
  | None -> Alcotest.fail "roundtrip failed");
  Alcotest.(check bool) "truncated rejected" true
    (Quote.of_bytes (String.sub (Quote.to_bytes q) 0 40) = None)

(* ------------------------------------------------------------------ *)
(* Host OS component                                                   *)
(* ------------------------------------------------------------------ *)

let host_two_level_protection () =
  let epc = fresh_epc () in
  let e = build_enclave ~pages:2 epc in
  ignore (Enclave.einit e);
  let os = Host_os.create () in
  let code_page = 0x100000 and data_page = 0x100000 + page in
  Host_os.provision_permissions os e ~exec_pages:[ code_page ] ~data_pages:[ data_page ];
  Alcotest.(check string) "code page effective r-x" "r-x"
    (Enclave.perm_to_string (Host_os.effective os e ~vaddr:code_page));
  Alcotest.(check string) "data page effective rw-" "rw-"
    (Enclave.perm_to_string (Host_os.effective os e ~vaddr:data_page));
  Alcotest.(check bool) "enclave sealed" true (Enclave.state e = Enclave.Sealed);
  (* Malicious host flips the page-table W bit (the SGX v1 attack). The
     EPC-level permission still masks writes — the SGX v2 property the
     paper requires. *)
  Host_os.attack_make_writable os ~vaddr:code_page;
  Alcotest.(check bool) "page table says writable" true
    (match Host_os.query os ~vaddr:code_page with Some p -> p.Enclave.w | None -> false);
  Alcotest.(check string) "effective still r-x" "r-x"
    (Enclave.perm_to_string (Host_os.effective os e ~vaddr:code_page))

let host_unmapped_gives_nothing () =
  let epc = fresh_epc () in
  let e = build_enclave ~pages:1 epc in
  ignore (Enclave.einit e);
  let os = Host_os.create () in
  Alcotest.(check string) "no PTE, no access" "---"
    (Enclave.perm_to_string (Host_os.effective os e ~vaddr:0x100000))

(* ------------------------------------------------------------------ *)
(* Allocation ceiling                                                  *)
(* ------------------------------------------------------------------ *)

(* An EPC the size of the fast enclave's costs only its bookkeeping: a
   page is allocated by its slot's first [alloc], so none of the 16 MB
   of pages exists yet. The reading is taken after a second
   [Gc.minor ()], because OCaml 5.1 counts what is still in the minor
   heap short; the ceiling sits about 10% above the measured 180,856
   bytes. *)
let epc_create_allocation () =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let epc = Epc.create ~pages:4096 ~seed:"test-epc" () in
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. before in
  let ceiling = 199_000. in
  if bytes > ceiling then
    Alcotest.failf "Epc.create ~pages:4096 allocated %.0f bytes, ceiling %.0f" bytes ceiling;
  Alcotest.(check string) "first page reads zero" (String.make page '\x00')
    (Epc.load epc (Epc.alloc epc))

(* ------------------------------------------------------------------ *)
(* Page memo: every measurement equals an independent log              *)
(* ------------------------------------------------------------------ *)

let u64le v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let perm_string (p : Enclave.perm) =
  String.concat ""
    [ (if p.r then "r" else "-"); (if p.w then "w" else "-"); (if p.x then "x" else "-") ]

(* The measurement with nothing but SHA-256 over the byte-exact log: the
   ECREATE record, then per page its EADD record and one EEXTEND record
   per 256 bytes. *)
let reference ~base ~size pages =
  let ctx = Crypto.Sha256.init () in
  let add = Crypto.Sha256.update ctx in
  add "ECREATE\x00";
  add (u64le base);
  add (u64le size);
  List.iter
    (fun (vaddr, perm, content) ->
      add "EADD\x00\x00\x00\x00";
      add (u64le vaddr);
      add (perm_string perm);
      add "\x00";
      for i = 0 to (String.length content / 256) - 1 do
        add "EEXTEND\x00";
        add (u64le (vaddr + (256 * i)));
        Crypto.Sha256.update_sub ctx content ~pos:(256 * i) ~len:256
      done)
    pages;
  Crypto.Sha256.finalize ctx

let memo_base = 0x200000
let memo_enclave_size = 32 * page

let einit_of pages =
  let epc = fresh_epc ~pages:(List.length pages) () in
  let e = Enclave.ecreate epc ~base:memo_base ~size:memo_enclave_size () in
  List.iter (fun (vaddr, perm, content) -> Enclave.eadd e ~vaddr ~perm ~content) pages;
  Enclave.einit e

(* [n] pages no other test builds: contents drawn from [salt]. *)
let fresh_pages ~salt n =
  let st = Random.State.make [| Hashtbl.hash salt |] in
  List.init n (fun i ->
      ( memo_base + (i * page),
        (if i < 2 then Enclave.rx else Enclave.rw),
        String.init page (fun _ -> Char.chr (Random.State.int st 256)) ))

let check_exact what pages =
  Alcotest.(check string) what
    (Crypto.Sha256.hex (reference ~base:memo_base ~size:memo_enclave_size pages))
    (Crypto.Sha256.hex (einit_of pages))

let memo_cold_and_warm () =
  let pages = fresh_pages ~salt:"cold-warm" 8 in
  check_exact "cold" pages;
  (* Had the cold build filled the memo and emptied it part-way, this
     one re-hashes the pages it lost. *)
  check_exact "warm" pages;
  let entries = Measurement.memo_entries () in
  check_exact "warm again" pages;
  (* Equal bytes in other strings match too, after [String.equal]. *)
  check_exact "warm, copied pages"
    (List.map (fun (v, p, c) -> (v, p, Bytes.to_string (Bytes.of_string c))) pages);
  Alcotest.(check int) "warm builds hash no page" entries (Measurement.memo_entries ())

(* A page that differs from a remembered one in a single field, at the
   very state where the memo holds the original, must be hashed. *)
let memo_changed_page () =
  let pages = fresh_pages ~salt:"changed" 8 in
  check_exact "memoized" pages;
  let change k f = List.mapi (fun i p -> if i = k then f p else p) pages in
  check_exact "one byte"
    (change 3 (fun (v, p, c) ->
         let b = Bytes.of_string c in
         Bytes.set b 100 (Char.chr (Char.code c.[100] lxor 1));
         (v, p, Bytes.to_string b)));
  check_exact "perms" (change 1 (fun (v, _, c) -> (v, Enclave.rw, c)));
  check_exact "vaddr" (change 5 (fun (_, p, c) -> (memo_base + (20 * page), p, c)));
  check_exact "memoized again" pages

(* Two domains build two page sets, interleaved in opposite orders, at
   once. *)
let memo_two_domains () =
  let a = fresh_pages ~salt:"domain-a" 16 and b = fresh_pages ~salt:"domain-b" 16 in
  let ref_a = reference ~base:memo_base ~size:memo_enclave_size a
  and ref_b = reference ~base:memo_base ~size:memo_enclave_size b in
  let builds first second =
    List.init 10 (fun i ->
        let pages, expect = if i mod 2 = 0 then first else second in
        (einit_of pages, expect))
  in
  let d1 = Domain.spawn (fun () -> builds (a, ref_a) (b, ref_b)) in
  let d2 = Domain.spawn (fun () -> builds (b, ref_b) (a, ref_a)) in
  List.iter
    (fun (got, expect) ->
      Alcotest.(check string) "concurrent build" (Crypto.Sha256.hex expect) (Crypto.Sha256.hex got))
    (Domain.join d1 @ Domain.join d2)

(* More distinct pages than the memo holds: it stays within its cap and
   the measurement stays exact, cold and after the clears. The pages
   are short, since [Measurement.page] measures any length. *)
let memo_bound () =
  let n = Measurement.memo_cap + 100 in
  let pages = List.init n (fun i -> (i * page, Enclave.rw, u64le i ^ String.make 248 'b')) in
  let measure () =
    let m = Measurement.start ~base:0 ~size:(n * page) in
    List.iter
      (fun (vaddr, perm, content) ->
        Measurement.page m ~vaddr ~perms:(Enclave.perm_to_string perm) ~content;
        if Measurement.memo_entries () > Measurement.memo_cap then
          Alcotest.failf "memo holds %d entries, cap %d" (Measurement.memo_entries ())
            Measurement.memo_cap)
      pages;
    Measurement.finalize m
  in
  let expect = Crypto.Sha256.hex (reference ~base:0 ~size:(n * page) pages) in
  Alcotest.(check string) "first pass" expect (Crypto.Sha256.hex (measure ()));
  Alcotest.(check string) "second pass" expect (Crypto.Sha256.hex (measure ()))

let () =
  Alcotest.run "sgx"
    [
      ( "epc",
        [
          Alcotest.test_case "roundtrip" `Quick epc_roundtrip;
          Alcotest.test_case "encrypted at rest" `Quick epc_encrypted_at_rest;
          Alcotest.test_case "sub access" `Quick epc_sub_access;
          Alcotest.test_case "exhaustion" `Quick epc_exhaustion;
          Alcotest.test_case "release scrubs" `Quick epc_release_scrubs;
          Alcotest.test_case "fresh nonce per store" `Quick epc_fresh_nonce_per_store;
        ] );
      ( "enclave",
        [
          Alcotest.test_case "lifecycle" `Quick lifecycle_happy_path;
          Alcotest.test_case "deterministic measurement" `Quick measurement_is_deterministic;
          Alcotest.test_case "content measured" `Quick measurement_sensitive_to_content;
          Alcotest.test_case "perms measured" `Quick measurement_sensitive_to_perms;
          Alcotest.test_case "order measured" `Quick measurement_sensitive_to_order;
          Alcotest.test_case "outside access faults" `Quick outside_access_faults;
          Alcotest.test_case "eadd after einit" `Quick eadd_after_einit_faults;
          Alcotest.test_case "eaug then seal" `Quick eaug_then_seal;
          Alcotest.test_case "permission checks" `Quick permission_checks;
          Alcotest.test_case "cross page access" `Quick cross_page_access;
          Alcotest.test_case "emodpe/emodpr" `Quick emod_permissions;
          Alcotest.test_case "perf counting" `Quick perf_counts_sgx_instructions;
          Alcotest.test_case "destroy returns pages" `Quick destroy_returns_pages;
        ] );
      ( "quote",
        [
          Alcotest.test_case "verifies" `Slow quote_verifies;
          Alcotest.test_case "rejects tamper" `Slow quote_rejects_tamper;
          Alcotest.test_case "serialization" `Slow quote_serialization;
        ] );
      ( "host_os",
        [
          Alcotest.test_case "two-level protection" `Quick host_two_level_protection;
          Alcotest.test_case "unmapped gives nothing" `Quick host_unmapped_gives_nothing;
        ] );
      ( "page memo",
        [
          Alcotest.test_case "cold and warm" `Quick memo_cold_and_warm;
          Alcotest.test_case "changed page at a memoized state" `Quick memo_changed_page;
          Alcotest.test_case "two domains" `Quick memo_two_domains;
          Alcotest.test_case "bounded" `Quick memo_bound;
        ] );
      ("allocation", [ Alcotest.test_case "Epc.create at 4096 pages" `Quick epc_create_allocation ]);
    ]
