(* Channel tests: wire-format round trips, session block crypto and
   authentication, loopback transport, and the client-side attestation
   verdicts. *)

let msg_samples =
  [
    Channel.Wire.Client_hello { challenge = "0123456789abcdef" };
    Channel.Wire.Quote_response { quote = String.make 100 'q'; enclave_pub = "pubkey" };
    Channel.Wire.Wrapped_key { wrapped = String.make 64 'w' };
    Channel.Wire.Code_block { seq = 7; offset = 7 * 4096; ciphertext = "ct-bytes"; tag = String.make 32 't' };
    Channel.Wire.Transfer_done { total_len = 123456; digest = String.make 32 'd' };
    Channel.Wire.Verdict { accepted = true; detail = "ok" };
    Channel.Wire.Verdict { accepted = false; detail = "policy violation" };
  ]

let wire_roundtrip () =
  List.iter
    (fun m ->
      match Channel.Wire.of_bytes (Channel.Wire.to_bytes m) with
      | Some m' ->
          Alcotest.(check bool) (Channel.Wire.describe m) true (Channel.Wire.equal m m')
      | None -> Alcotest.failf "failed to parse %s" (Channel.Wire.describe m))
    msg_samples

let wire_rejects_garbage () =
  Alcotest.(check bool) "empty" true (Channel.Wire.of_bytes "" = None);
  Alcotest.(check bool) "unknown tag" true (Channel.Wire.of_bytes "\x7fxxxx" = None);
  List.iter
    (fun m ->
      let b = Channel.Wire.to_bytes m in
      let truncated = String.sub b 0 (String.length b - 1) in
      Alcotest.(check bool)
        ("truncated " ^ Channel.Wire.describe m)
        true
        (Channel.Wire.of_bytes truncated = None))
    msg_samples

let wire_rejects_trailing_bytes () =
  List.iter
    (fun m ->
      let b = Channel.Wire.to_bytes m ^ "\x00" in
      Alcotest.(check bool) ("trailing " ^ Channel.Wire.describe m) true
        (Channel.Wire.of_bytes b = None))
    msg_samples

let session_roundtrip () =
  let s = Channel.Session.create ~key:(String.make 32 'k') in
  let plain = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  let pieces = Channel.Session.split_payload plain in
  Alcotest.(check int) "two blocks" 2 (List.length pieces);
  let reassembled = Buffer.create 5000 in
  List.iter
    (fun (seq, offset, chunk) ->
      match Channel.Session.encrypt_block s ~seq ~offset chunk with
      | Channel.Wire.Code_block { seq; offset; ciphertext; tag } -> begin
          Alcotest.(check bool) "ciphertext differs" true (ciphertext <> chunk);
          match Channel.Session.decrypt_block s ~seq ~offset ~ciphertext ~tag with
          | Some p -> Buffer.add_string reassembled p
          | None -> Alcotest.fail "authentic block rejected"
        end
      | _ -> Alcotest.fail "unexpected message")
    pieces;
  Alcotest.(check string) "payload reassembled" plain (Buffer.contents reassembled)

let session_rejects_tamper () =
  let s = Channel.Session.create ~key:(String.make 32 'k') in
  match Channel.Session.encrypt_block s ~seq:0 ~offset:0 "attack at dawn!" with
  | Channel.Wire.Code_block { seq; offset; ciphertext; tag } ->
      let flip str i = String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor 1) else c) str in
      Alcotest.(check bool) "flipped ciphertext rejected" true
        (Channel.Session.decrypt_block s ~seq ~offset ~ciphertext:(flip ciphertext 3) ~tag = None);
      Alcotest.(check bool) "flipped tag rejected" true
        (Channel.Session.decrypt_block s ~seq ~offset ~ciphertext ~tag:(flip tag 0) = None);
      Alcotest.(check bool) "wrong offset rejected" true
        (Channel.Session.decrypt_block s ~seq ~offset:(offset + 16) ~ciphertext ~tag = None);
      let s2 = Channel.Session.create ~key:(String.make 32 'x') in
      Alcotest.(check bool) "wrong key rejected" true
        (Channel.Session.decrypt_block s2 ~seq ~offset ~ciphertext ~tag = None)
  | _ -> Alcotest.fail "unexpected message"

let session_key_length () =
  Alcotest.check_raises "short key" (Invalid_argument "Session.create: need a 32-byte key")
    (fun () -> ignore (Channel.Session.create ~key:"short"))

let transport_delivers_in_order () =
  let a, b = Channel.Transport.pair () in
  List.iter (Channel.Transport.send a) msg_samples;
  let received = Channel.Transport.drain b in
  Alcotest.(check int) "all delivered" (List.length msg_samples) (List.length received);
  List.iter2
    (fun m m' -> Alcotest.(check bool) "in order" true (Channel.Wire.equal m m'))
    msg_samples received;
  Alcotest.(check bool) "nothing for sender" true (Channel.Transport.recv a = None)

let transport_tamper_hook () =
  let tamper = function
    | Channel.Wire.Verdict { accepted = _; detail } ->
        Channel.Wire.Verdict { accepted = true; detail } (* verdict flipping *)
    | m -> m
  in
  let a, b = Channel.Transport.pair ~tamper () in
  Channel.Transport.send a (Channel.Wire.Verdict { accepted = false; detail = "rejected" });
  match Channel.Transport.recv b with
  | Some (Channel.Wire.Verdict { accepted; _ }) ->
      Alcotest.(check bool) "tampered on the wire" true accepted
  | _ -> Alcotest.fail "message lost"

(* Client driver against a fake quoting stack. *)
let device = lazy (Sgx.Quote.device_create ~seed:"channel-test-device")

let make_enclave () =
  let epc = Sgx.Epc.create ~pages:8 ~seed:"channel-test" () in
  let e = Sgx.Enclave.ecreate epc ~base:0x10000 ~size:4096 () in
  Sgx.Enclave.eadd e ~vaddr:0x10000 ~perm:Sgx.Enclave.rw ~content:(String.make 4096 '\x00');
  ignore (Sgx.Enclave.einit e);
  e

let quote_response_for ?(pub = "enclave-public-key") e =
  let q =
    Sgx.Quote.quote (Lazy.force device) ~enclave:e ~report_data:(Crypto.Sha256.digest pub)
  in
  Channel.Wire.Quote_response { quote = Sgx.Quote.to_bytes q; enclave_pub = pub }

let client_accepts_good_quote () =
  let e = make_enclave () in
  (* A real RSA key so the wrap step works. *)
  let kp = Crypto.Rsa.generate (Crypto.Drbg.create "channel-kp") ~bits:512 in
  let pub = Crypto.Rsa.pub_to_bytes kp.Crypto.Rsa.pub in
  let client =
    Channel.Client.create
      ~device_pub:(Sgx.Quote.device_public (Lazy.force device))
      ~expected_measurement:(Sgx.Enclave.measurement e)
      ~seed:"s" ~payload:"payload-bytes" ()
  in
  match Channel.Client.handle_quote client (quote_response_for ~pub e) with
  | Ok (Channel.Wire.Wrapped_key { wrapped }) -> begin
      match Crypto.Rsa.decrypt kp wrapped with
      | Some key ->
          Alcotest.(check int) "32-byte session key" 32 (String.length key);
          (* And the code messages decrypt under that key. *)
          let session = Channel.Session.create ~key in
          let msgs = Channel.Client.code_messages client in
          Alcotest.(check int) "one block + done" 2 (List.length msgs);
          (match List.hd msgs with
          | Channel.Wire.Code_block { seq; offset; ciphertext; tag } ->
              Alcotest.(check (option string)) "block decrypts" (Some "payload-bytes")
                (Channel.Session.decrypt_block session ~seq ~offset ~ciphertext ~tag)
          | _ -> Alcotest.fail "expected code block")
      | None -> Alcotest.fail "wrap did not decrypt"
    end
  | Ok _ -> Alcotest.fail "expected wrapped key"
  | Error f -> Alcotest.failf "rejected: %s" (Channel.Client.failure_to_string f)

let client_rejects_wrong_measurement () =
  let e = make_enclave () in
  let client =
    Channel.Client.create
      ~device_pub:(Sgx.Quote.device_public (Lazy.force device))
      ~expected_measurement:(String.make 32 'Z') ~seed:"s" ~payload:"p" ()
  in
  match Channel.Client.handle_quote client (quote_response_for e) with
  | Error (Channel.Client.Wrong_measurement _) -> ()
  | Ok _ -> Alcotest.fail "accepted wrong measurement"
  | Error f -> Alcotest.failf "wrong failure: %s" (Channel.Client.failure_to_string f)

let client_rejects_wrong_device () =
  let e = make_enclave () in
  let other = Sgx.Quote.device_create ~seed:"evil-device" in
  let client =
    Channel.Client.create
      ~device_pub:(Sgx.Quote.device_public other)
      ~expected_measurement:(Sgx.Enclave.measurement e) ~seed:"s" ~payload:"p" ()
  in
  match Channel.Client.handle_quote client (quote_response_for e) with
  | Error Channel.Client.Bad_quote -> ()
  | Ok _ -> Alcotest.fail "accepted quote from wrong device"
  | Error f -> Alcotest.failf "wrong failure: %s" (Channel.Client.failure_to_string f)

let client_rejects_swapped_key () =
  (* A man-in-the-middle replaces the enclave public key: the report
     data no longer matches its hash. *)
  let e = make_enclave () in
  let client =
    Channel.Client.create
      ~device_pub:(Sgx.Quote.device_public (Lazy.force device))
      ~expected_measurement:(Sgx.Enclave.measurement e) ~seed:"s" ~payload:"p" ()
  in
  let msg =
    match quote_response_for ~pub:"honest-key" e with
    | Channel.Wire.Quote_response { quote; enclave_pub = _ } ->
        Channel.Wire.Quote_response { quote; enclave_pub = "attacker-key" }
    | m -> m
  in
  match Channel.Client.handle_quote client msg with
  | Error Channel.Client.Bad_enclave_key -> ()
  | Ok _ -> Alcotest.fail "accepted swapped key"
  | Error f -> Alcotest.failf "wrong failure: %s" (Channel.Client.failure_to_string f)

(* ------------------------------------------------------------------ *)
(* Legacy channel: per-transfer keystream separation                    *)
(* ------------------------------------------------------------------ *)

let xor_strings a b =
  String.init (String.length a) (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

(* The historical bug: a fixed CTR nonce meant two transfers on one
   session drew from the same keystream, so XORing their ciphertexts
   cancelled the key entirely. The per-transfer counter in the nonce is
   the fix; this regression pins it. *)
let legacy_transfers_disjoint_keystreams () =
  let key = String.make 32 'k' in
  let sender = Channel.Session.create ~key in
  let payload = String.init 6000 (fun i -> Char.chr (i mod 251)) in
  let msgs1 = Channel.Session.payload_messages sender payload in
  let msgs2 = Channel.Session.payload_messages sender payload in
  let first_ct = function
    | Channel.Wire.Code_block { ciphertext; _ } :: _ -> ciphertext
    | _ -> Alcotest.fail "expected a code block"
  in
  let ct1 = first_ct msgs1 and ct2 = first_ct msgs2 in
  Alcotest.(check int) "two transfers completed" 2 (Channel.Session.transfers sender);
  (* Same key, same (seq, offset), same plaintext: only the transfer
     counter separates the keystreams. *)
  let chunk = String.sub payload 0 (String.length ct1) in
  let ks1 = xor_strings ct1 chunk and ks2 = xor_strings ct2 chunk in
  Alcotest.(check bool) "keystreams disjoint" true (ks1 <> ks2);
  (* Both ends advance the counter at the transfer boundary. *)
  let recv = Channel.Session.create ~key in
  let decrypt_all msgs =
    let buf = Buffer.create 8192 in
    List.iter
      (function
        | Channel.Wire.Code_block { seq; offset; ciphertext; tag } -> begin
            match Channel.Session.decrypt_block recv ~seq ~offset ~ciphertext ~tag with
            | Some p -> Buffer.add_string buf p
            | None -> Alcotest.fail "authentic block rejected"
          end
        | Channel.Wire.Transfer_done _ -> Channel.Session.finish_transfer recv
        | m -> Alcotest.failf "unexpected %s" (Channel.Wire.describe m))
      msgs;
    Buffer.contents buf
  in
  Alcotest.(check string) "transfer 1 decrypts" payload (decrypt_all msgs1);
  Alcotest.(check string) "transfer 2 decrypts" payload (decrypt_all msgs2);
  (* A receiver that did not advance its counter cannot authenticate
     transfer-2 blocks: the counter is bound by the MAC. *)
  let stale = Channel.Session.create ~key in
  (match msgs2 with
  | Channel.Wire.Code_block { seq; offset; ciphertext; tag } :: _ ->
      Alcotest.(check (option string)) "stale counter rejected" None
        (Channel.Session.decrypt_block stale ~seq ~offset ~ciphertext ~tag)
  | _ -> Alcotest.fail "expected a code block")

(* ------------------------------------------------------------------ *)
(* Streaming record layer (EGREC1)                                     *)
(* ------------------------------------------------------------------ *)

let frame_samples =
  [
    Channel.Record.Stream { offset = 0; data = "" };
    Channel.Record.Stream { offset = 12288; data = String.init 100 Char.chr };
    Channel.Record.Fin { total_len = 123456; digest = String.make 32 'd' };
    Channel.Record.Key_update;
  ]

let record_frame_roundtrip () =
  List.iteri
    (fun i pt ->
      match Channel.Record.unframe (Channel.Record.frame pt) with
      | Some pt' -> Alcotest.(check bool) (Printf.sprintf "frame %d" i) true (pt = pt')
      | None -> Alcotest.failf "frame %d did not decode" i)
    frame_samples

let record_frame_strictness () =
  let unframe = Channel.Record.unframe in
  Alcotest.(check bool) "empty" true (unframe "" = None);
  Alcotest.(check bool) "unknown tag" true (unframe "\x07abc" = None);
  Alcotest.(check bool) "stream too short" true (unframe "\x01\x00\x00" = None);
  let fin = Channel.Record.frame (Channel.Record.Fin { total_len = 1; digest = String.make 32 'd' }) in
  Alcotest.(check bool) "fin trailing byte" true (unframe (fin ^ "\x00") = None);
  Alcotest.(check bool) "fin truncated" true (unframe (String.sub fin 0 (String.length fin - 1)) = None);
  Alcotest.(check bool) "key_update trailing byte" true (unframe "\x03\x00" = None);
  (* 0x04 is unassigned: an empty function-range hint from an older
     peer must read as malformed. *)
  Alcotest.(check bool) "retired 0x04 tag" true (unframe ("\x04" ^ String.make 12 '\x00') = None);
  Alcotest.check_raises "short digest" (Invalid_argument "Record.frame: digest must be 32 bytes") (fun () ->
      ignore (Channel.Record.frame (Channel.Record.Fin { total_len = 0; digest = "short" })))

let feed r = function
  | Channel.Wire.Record { epoch; rn; ciphertext; tag } -> Channel.Record.read r ~epoch ~rn ~ciphertext ~tag
  | m -> Alcotest.failf "expected a record, got %s" (Channel.Wire.describe m)

let record_roundtrip () =
  let secret = Channel.Record.traffic_secret ~key:(String.make 32 'k') in
  let w = Channel.Record.writer ~secret in
  let r = Channel.Record.reader ~secret in
  let payload = String.init 10000 (fun i -> Char.chr (i * 7 mod 256)) in
  let got = Buffer.create 10000 in
  List.iter
    (fun m ->
      match feed r m with
      | Channel.Record.Accept (Channel.Record.Stream { offset; data }) ->
          Alcotest.(check int) "in-order offset" (Buffer.length got) offset;
          Buffer.add_string got data
      | Channel.Record.Accept (Channel.Record.Fin { total_len; digest }) ->
          Alcotest.(check int) "fin length" (String.length payload) total_len;
          Alcotest.(check string) "fin digest" (Crypto.Sha256.digest payload) digest
      | _ -> Alcotest.fail "unexpected event")
    (Channel.Record.payload_records w payload);
  Alcotest.(check string) "payload reassembled" payload (Buffer.contents got);
  (* Ratchet, then a second transfer under epoch 1. *)
  (match feed r (Channel.Record.update_key w) with
  | Channel.Record.Accept Channel.Record.Key_update -> ()
  | _ -> Alcotest.fail "key update not accepted");
  Alcotest.(check int) "writer epoch" 1 (Channel.Record.writer_epoch w);
  Alcotest.(check int) "reader epoch" 1 (Channel.Record.reader_epoch r);
  Alcotest.(check int) "epoch updates" 1 (Channel.Record.epoch_updates r);
  let all_accepted =
    List.for_all
      (fun m -> match feed r m with Channel.Record.Accept _ -> true | _ -> false)
      (Channel.Record.payload_records w "second transfer")
  in
  Alcotest.(check bool) "second transfer accepted" true all_accepted;
  Alcotest.(check bool) "never poisoned" false (Channel.Record.reader_poisoned r)

let record_keystreams_disjoint () =
  let secret = Channel.Record.traffic_secret ~key:(String.make 32 'k') in
  let w = Channel.Record.writer ~secret in
  (* All-zero payload data: the sealed ciphertext IS the keystream over
     the framed bytes, so equal ciphertexts would mean nonce reuse. *)
  let pt = Channel.Record.Stream { offset = 0; data = String.make 256 '\x00' } in
  let ct_of = function Channel.Wire.Record { ciphertext; _ } -> ciphertext | _ -> assert false in
  let c0 = ct_of (Channel.Record.seal w pt) in
  let c1 = ct_of (Channel.Record.seal w pt) in
  Alcotest.(check bool) "records 0 and 1 draw disjoint keystreams" true (c0 <> c1);
  ignore (Channel.Record.update_key w);
  let c0' = ct_of (Channel.Record.seal w pt) in
  Alcotest.(check bool) "epochs 0 and 1 draw disjoint keystreams" true (c0 <> c0')

(* ------------------------------------------------------------------ *)
(* Adversarial record streams                                          *)
(* ------------------------------------------------------------------ *)

let flip_byte s pos delta =
  let b = Bytes.of_string s in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + (delta mod 255))));
  Bytes.to_string b

let mangle_nth n f records = List.mapi (fun i m -> if i = n then f m else m) records

(* One damaged delivery must surface exactly one [Corrupt], skip the
   rest of the stretch, resync at the authentic [Fin] — and the reader
   must then accept a fresh transfer in full (the pipeline stays
   usable). *)
let adversarial_case ~name damage =
  let secret = Channel.Record.traffic_secret ~key:(Crypto.Sha256.digest name) in
  let w = Channel.Record.writer ~secret in
  let r = Channel.Record.reader ~secret in
  let payload = String.init 13000 (fun i -> Char.chr (i * 31 mod 256)) in
  let corrupt = ref 0 and recovered = ref 0 in
  List.iter
    (fun m ->
      match feed r m with
      | Channel.Record.Corrupt _ -> incr corrupt
      | Channel.Record.Recovered -> incr recovered
      | Channel.Record.Accept _ | Channel.Record.Skip -> ())
    (damage (Channel.Record.payload_records w payload));
  Alcotest.(check int) (name ^ ": exactly one corrupt event") 1 !corrupt;
  Alcotest.(check int) (name ^ ": one recovery at the fin") 1 !recovered;
  Alcotest.(check bool) (name ^ ": resynced") false (Channel.Record.reader_poisoned r);
  let buf = Buffer.create 64 in
  List.iter
    (fun m ->
      match feed r m with
      | Channel.Record.Accept (Channel.Record.Stream { data; _ }) -> Buffer.add_string buf data
      | Channel.Record.Accept (Channel.Record.Fin _) -> ()
      | _ -> Alcotest.fail (name ^ ": post-recovery transfer damaged"))
    (Channel.Record.payload_records w "fresh transfer after damage");
  Alcotest.(check string) (name ^ ": post-recovery payload") "fresh transfer after damage" (Buffer.contents buf)

let adversarial_out_of_order () =
  adversarial_case ~name:"out-of-order" (function
    | a :: b :: c :: rest -> a :: c :: b :: rest
    | _ -> Alcotest.fail "short stream")

let adversarial_duplicated () =
  adversarial_case ~name:"duplicated" (function
    | a :: b :: rest -> a :: b :: b :: rest
    | _ -> Alcotest.fail "short stream")

let adversarial_truncated () =
  adversarial_case ~name:"truncated"
    (mangle_nth 1 (function
      | Channel.Wire.Record { epoch; rn; ciphertext; tag } ->
          Channel.Wire.Record
            { epoch; rn; ciphertext = String.sub ciphertext 0 (String.length ciphertext / 2); tag }
      | m -> m))

let adversarial_cross_epoch () =
  adversarial_case ~name:"cross-epoch"
    (mangle_nth 1 (function
      | Channel.Wire.Record { epoch; rn; ciphertext; tag } ->
          Channel.Wire.Record { epoch = epoch + 1; rn; ciphertext; tag }
      | m -> m))

let adversarial_bit_flipped () =
  adversarial_case ~name:"bit-flipped"
    (mangle_nth 1 (function
      | Channel.Wire.Record { epoch; rn; ciphertext; tag } ->
          Channel.Wire.Record { epoch; rn; ciphertext = flip_byte ciphertext 17 1; tag }
      | m -> m))

(* A key-update boundary also resyncs a poisoned stream — even when the
   damaged transfer's fin never arrives. *)
let adversarial_recovers_at_key_update () =
  let secret = Channel.Record.traffic_secret ~key:(String.make 32 'r') in
  let w = Channel.Record.writer ~secret in
  let r = Channel.Record.reader ~secret in
  let damaged =
    (* duplicate the opener and drop the fin: corrupt stretch with no
       transfer boundary left in it *)
    match Channel.Record.payload_records w (String.make 5000 'x') with
    | first :: rest -> first :: first :: List.filteri (fun i _ -> i < List.length rest - 1) rest
    | [] -> Alcotest.fail "short stream"
  in
  let events = List.map (feed r) damaged in
  Alcotest.(check int) "one corrupt" 1
    (List.length (List.filter (function Channel.Record.Corrupt _ -> true | _ -> false) events));
  Alcotest.(check bool) "still poisoned without a boundary" true (Channel.Record.reader_poisoned r);
  (match feed r (Channel.Record.update_key w) with
  | Channel.Record.Recovered ->
      Alcotest.(check int) "ratchet counted" 1 (Channel.Record.epoch_updates r);
      Alcotest.(check bool) "resynced" false (Channel.Record.reader_poisoned r)
  | _ -> Alcotest.fail "key update did not recover the stream");
  (* and the next epoch's transfer sails through *)
  let all_accepted =
    List.for_all
      (fun m -> match feed r m with Channel.Record.Accept _ -> true | _ -> false)
      (Channel.Record.payload_records w "epoch-1 transfer")
  in
  Alcotest.(check bool) "epoch-1 transfer accepted" true all_accepted

(* ------------------------------------------------------------------ *)
(* Mutation fuzz over EGREC1 (mirrors test_policyvm's fuzz style)      *)
(* ------------------------------------------------------------------ *)

(* Any single-byte mutation of a framed plaintext must decode to None
   or to a plaintext that re-encodes to exactly the mutated bytes:
   decoding is total and canonical. *)
let fuzz_frame_codec =
  QCheck.Test.make ~name:"EGREC1 framing: total decode, canonical encode" ~count:400
    QCheck.(triple (int_bound 3) small_nat small_nat)
    (fun (which, pos, delta) ->
      let base = Channel.Record.frame (List.nth frame_samples (which mod List.length frame_samples)) in
      let mutated = flip_byte base pos delta in
      match Channel.Record.unframe mutated with
      | None -> true
      | Some pt -> Channel.Record.frame pt = mutated)

let fuzz_secret = lazy (Channel.Record.traffic_secret ~key:(String.make 32 'f'))

(* Any single-byte mutation of a sealed record (ciphertext or tag) must
   surface as exactly one [Corrupt] — never an exception, never a
   silently wrong [Accept] — with every earlier record accepted and the
   reader resynced by the fin unless the fin itself was hit. *)
let fuzz_record_mutation =
  QCheck.Test.make ~name:"mutated records: one corrupt, then recovery" ~count:400
    QCheck.(triple small_nat small_nat small_nat)
    (fun (which, pos, delta) ->
      let secret = Lazy.force fuzz_secret in
      let w = Channel.Record.writer ~secret in
      let r = Channel.Record.reader ~secret in
      let payload = String.init 9000 (fun i -> Char.chr (i * 13 mod 256)) in
      let records = Channel.Record.payload_records w payload in
      let n = List.length records in
      let target = which mod n in
      let records =
        mangle_nth target
          (function
            | Channel.Wire.Record { epoch; rn; ciphertext; tag } ->
                if pos mod 2 = 0 then
                  Channel.Wire.Record { epoch; rn; ciphertext = flip_byte ciphertext pos delta; tag }
                else Channel.Wire.Record { epoch; rn; ciphertext; tag = flip_byte tag pos delta }
            | m -> m)
          records
      in
      let corrupt = ref 0 and accepted = ref 0 and mutated_accepted = ref false in
      List.iteri
        (fun i m ->
          match feed r m with
          | Channel.Record.Corrupt _ -> incr corrupt
          | Channel.Record.Accept _ ->
              incr accepted;
              if i = target then mutated_accepted := true
          | Channel.Record.Skip | Channel.Record.Recovered -> ())
        records;
      !corrupt = 1 && (not !mutated_accepted) && !accepted = target
      && Channel.Record.reader_poisoned r = (target = n - 1))

(* ------------------------------------------------------------------ *)
(* Mux                                                                  *)
(* ------------------------------------------------------------------ *)

let mux_key i = Printf.sprintf "%032d" i

let mux_poll_order () =
  let mux = Channel.Session.Mux.create () in
  let n = 40 in
  let endpoints =
    List.init n (fun i ->
        let a, b = Channel.Transport.pair () in
        Channel.Session.Mux.attach mux ~id:(Printf.sprintf "c%02d" i) ~key:(mux_key i) b;
        a)
  in
  Alcotest.(check (list string)) "attach order preserved"
    (List.init n (Printf.sprintf "c%02d"))
    (Channel.Session.Mux.connections mux);
  List.iteri
    (fun i ep ->
      let s = Channel.Session.create ~key:(mux_key i) in
      List.iter (Channel.Transport.send ep) (Channel.Session.payload_messages s (Printf.sprintf "payload-%02d" i)))
    endpoints;
  let events = ref [] in
  while Channel.Session.Mux.pending mux do
    events := !events @ Channel.Session.Mux.poll mux
  done;
  let got =
    List.filter_map
      (function Channel.Session.Mux.Payload { conn; payload } -> Some (conn, payload) | _ -> None)
      !events
  in
  Alcotest.(check int) "every payload surfaced" n (List.length got);
  (* Each client's transfer completes on the same sweep, so completions
     come back in attach (= round-robin) order. *)
  List.iteri
    (fun i (conn, payload) ->
      Alcotest.(check string) "round-robin order" (Printf.sprintf "c%02d" i) conn;
      Alcotest.(check string) "payload intact" (Printf.sprintf "payload-%02d" i) payload)
    got

let mux_duplicate_attach () =
  let mux = Channel.Session.Mux.create () in
  let _, b = Channel.Transport.pair () in
  Channel.Session.Mux.attach mux ~id:"dup" ~key:(String.make 32 'k') b;
  let _, b2 = Channel.Transport.pair () in
  Alcotest.check_raises "duplicate id" (Invalid_argument "Session.Mux.attach: duplicate connection id dup")
    (fun () -> Channel.Session.Mux.attach mux ~id:"dup" ~key:(String.make 32 'k') b2)

let () =
  Alcotest.run "channel"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick wire_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick wire_rejects_garbage;
          Alcotest.test_case "rejects trailing" `Quick wire_rejects_trailing_bytes;
        ] );
      ( "session",
        [
          Alcotest.test_case "roundtrip" `Quick session_roundtrip;
          Alcotest.test_case "rejects tamper" `Quick session_rejects_tamper;
          Alcotest.test_case "key length" `Quick session_key_length;
          Alcotest.test_case "transfers draw disjoint keystreams" `Quick legacy_transfers_disjoint_keystreams;
        ] );
      ( "record",
        [
          Alcotest.test_case "frame roundtrip" `Quick record_frame_roundtrip;
          Alcotest.test_case "frame strictness" `Quick record_frame_strictness;
          Alcotest.test_case "writer/reader roundtrip" `Quick record_roundtrip;
          Alcotest.test_case "keystreams disjoint" `Quick record_keystreams_disjoint;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "out-of-order record" `Quick adversarial_out_of_order;
          Alcotest.test_case "duplicated record" `Quick adversarial_duplicated;
          Alcotest.test_case "truncated record" `Quick adversarial_truncated;
          Alcotest.test_case "cross-epoch record" `Quick adversarial_cross_epoch;
          Alcotest.test_case "bit-flipped record" `Quick adversarial_bit_flipped;
          Alcotest.test_case "recovery at key update" `Quick adversarial_recovers_at_key_update;
        ] );
      ("fuzz", List.map QCheck_alcotest.to_alcotest [ fuzz_frame_codec; fuzz_record_mutation ]);
      ( "mux",
        [
          Alcotest.test_case "poll order" `Quick mux_poll_order;
          Alcotest.test_case "duplicate attach" `Quick mux_duplicate_attach;
        ] );
      ( "transport",
        [
          Alcotest.test_case "in order" `Quick transport_delivers_in_order;
          Alcotest.test_case "tamper hook" `Quick transport_tamper_hook;
        ] );
      ( "client",
        [
          Alcotest.test_case "accepts good quote" `Slow client_accepts_good_quote;
          Alcotest.test_case "rejects wrong measurement" `Slow client_rejects_wrong_measurement;
          Alcotest.test_case "rejects wrong device" `Slow client_rejects_wrong_device;
          Alcotest.test_case "rejects swapped key" `Slow client_rejects_swapped_key;
        ] );
    ]
