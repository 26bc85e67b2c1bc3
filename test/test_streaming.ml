(* Streaming-channel tests: the EGREC1 record layer with pipelined
   inspection must be observationally identical to the legacy block
   channel — same verdicts, same findings, bit-identical modelled
   cycles, same audit root — and 0-RTT resumption must round-trip,
   rotate its ticket, and fall back to the full handshake whenever the
   ticket no longer matches the inspector. *)

open Toolchain

let libc_db = lazy (Libc.hash_db Libc.V1_0_5)

(* Full-size workloads: the bench configuration, with small RSA so the
   handshake stays test-speed. *)
let big_config seed =
  { Engarde.Provision.default_config with Engarde.Provision.rsa_bits = 512; seed }

(* Adversarial fixtures are tiny; the test_engarde sizing is plenty. *)
let small_config seed = { Engarde.Provision.fast_config with Engarde.Provision.seed }

let phase_cycles (o : Engarde.Provision.outcome) =
  let r = o.Engarde.Provision.report in
  [
    ("disassembly", Sgx.Perf.total_cycles r.Engarde.Report.disassembly);
    ("analysis", Sgx.Perf.total_cycles r.Engarde.Report.analysis);
    ("cfg", Sgx.Perf.total_cycles r.Engarde.Report.cfg);
    ("policy", Sgx.Perf.total_cycles r.Engarde.Report.policy);
    ("loading", Sgx.Perf.total_cycles r.Engarde.Report.loading);
    ("provisioning", Sgx.Perf.total_cycles r.Engarde.Report.provisioning);
  ]

let result_shape = function
  | Ok _ -> "ok"
  | Error r -> "error: " ^ Engarde.Provision.rejection_to_string r

(* The acceptance criterion: legacy and streaming runs of the same
   payload under the same policies agree on everything observable. *)
let check_differential ~name cfg policies payload =
  let run channel = Engarde.Provision.run ~channel ~policies:(policies ()) cfg ~payload in
  let ol = run `Legacy and os = run `Streaming in
  Alcotest.(check string) (name ^ ": result") (result_shape ol.Engarde.Provision.result)
    (result_shape os.Engarde.Provision.result);
  Alcotest.(check bool) (name ^ ": client verdict") true
    (ol.Engarde.Provision.client_verdict = os.Engarde.Provision.client_verdict);
  Alcotest.(check bool) (name ^ ": policy results") true
    (ol.Engarde.Provision.policy_results = os.Engarde.Provision.policy_results);
  Alcotest.(check bool) (name ^ ": findings") true
    (Engarde.Provision.findings ol = Engarde.Provision.findings os);
  Alcotest.(check int) (name ^ ": instructions") ol.Engarde.Provision.report.Engarde.Report.instructions
    os.Engarde.Provision.report.Engarde.Report.instructions;
  List.iter2
    (fun (phase, cl) (_, cs) -> Alcotest.(check int) (name ^ ": " ^ phase ^ " cycles") cl cs)
    (phase_cycles ol) (phase_cycles os);
  Alcotest.(check bool) (name ^ ": negotiated digest") true
    (ol.Engarde.Provision.negotiated_digest = os.Engarde.Provision.negotiated_digest);
  (ol, os)

let differential_all_workloads () =
  List.iter
    (fun bench ->
      let name = Workloads.to_string bench in
      let img = Linker.link (Workloads.build Codegen.plain bench) in
      let _, os =
        check_differential ~name
          (big_config ("stream-diff/" ^ name))
          (fun () -> [ Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () ])
          img.Linker.elf
      in
      (match os.Engarde.Provision.result with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "%s rejected: %s" name (Engarde.Provision.rejection_to_string r));
      (* The streaming run carries channel telemetry; the legacy one
         never does. *)
      match os.Engarde.Provision.channel_stats with
      | None -> Alcotest.failf "%s: no channel stats" name
      | Some st ->
          let pages = (String.length img.Linker.elf + 4095) / 4096 in
          Alcotest.(check int) (name ^ ": pages + fin") (pages + 1) st.Engarde.Provision.records;
          Alcotest.(check bool) (name ^ ": record bytes cover the payload") true
            (st.Engarde.Provision.record_bytes >= String.length img.Linker.elf);
          Alcotest.(check bool) (name ^ ": pipelining kept records in flight") true
            (st.Engarde.Provision.in_flight_peak > 0);
          Alcotest.(check int) (name ^ ": single-transfer epoch") 0 st.Engarde.Provision.epoch_updates;
          Alcotest.(check bool) (name ^ ": cold run") false st.Engarde.Provision.resumed)
    Workloads.all

(* The adversarial fixtures exercise the rejection path: both channels
   must report the identical violation sites. *)
let differential_adversarial () =
  List.iter
    (fun (adv, policies) ->
      let name = Workloads.adversarial_to_string adv in
      let img = Linker.link_adversarial adv in
      let ol, _ =
        check_differential ~name (small_config ("stream-adv/" ^ name)) policies img.Linker.elf
      in
      match ol.Engarde.Provision.result with
      | Error (Engarde.Provision.Policy_violations _) -> ()
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error r -> Alcotest.failf "%s: wrong rejection: %s" name (Engarde.Provision.rejection_to_string r))
    [
      (Workloads.Jump_past_mask, fun () -> [ Engarde.Policy_ifcc.make ~mode:`Flow () ]);
      (Workloads.Early_ret, fun () -> [ Engarde.Policy_stack.make ~mode:`Flow ~exempt:Libc.function_names () ]);
    ]

(* A tampered streaming transfer rejects exactly like a tampered legacy
   one: Transfer_tampered, with the connection-level detail. *)
let differential_tampered_stream () =
  let img = Linker.link (Workloads.build Codegen.plain Workloads.Mcf) in
  let flip s i = String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor 1) else c) s in
  let tamper = function
    | Channel.Wire.Record ({ rn = 3; ciphertext; _ } as r) ->
        Channel.Wire.Record { r with ciphertext = flip ciphertext 5 }
    | m -> m
  in
  let o =
    Engarde.Provision.run ~channel:`Streaming ~tamper (small_config "stream-tamper") ~payload:img.Linker.elf
  in
  match o.Engarde.Provision.result with
  | Error (Engarde.Provision.Transfer_tampered _) -> ()
  | Ok _ -> Alcotest.fail "tampered record stream accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Engarde.Provision.rejection_to_string r)

(* Pipeline staging is observable: the ELF prefix validates while pages
   stream, before the policy phase. *)
let pipeline_events_in_order () =
  let img = Linker.link (Workloads.build Codegen.plain Workloads.Mcf) in
  let events = ref [] in
  let o =
    Engarde.Provision.run ~channel:`Streaming
      ~on_event:(fun e -> events := e :: !events)
      (small_config "stream-events") ~payload:img.Linker.elf
  in
  (match o.Engarde.Provision.result with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "rejected: %s" (Engarde.Provision.rejection_to_string r));
  let events = List.rev !events in
  let index p = ref (-1) |> fun r ->
    List.iteri (fun i e -> if !r < 0 && p e then r := i) events;
    !r
  in
  let started = index (function Engarde.Provision.Transfer_started -> true | _ -> false) in
  let prefix = index (function Engarde.Provision.Prefix_validated -> true | _ -> false) in
  let policy = index (function Engarde.Provision.Policy_phase -> true | _ -> false) in
  Alcotest.(check int) "transfer start announced first" 0 started;
  Alcotest.(check bool) "prefix validated early" true (prefix >= 0);
  Alcotest.(check bool) "policy phase announced" true (policy >= 0);
  Alcotest.(check bool) "prefix before policy phase" true (prefix < policy)

(* The ELF magic is checked once, as soon as 16 bytes have landed: a
   non-ELF stream must not copy its growing prefix on every record.
   Both 2 MiB streams are rejected as malformed and differ only in their
   first five bytes, so they should allocate alike. Two unmeasured runs
   first fill the process-wide memos (the enclave build's plan and
   pages, and the seed's platform key), which only the first run on a
   configuration pays for; the second re-hashes any pages the first
   lost, should it have filled the page memo and emptied it part-way.
   Each reading is taken after a trailing [Gc.minor ()], because OCaml
   5.1 counts what is still in the minor heap short. *)
let non_elf_prefix_checked_once () =
  let cfg = { (small_config "prefix-once") with Engarde.Provision.heap_pages = 1024 } in
  let allocated magic =
    let payload = magic ^ String.make ((2 * 1024 * 1024) - 5) '\x00' in
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let o = Engarde.Provision.run ~channel:`Streaming cfg ~payload in
    Gc.minor ();
    let bytes = Gc.allocated_bytes () -. before in
    (match o.Engarde.Provision.result with
    | Error (Engarde.Provision.Bad_elf _) -> ()
    | r -> Alcotest.failf "%S stream: %s" magic (result_shape r));
    bytes
  in
  ignore (allocated "\x7fELF\x02");
  ignore (allocated "\x7fELF\x02");
  let elf = allocated "\x7fELF\x02" in
  let other = allocated "\x00ELF\x02" in
  if Float.abs (other -. elf) >= 0.05 *. elf then
    Alcotest.failf "non-ELF stream allocated %.0f MB against %.0f MB for an ELF one" (other /. 1e6)
      (elf /. 1e6)

(* ------------------------------------------------------------------ *)
(* 0-RTT resumption                                                    *)
(* ------------------------------------------------------------------ *)

let mcf_payload = lazy (Linker.link (Workloads.build Codegen.plain Workloads.Mcf)).Linker.elf
let nginx_payload = lazy (Linker.link (Workloads.build Codegen.plain Workloads.Nginx)).Linker.elf

let accepted_outcome name (o : Engarde.Provision.outcome) =
  (match o.Engarde.Provision.result with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "%s rejected: %s" name (Engarde.Provision.rejection_to_string r));
  match o.Engarde.Provision.client_verdict with
  | Some (true, _) -> ()
  | _ -> Alcotest.failf "%s: client did not accept" name

let stats name (o : Engarde.Provision.outcome) =
  match o.Engarde.Provision.channel_stats with
  | Some st -> st
  | None -> Alcotest.failf "%s: no channel stats" name

let zero_rtt_roundtrip payload cfg () =
  let payload = Lazy.force payload in
  let policies () = [ Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () ] in
  let cold = Engarde.Provision.run ~channel:`Streaming ~policies:(policies ()) cfg ~payload in
  accepted_outcome "cold" cold;
  let ticket =
    match cold.Engarde.Provision.ticket with
    | Some t -> t
    | None -> Alcotest.fail "accepted streaming run issued no ticket"
  in
  Alcotest.(check int) "ticket blob length" Engarde.Provision.Ticket.blob_len (String.length (fst ticket));
  let warm =
    Engarde.Provision.run ~channel:`Streaming ~policies:(policies ()) ~resume:ticket cfg ~payload
  in
  accepted_outcome "warm" warm;
  let st = stats "warm" warm in
  Alcotest.(check bool) "warm run resumed" true st.Engarde.Provision.resumed;
  Alcotest.(check bool) "no fallback" false st.Engarde.Provision.fallback;
  (* Inspection is unchanged; only the handshake got cheaper. *)
  let drop_prov = List.filter (fun (p, _) -> p <> "provisioning") in
  Alcotest.(check bool) "inspection cycles identical" true
    (drop_prov (phase_cycles cold) = drop_prov (phase_cycles warm));
  let prov o = List.assoc "provisioning" (phase_cycles o) in
  Alcotest.(check bool) "0-RTT skips the RSA handshake" true (prov warm < prov cold);
  (* The ticket rotates: the warm run issues a fresh one that resumes
     again. *)
  let ticket2 =
    match warm.Engarde.Provision.ticket with
    | Some t -> t
    | None -> Alcotest.fail "warm run issued no ticket"
  in
  Alcotest.(check bool) "ticket rotated" true (fst ticket2 <> fst ticket);
  let warm2 =
    Engarde.Provision.run ~channel:`Streaming ~policies:(policies ()) ~resume:ticket2 cfg ~payload
  in
  accepted_outcome "warm2" warm2;
  Alcotest.(check bool) "chained resumption" true (stats "warm2" warm2).Engarde.Provision.resumed

let fallback_case name mk =
  let payload = Lazy.force mcf_payload in
  let cfg = small_config "stream-fallback" in
  let policies () = [ Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () ] in
  let cold = Engarde.Provision.run ~channel:`Streaming ~policies:(policies ()) cfg ~payload in
  accepted_outcome "cold" cold;
  let ticket = Option.get cold.Engarde.Provision.ticket in
  let cfg', epoch, resume = mk cfg ticket in
  let o = Engarde.Provision.run ~channel:`Streaming ~policies:(policies ()) ~resume ~ticket_epoch:epoch cfg' ~payload in
  accepted_outcome name o;
  let st = stats name o in
  Alcotest.(check bool) (name ^ ": fell back") true st.Engarde.Provision.fallback;
  Alcotest.(check bool) (name ^ ": not a resumption") false st.Engarde.Provision.resumed;
  (* The full handshake still issues a fresh ticket for next time. *)
  Alcotest.(check bool) (name ^ ": reticketed") true (o.Engarde.Provision.ticket <> None)

let zero_rtt_stale_epoch () =
  (* The provider bumped the ticket-key epoch: every outstanding ticket
     is invalidated at once. *)
  fallback_case "stale epoch" (fun cfg ticket -> (cfg, 1, ticket))

let zero_rtt_measurement_mismatch () =
  (* A different agreed policy set means a different enclave
     measurement: the ticket no longer names this inspector. *)
  fallback_case "measurement mismatch" (fun cfg ticket ->
      ({ cfg with Engarde.Provision.policy_names = [ "library-linking" ] }, 0, ticket))

let zero_rtt_tampered_ticket () =
  fallback_case "tampered ticket" (fun cfg (blob, secret) ->
      let blob = String.mapi (fun i c -> if i = 20 then Char.chr (Char.code c lxor 1) else c) blob in
      (cfg, 0, (blob, secret)))

(* A Fin that misstates the payload length is a transfer fault, caught
   before anything reads staging: never a loader fault blamed on the
   binary, and never a staging read sized by the sender. The adversary
   holds the resumption secret of the cold run's ticket, so it can open
   and re-seal every 0-RTT record and rewrite the Fin. A forged length
   must cost what a forged digest does: both are refused at the same
   stage, before the examine and load work an honest run goes on to. *)
let zero_rtt_forged_fin_length () =
  let payload = Lazy.force mcf_payload in
  let cfg = small_config "stream-forged-fin" in
  let cold = Engarde.Provision.run ~channel:`Streaming cfg ~payload in
  accepted_outcome "cold" cold;
  let ticket = Option.get cold.Engarde.Provision.ticket in
  let run ?total_len ?digest () =
    let keys = ref None in
    let tamper = function
      | Channel.Wire.Resume { nonce; _ } as m ->
          let secret = Channel.Record.zero_rtt_secret ~resumption:(snd ticket) ~nonce in
          keys := Some (Channel.Record.reader ~secret, Channel.Record.writer ~secret);
          m
      | Channel.Wire.Record { epoch; rn; ciphertext; tag } -> (
          let reader, writer = Option.get !keys in
          match Channel.Record.read reader ~epoch ~rn ~ciphertext ~tag with
          | Channel.Record.Accept (Channel.Record.Fin fin) ->
              Channel.Record.seal writer
                (Channel.Record.Fin
                   {
                     total_len = Option.value total_len ~default:fin.total_len;
                     digest = Option.value digest ~default:fin.digest;
                   })
          | Channel.Record.Accept pt -> Channel.Record.seal writer pt
          | _ -> Alcotest.failf "record %d did not open under the 0-RTT keys" rn)
      | m -> m
    in
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let o = Engarde.Provision.run ~channel:`Streaming ~tamper ~resume:ticket cfg ~payload in
    Gc.minor ();
    (o, Gc.allocated_bytes () -. before)
  in
  let honest, _ = run () in
  accepted_outcome "honest Fin, re-sealed" honest;
  Alcotest.(check bool) "re-sealed run resumed" true (stats "honest" honest).Engarde.Provision.resumed;
  let forged_digest, digest_bytes = run ~digest:(String.make 32 '\x00') () in
  Alcotest.(check string) "forged digest"
    "error: transfer tampered: payload digest mismatch"
    (result_shape forged_digest.Engarde.Provision.result);
  List.iter
    (fun total_len ->
      let o, bytes = run ~total_len () in
      (match o.Engarde.Provision.result with
      | Error (Engarde.Provision.Transfer_tampered _) -> ()
      | r -> Alcotest.failf "Fin length %d: %s" total_len (result_shape r));
      if Float.abs (bytes -. digest_bytes) >= 0.1 *. digest_bytes then
        Alcotest.failf "Fin length %d allocated %.0f MB against %.0f MB for a forged digest"
          total_len (bytes /. 1e6) (digest_bytes /. 1e6))
    [ 1000; 4_000_000; 0xffff_ffff ]

(* ------------------------------------------------------------------ *)
(* Allocation ceiling: a warm job pays no per-job crypto garbage       *)
(* ------------------------------------------------------------------ *)

(* One 429.mcf streaming job on the benchmark's fast enclave
   (benchmark/service_loop.ml), after warm-up runs on the same
   configuration have filled the process-wide memos, so its enclave
   build hashes no page. The reading is taken after a second
   [Gc.minor ()], because OCaml 5.1 counts what is still in the minor
   heap short; the ceiling sits about 10% above the measured 33.1 MB.
   Raising it needs a stated reason; a change that cuts the job's
   allocation lowers it. *)
let warm_job_allocation () =
  let payload = Lazy.force mcf_payload in
  let run () =
    Engarde.Provision.run ~channel:`Streaming
      ~policies:[ Engarde.Policy_libc.make ~db:(Lazy.force libc_db) () ]
      (small_config "engarde-bench") ~payload
  in
  (* Two warm-ups: should the first fill the page memo and empty it
     part-way, the second re-hashes the pages it lost. *)
  accepted_outcome "warm-up" (run ());
  accepted_outcome "second warm-up" (run ());
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let o = run () in
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. before in
  accepted_outcome "measured" o;
  let ceiling = 36.5e6 in
  if bytes > ceiling then
    Alcotest.failf "warm 429.mcf streaming job allocated %.1f MB, ceiling %.1f MB" (bytes /. 1e6)
      (ceiling /. 1e6)

(* ------------------------------------------------------------------ *)
(* Ticket sealing boundary                                             *)
(* ------------------------------------------------------------------ *)

let ticket_device = lazy (Sgx.Quote.device_create ~seed:"ticket-test-device")

let ticket_seal_unseal () =
  let device = Lazy.force ticket_device in
  let measurement = String.make 32 'm' and policy_digest = String.make 32 'p' in
  let resumption = String.make 32 's' in
  let blob = Engarde.Provision.Ticket.seal device ~measurement ~policy_digest ~epoch:3 ~resumption in
  Alcotest.(check int) "blob length" Engarde.Provision.Ticket.blob_len (String.length blob);
  (match Engarde.Provision.Ticket.unseal device ~measurement ~policy_digest ~epoch:3 blob with
  | Ok secret -> Alcotest.(check string) "resumption secret round-trips" resumption secret
  | Error e -> Alcotest.failf "unseal refused: %s" e);
  Alcotest.check_raises "short secret"
    (Invalid_argument "Provision.Ticket.seal: resumption secret must be 32 bytes") (fun () ->
      ignore (Engarde.Provision.Ticket.seal device ~measurement ~policy_digest ~epoch:0 ~resumption:"short"))

let ticket_refusals () =
  let device = Lazy.force ticket_device in
  let measurement = String.make 32 'm' and policy_digest = String.make 32 'p' in
  let blob =
    Engarde.Provision.Ticket.seal device ~measurement ~policy_digest ~epoch:0
      ~resumption:(String.make 32 's')
  in
  let unseal ?(measurement = measurement) ?(policy_digest = policy_digest) ?(epoch = 0) b =
    Engarde.Provision.Ticket.unseal device ~measurement ~policy_digest ~epoch b
  in
  Alcotest.(check (result string string)) "unparseable" (Error "unparseable ticket") (unseal "garbage");
  Alcotest.(check (result string string)) "stale epoch" (Error "stale ticket epoch 0 (current 2)")
    (unseal ~epoch:2 blob);
  let flipped = String.mapi (fun i c -> if i = 12 then Char.chr (Char.code c lxor 1) else c) blob in
  Alcotest.(check (result string string)) "tampered" (Error "ticket authentication failed")
    (unseal flipped);
  (* A different measurement changes the sealing key itself. *)
  Alcotest.(check (result string string)) "wrong inspector" (Error "ticket authentication failed")
    (unseal ~measurement:(String.make 32 'x') blob);
  Alcotest.(check (result string string)) "wrong policy set"
    (Error "ticket policy-set digest mismatch")
    (unseal ~policy_digest:(String.make 32 'q') blob)

(* ------------------------------------------------------------------ *)
(* Transcripts: the wire and the pipeline events, pinned per flow      *)
(* ------------------------------------------------------------------ *)

(* Every flow runs the jump-past-mask fixture (three records) with a
   negotiated program set; the pattern IFCC scan accepts it and the
   flow-sensitive one rejects it. The program blob is opaque to the
   enclave, which checks only its digest. *)
let transcript_fixture = lazy (Linker.link_adversarial Workloads.Jump_past_mask).Linker.elf
let transcript_programs = [ ("ifcc", "EGNATIVE1\x00ifcc") ]

let transcript_config =
  {
    (small_config "transcript") with
    Engarde.Provision.policy_digest = Channel.Session.policy_set_digest transcript_programs;
  }

let transcript_run ?tamper ?on_event ?(mode = `Pattern) ?resume ?ticket_epoch channel =
  Engarde.Provision.run ?tamper ?on_event ~channel ?resume ?ticket_epoch
    ~policies:[ Engarde.Policy_ifcc.make ~mode () ]
    ~programs:transcript_programs transcript_config ~payload:(Lazy.force transcript_fixture)

let cold_ticket () =
  match (transcript_run `Streaming).Engarde.Provision.ticket with
  | Some t -> t
  | None -> Alcotest.fail "cold streaming run issued no ticket"

let event_name = function
  | Engarde.Provision.Transfer_started -> "transfer-started"
  | Prefix_validated -> "prefix-validated"
  | Policy_phase -> "policy-phase"

(* One flow's transcript: a line per message a pass-through adversary
   sees and per pipeline event, in order, then the outcome (result,
   client verdict, channel counters, ticket, modelled cycles). Returns
   the digest of those lines and the run-length sequence of their
   kinds. *)
let transcript ?(rewrite = Fun.id) ?mode ?resume ?ticket_epoch channel =
  let log = ref [] in
  let add kind detail = log := (kind, detail) :: !log in
  let hex s = Crypto.Sha256.hex (Crypto.Sha256.digest s) in
  let tamper m =
    let d = Channel.Wire.describe m in
    add (match Astring.String.cut ~sep:" #" d with Some (k, _) -> k | None -> d)
      (hex (Channel.Wire.to_bytes m));
    rewrite m
  in
  let on_event e =
    let name = event_name e in
    add ("@" ^ List.hd (String.split_on_char ' ' name)) name
  in
  let o = transcript_run ~tamper ~on_event ?mode ?resume ?ticket_epoch channel in
  let outcome =
    String.concat " | "
      [
        result_shape o.Engarde.Provision.result;
        (match o.Engarde.Provision.client_verdict with
        | Some (ok, detail) -> Printf.sprintf "client %b %s" ok detail
        | None -> "client none");
        Option.fold ~none:"no negotiation" ~some:hex o.Engarde.Provision.negotiated_digest;
        (match o.Engarde.Provision.channel_stats with
        | None -> "no channel stats"
        | Some s ->
            Printf.sprintf "records %d bytes %d peak %d epochs %d resumed %b fallback %b"
              s.Engarde.Provision.records s.record_bytes s.in_flight_peak s.epoch_updates s.resumed
              s.fallback);
        Option.fold ~none:"no ticket" ~some:(fun (b, s) -> hex (b ^ s)) o.Engarde.Provision.ticket;
        String.concat "," (List.map (fun (p, c) -> Printf.sprintf "%s=%d" p c) (phase_cycles o));
      ]
  in
  let log = List.rev !log in
  let rec runs = function
    | [] -> []
    | k :: rest ->
        let rec count n = function k' :: tl when k' = k -> count (n + 1) tl | tl -> (n, tl) in
        let n, tail = count 1 rest in
        (if n = 1 then k else Printf.sprintf "%s*%d" k n) :: runs tail
  in
  ( hex (String.concat "\n" (List.map (fun (k, d) -> k ^ " " ^ d) log @ [ outcome ])),
    String.concat ", " (runs (List.map fst log)) )

let flip_quote_byte = function
  | Channel.Wire.Quote_response ({ quote; _ } as q) ->
      let quote = String.mapi (fun i c -> if i = 40 then Char.chr (Char.code c lxor 1) else c) quote in
      Channel.Wire.Quote_response { q with quote }
  | m -> m

(* (flow, run, digest, kinds). Any change to a wire message, the
   position of an event, a channel counter, the ticket or a modelled
   cycle changes the digest. *)
let transcript_cases =
  [
    ( "legacy full handshake",
      (fun () -> transcript `Legacy),
      "1c36eacf05443c950f7c1dc0999556b97493165dd49e2037e86963409dcaa8a7",
      "client-hello, quote-response, wrapped-key, policy-offer (1 programs), @transfer-started, \
       code-block*3, transfer-done, policy-accept, @policy-phase, verdict: accepted" );
    ( "streaming cold",
      (fun () -> transcript `Streaming),
      "ee78d94055b93c98af806bb183d69e8d75320b789687f164e0cd7bbe3eb51e4a",
      "client-hello, quote-response, wrapped-key, policy-offer (1 programs), policy-accept, \
       @transfer-started, record, @prefix-validated, record*3, @policy-phase, verdict: accepted, \
       session-ticket" );
    ( "0-RTT accepted",
      (fun () -> transcript ~resume:(cold_ticket ()) `Streaming),
      "1d73b727043e01ce167ee297c92829f1613ca6fc89c337fd075058f9b085e646",
      "resume, resume-accept, policy-accept, @transfer-started, record, @prefix-validated, \
       record*3, @policy-phase, verdict: accepted, session-ticket" );
    ( "0-RTT fallback on a stale epoch",
      (fun () -> transcript ~resume:(cold_ticket ()) ~ticket_epoch:1 `Streaming),
      "d5ee8cb7c1baa0a5f6dd97704b795f5b9b6490295775f701e2a9f157b43061cf",
      "resume, record*4, quote-response, wrapped-key, policy-offer (1 programs), policy-accept, \
       @transfer-started, record, @prefix-validated, record*3, @policy-phase, verdict: accepted, \
       session-ticket" );
    ( "tampered quote",
      (fun () -> transcript ~rewrite:flip_quote_byte `Streaming),
      "ad9dfe149462f13b9ca3a97197560f7d969e32891432117038ebb8cddf9dc524",
      "client-hello, quote-response" );
    ( "policy rejection",
      (fun () -> transcript ~mode:`Flow `Streaming),
      "d05bb15cc895c1fb3d78ebcd02cbe8aab3f520ecc6abd3d8af38dcf767f747cb",
      "client-hello, quote-response, wrapped-key, policy-offer (1 programs), policy-accept, \
       @transfer-started, record, @prefix-validated, record*3, @policy-phase, verdict: rejected" );
  ]

let transcript_test (name, run, digest, kinds) =
  Alcotest.test_case name `Quick (fun () ->
      let d, k = run () in
      Alcotest.(check string) (name ^ ": kind sequence") kinds k;
      Alcotest.(check string) (name ^ ": transcript digest") digest d)

(* An adversary that rewrites the inspector's ticket into a second
   verdict leaves the client with two verdicts: it must honour neither,
   on the full handshake and on 0-RTT alike. *)
let ticket_rewritten_into_verdict () =
  let tamper = function
    | Channel.Wire.Ticket _ -> Channel.Wire.Verdict { accepted = true; detail = "forged" }
    | m -> m
  in
  let resume = cold_ticket () in
  List.iter
    (fun (name, o) ->
      Alcotest.(check string) (name ^ ": inspector accepted") "ok"
        (result_shape o.Engarde.Provision.result);
      Alcotest.(check bool) (name ^ ": no client verdict") true
        (o.Engarde.Provision.client_verdict = None))
    [
      ("full handshake", transcript_run ~tamper `Streaming);
      ("0-RTT", transcript_run ~tamper ~resume `Streaming);
    ]

(* An offer that does not hash to the measured digest is refused as
   tampered before any code is read, on either channel, and the client
   honours no verdict without the echo it expects. *)
let mismatched_offer_refused () =
  List.iter
    (fun channel ->
      let o =
        Engarde.Provision.run ~channel ~programs:[ ("ifcc", "another program") ] transcript_config
          ~payload:(Lazy.force transcript_fixture)
      in
      Alcotest.(check string) "refused as tampered"
        "error: transfer tampered: offered policy set does not match the measured digest"
        (result_shape o.Engarde.Provision.result);
      Alcotest.(check bool) "nothing negotiated" true (o.Engarde.Provision.negotiated_digest = None);
      Alcotest.(check bool) "no client verdict" true (o.Engarde.Provision.client_verdict = None))
    [ `Legacy; `Streaming ]

(* ------------------------------------------------------------------ *)
(* Service layer: audit parity and resumption telemetry                *)
(* ------------------------------------------------------------------ *)

let scheduler_config channel =
  {
    Service.Scheduler.default_config with
    Service.Scheduler.workers = 1;
    audit = true;
    cache = `Disabled;
    channel;
    provision = small_config "stream-service";
  }

let scheduler_payload =
  lazy (Linker.link (Workloads.build Codegen.plain Workloads.Mcf)).Linker.elf

(* Distinct clients: every job provisions cold, so streaming stays
   cycle-identical to legacy. *)
let parity_jobs () =
  let mcf = Lazy.force scheduler_payload in
  [
    { Service.Scheduler.client = "tenant-a"; payload = mcf; policy_names = [ "libc" ] };
    { Service.Scheduler.client = "tenant-b"; payload = mcf; policy_names = [ "libc" ] };
    { Service.Scheduler.client = "tenant-c"; payload = mcf; policy_names = [ "libc"; "lint" ] };
  ]

(* tenant-a repeats, so its second streaming job rides the stashed
   ticket (and legitimately models a cheaper handshake). *)
let resumption_jobs () =
  let mcf = Lazy.force scheduler_payload in
  [
    { Service.Scheduler.client = "tenant-a"; payload = mcf; policy_names = [ "libc" ] };
    { Service.Scheduler.client = "tenant-a"; payload = mcf; policy_names = [ "libc" ] };
    { Service.Scheduler.client = "tenant-b"; payload = mcf; policy_names = [ "libc"; "lint" ] };
  ]

let run_jobs cfg jobs =
  let t = Service.Scheduler.create cfg in
  List.iter
    (fun j ->
      match Service.Scheduler.submit t j with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "submit refused: %s" why)
    (jobs ());
  let completions = Service.Scheduler.run_until_idle t in
  (t, completions)

let audit_root t =
  match Service.Scheduler.audit_log t with
  | Some log -> Audit.Log.root log
  | None -> Alcotest.fail "audit log missing"

(* The transparency log cannot tell the channels apart: same jobs, same
   leaves, same Merkle root. *)
let scheduler_audit_parity () =
  let tl, cl = run_jobs (scheduler_config `Legacy) parity_jobs in
  let ts, cs = run_jobs (scheduler_config `Streaming) parity_jobs in
  Alcotest.(check int) "same completions" (List.length cl) (List.length cs);
  List.iter2
    (fun (l : Service.Scheduler.completion) (s : Service.Scheduler.completion) ->
      Alcotest.(check bool) "same verdict" true (l.Service.Scheduler.verdict = s.Service.Scheduler.verdict);
      Alcotest.(check int) "same latency cycles" l.Service.Scheduler.latency_cycles
        s.Service.Scheduler.latency_cycles)
    cl cs;
  Alcotest.(check string) "same audit root" (audit_root tl) (audit_root ts)

(* A repeat submission from the same client rides 0-RTT; a different
   policy set does not share the ticket. *)
let scheduler_resumption_metrics () =
  let t, completions = run_jobs (scheduler_config `Streaming) resumption_jobs in
  Alcotest.(check int) "all jobs complete" 3 (List.length completions);
  let report = Service.Scheduler.report t in
  let has line = Astring.String.is_infix ~affix:line report in
  Alcotest.(check bool) "tenant-a's second job resumed" true (has "channel_resumptions_total 1");
  Alcotest.(check bool) "two full handshakes" true (has "channel_handshakes_total 2");
  Alcotest.(check bool) "no fallbacks" true (has "channel_resumption_fallbacks_total 0");
  Alcotest.(check bool) "records counted" true (has "channel_records_received_total");
  Alcotest.(check bool) "epoch gauge present" true (has "channel_epoch_updates_total 0")

let () =
  Alcotest.run "streaming"
    [
      ( "differential",
        [
          Alcotest.test_case "all seven workloads" `Slow differential_all_workloads;
          Alcotest.test_case "adversarial fixtures" `Quick differential_adversarial;
          Alcotest.test_case "tampered stream" `Quick differential_tampered_stream;
          Alcotest.test_case "pipeline event order" `Quick pipeline_events_in_order;
          Alcotest.test_case "non-ELF prefix checked once" `Slow non_elf_prefix_checked_once;
        ] );
      ( "zero-rtt",
        [
          Alcotest.test_case "roundtrip + rotation" `Slow
            (zero_rtt_roundtrip mcf_payload (small_config "stream-0rtt"));
          (* The largest workload, at full page sizing. *)
          Alcotest.test_case "roundtrip + rotation (nginx)" `Slow
            (zero_rtt_roundtrip nginx_payload (big_config "stream-0rtt"));
          Alcotest.test_case "stale epoch falls back" `Slow zero_rtt_stale_epoch;
          Alcotest.test_case "measurement mismatch falls back" `Slow zero_rtt_measurement_mismatch;
          Alcotest.test_case "tampered ticket falls back" `Slow zero_rtt_tampered_ticket;
          Alcotest.test_case "forged Fin length" `Slow zero_rtt_forged_fin_length;
        ] );
      ( "allocation",
        [ Alcotest.test_case "warm 429.mcf streaming job" `Quick warm_job_allocation ] );
      ( "transcript",
        List.map transcript_test transcript_cases
        @ [
          Alcotest.test_case "ticket rewritten into a second verdict" `Quick
            ticket_rewritten_into_verdict;
          Alcotest.test_case "mismatched policy offer" `Quick mismatched_offer_refused;
        ] );
      ( "ticket",
        [
          Alcotest.test_case "seal/unseal" `Quick ticket_seal_unseal;
          Alcotest.test_case "refusals" `Quick ticket_refusals;
        ] );
      ( "service",
        [
          Alcotest.test_case "audit parity" `Slow scheduler_audit_parity;
          Alcotest.test_case "resumption telemetry" `Slow scheduler_resumption_metrics;
        ] );
    ]
