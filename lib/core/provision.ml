type config = {
  epc_pages : int;
  heap_pages : int;
  bootstrap_pages : int;
  image_pages : int;
  rsa_bits : int;
  stack_pages : int;
  seed : string;
  policy_names : string list;
  policy_digest : string;
}

let default_config =
  {
    epc_pages = Sgx.Epc.default_pages;
    heap_pages = 5000;
    bootstrap_pages = 64;
    image_pages = 8192;
    rsa_bits = 512;
    stack_pages = 16;
    seed = "engarde-default-seed";
    policy_names = [];
    policy_digest = "";
  }

let fast_config =
  {
    default_config with
    epc_pages = 4096;
    heap_pages = 512;
    bootstrap_pages = 8;
    image_pages = 1600;
    rsa_bits = 512;
  }

let page = Sgx.Epc.page_size
let enclave_base = 0x1000_0000

(* Enclave layout: bootstrap | staging (client file bytes land here) |
   image region (loader target). Staging and image are carved out of
   the preallocated heap. *)
let bootstrap_base = enclave_base
let staging_base c = bootstrap_base + (c.bootstrap_pages * page)
let image_region_base = enclave_base + 0x200_0000

let enclave_size = 0x400_0000 (* 64 MB of virtual range *)

type rejection =
  | Transfer_tampered of string
  | Bad_elf of string
  | Stripped_binary
  | Mixed_pages of string
  | Disassembly_failed of string
  | Policy_violations of (string * Policy.verdict) list
  | Load_failed of string

let rejection_to_string = function
  | Transfer_tampered why -> "transfer tampered: " ^ why
  | Bad_elf why -> "malformed executable: " ^ why
  | Stripped_binary -> "binary has no symbol table (stripped binaries are auto-rejected)"
  | Mixed_pages why -> why
  | Disassembly_failed why -> "disassembly failed: " ^ why
  | Policy_violations results ->
      let bad =
        List.concat_map
          (fun (name, v) ->
            match v with
            | Policy.Compliant -> []
            | Policy.Violations fs ->
                List.map (fun (f : Policy.finding) -> name ^ ": " ^ f.Policy.message) fs)
          results
      in
      "policy violations: " ^ String.concat "; " bad
  | Load_failed why -> "loading failed: " ^ why

let verdict_of_result = function
  | Ok (loaded : Loader.loaded) ->
      ( true,
        Printf.sprintf "policy-compliant; %d executable pages, %d relocations"
          (List.length loaded.Loader.exec_pages)
          loaded.Loader.relocations_applied )
  | Error r -> (false, rejection_to_string r)

type channel = [ `Legacy | `Streaming ]

type channel_stats = {
  records : int;
  record_bytes : int;
  in_flight_peak : int;
  epoch_updates : int;
  resumed : bool;
  fallback : bool;
}

type pipeline_event = Transfer_started | Prefix_validated | Policy_phase

type outcome = {
  result : (Loader.loaded, rejection) result;
  report : Report.t;
  policy_results : (string * Policy.verdict) list;
  measurement : string;
  enclave : Sgx.Enclave.t;
  host : Sgx.Host_os.t;
  client_verdict : (bool * string) option;
  attestation_failure : Channel.Client.failure option;
  negotiated_digest : string option;
  channel_stats : channel_stats option;
  ticket : (string * string) option;
}

(* The EnGarde bootstrap pages: deterministic content derived from the
   runtime version and the agreed policy module set, so loading a
   different policy configuration yields a different measurement — the
   property the client's attestation check rests on. *)
let bootstrap_content c =
  let drbg =
    Crypto.Drbg.create ~personalization:"engarde-bootstrap-v1"
      (String.concat "," c.policy_names)
  in
  List.init c.bootstrap_pages (fun _ -> Crypto.Drbg.generate drbg page)

let zero_page = String.make page '\x00'

(* The build plan both the host (for real) and the client (pure replay)
   walk: every measured page after the ECREATE record. *)
let make_plan c =
  let bootstrap =
    List.mapi
      (fun i content -> (bootstrap_base + (i * page), Sgx.Enclave.rx, content))
      (bootstrap_content c)
  in
  let heap =
    List.init c.heap_pages (fun i -> (staging_base c + (i * page), Sgx.Enclave.rw, zero_page))
  in
  (* The image region is committed too (SGX1 commits everything at
     build; the developer must predict maximum sizes — Section 4). *)
  let max_image = (enclave_base + enclave_size - image_region_base) / page in
  let image =
    List.init (min c.image_pages max_image)
      (fun i -> (image_region_base + (i * page), Sgx.Enclave.rw, zero_page))
  in
  Array.of_list (bootstrap @ heap @ image)

(* A process-wide memo under one lock. A miss builds its value under
   the lock, so a racing first pipeline waits for it rather than
   building a duplicate. With a [cap], the table empties itself when it
   holds [cap] values. *)
type ('k, 'v) memo = { table : ('k, 'v) Hashtbl.t; lock : Mutex.t; cap : int option }

let memo cap = { table = Hashtbl.create 4; lock = Mutex.create (); cap }

let memoized m key build =
  Mutex.protect m.lock (fun () ->
      match Hashtbl.find_opt m.table key with
      | Some v -> v
      | None ->
          (match m.cap with
          | Some cap when Hashtbl.length m.table >= cap -> Hashtbl.reset m.table
          | _ -> ());
          let v = build () in
          Hashtbl.replace m.table key v;
          v)

(* One plan per layout, shared by every pipeline in the process: it
   holds the bootstrap pages, so a job pays no DRBG, and its pages are
   physically the strings the page memo remembered, so each lookup
   matches without comparing bytes. Plans are immutable. Emptied when it
   holds [plan_cap] plans. *)
let plan_cap = 16
let plan_memo = memo (Some plan_cap)

let build_plan c =
  memoized plan_memo
    (c.policy_names, c.bootstrap_pages, c.heap_pages, c.image_pages)
    (fun () -> make_plan c)

(* The replay walks the plan through the measurement's page memo, so
   a process hashes each distinct page once and a warm replay costs a
   lookup per page. *)
let expected_measurement c =
  let m = Sgx.Measurement.start ~base:enclave_base ~size:enclave_size in
  Array.iter
    (fun (vaddr, perm, content) ->
      Sgx.Measurement.page m ~vaddr ~perms:(Sgx.Enclave.perm_to_string perm) ~content)
    (build_plan c);
  if c.policy_digest <> "" then
    Sgx.Measurement.measure_data m ~tag:"EGPOLICY" ~content:c.policy_digest;
  Sgx.Measurement.finalize m

(* The machine's quoting device, one per seed per process: real SGX has
   one quoting key and one sealing root per machine, provisioned once
   (PAPER.md §2), and the 1024-bit keygen costs more than a fast-config
   inspection. [run] reads only the device's quoting key and seal
   secret, never its monotonic counters, so pipelines on one seed can
   share it. Unlike a page memo miss, the key is generated under the
   lock. The table is never emptied. *)
let platform_memo = memo None

let platform c =
  let seed = c.seed ^ "/device" in
  memoized platform_memo seed (fun () -> Sgx.Quote.device_create ~seed)

(* The enclave's RSA keypair, one per (seed, measurement, modulus size)
   per process: its DRBG is seeded from [c.seed ^ measurement], so a
   layout always yields the same key, and keygen costs more than a
   warm fast-config inspection. [Bignum] writes only into arrays it has
   just allocated, never into its arguments, so pipelines in any domain
   can share a key. As with the platform memo, the key is generated
   under the lock. Emptied when it holds [plan_cap] keys. *)
let keypair_memo = memo (Some plan_cap)

let enclave_keypair c ~measurement =
  memoized keypair_memo (c.seed, measurement, c.rsa_bits) (fun () ->
      let drbg =
        Crypto.Drbg.create ~personalization:"engarde-enclave" (c.seed ^ measurement)
      in
      Crypto.Rsa.generate drbg ~bits:c.rsa_bits)

let keypairs_memoized () =
  Mutex.protect keypair_memo.lock (fun () -> Hashtbl.length keypair_memo.table)

let build_enclave c epc perf =
  let enclave = Sgx.Enclave.ecreate epc ~perf ~base:enclave_base ~size:enclave_size () in
  Array.iter
    (fun (vaddr, perm, content) -> Sgx.Enclave.eadd enclave ~vaddr ~perm ~content)
    (build_plan c);
  if c.policy_digest <> "" then
    Sgx.Enclave.measure_data enclave ~tag:"EGPOLICY" ~content:c.policy_digest;
  let measurement = Sgx.Enclave.einit enclave in
  (enclave, measurement)

exception Reject of rejection

let tampered why = raise (Reject (Transfer_tampered why))

let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

(* ------------------------------------------------------------------ *)
(* Resumption tickets                                                  *)
(* ------------------------------------------------------------------ *)

(* A ticket is sealed under a key only this inspector enclave can
   derive (its SGX sealing key), and binds exactly the trust decision
   the client made at full-handshake time: the enclave measurement and
   the negotiated policy-set digest, plus the ticket key epoch so the
   provider can revoke whole generations at once. SIV-style: the MAC
   over the plaintext doubles as the CTR nonce, so sealing is
   deterministic and needs no extra randomness. *)
module Ticket = struct
  let magic = "EGTKT1"
  let secret_len = 32
  let blob_len = String.length magic + 4 + (3 * 32) + 32

  let keys device ~measurement ~epoch =
    let key =
      Crypto.Hkdf.derive ~salt:magic
        ~ikm:(Sgx.Quote.seal_key device ~measurement)
        ~info:(Printf.sprintf "epoch%d" epoch)
        32
    in
    let prk = Crypto.Hkdf.extract ~salt:"seal" key in
    ( Crypto.Aes.expand (Crypto.Hkdf.expand ~prk ~info:"enc" 32),
      Crypto.Hkdf.expand ~prk ~info:"mac" 32 )

  let seal device ~measurement ~policy_digest ~epoch ~resumption =
    if String.length resumption <> secret_len then
      invalid_arg "Provision.Ticket.seal: resumption secret must be 32 bytes";
    let enc, mac = keys device ~measurement ~epoch in
    let pt = resumption ^ measurement ^ Crypto.Sha256.digest policy_digest in
    let tag = Crypto.Hmac.sha256 ~key:mac (u32 epoch ^ pt) in
    let ct = Crypto.Aes.ctr ~key:enc ~nonce:(String.sub tag 0 16) pt in
    magic ^ u32 epoch ^ ct ^ tag

  let read_u32 s pos =
    Char.code s.[pos]
    lor (Char.code s.[pos + 1] lsl 8)
    lor (Char.code s.[pos + 2] lsl 16)
    lor (Char.code s.[pos + 3] lsl 24)

  let unseal device ~measurement ~policy_digest ~epoch blob =
    let mlen = String.length magic in
    if String.length blob <> blob_len || String.sub blob 0 mlen <> magic then
      Error "unparseable ticket"
    else begin
      let sealed_epoch = read_u32 blob mlen in
      if sealed_epoch <> epoch then
        Error (Printf.sprintf "stale ticket epoch %d (current %d)" sealed_epoch epoch)
      else begin
        let ct = String.sub blob (mlen + 4) (3 * 32) in
        let tag = String.sub blob (mlen + 4 + (3 * 32)) 32 in
        let enc, mac = keys device ~measurement ~epoch in
        let pt = Crypto.Aes.ctr ~key:enc ~nonce:(String.sub tag 0 16) ct in
        if not (Crypto.Hmac.verify ~key:mac ~msg:(u32 sealed_epoch ^ pt) ~tag) then
          Error "ticket authentication failed"
        else if String.sub pt 32 32 <> measurement then Error "ticket measurement mismatch"
        else if String.sub pt 64 32 <> Crypto.Sha256.digest policy_digest then
          Error "ticket policy-set digest mismatch"
        else Ok (String.sub pt 0 32)
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Shared inspection stage                                             *)
(* ------------------------------------------------------------------ *)

(* A transfer staged in the enclave, as an ingest step hands it on. *)
type staged = {
  total_len : int;  (* the length and SHA-256 the client declared *)
  digest : string;
  received : int;  (* the extent of the bytes that actually landed in staging *)
  stats : channel_stats option;  (* record-channel counters *)
}

(* The front half of inspection: from the file's bytes to the context
   the policy modules judge. *)
let examine report file =
  let ( let* ) = Result.bind in
  (* --- header validation --- *)
  let* elf =
    Result.map_error
      (fun e -> Bad_elf (Elf64.Reader.error_to_string e))
      (Elf64.Reader.parse file)
  in
  let* () = if Elf64.Reader.function_symbols elf = [] then Error Stripped_binary else Ok () in
  let* () =
    Result.map_error
      (fun e -> Mixed_pages (Loader.error_to_string e))
      (Loader.check_page_separation elf)
  in
  (* --- disassembly --- *)
  let* text =
    match Elf64.Reader.text_sections elf with
    | [ t ] -> Ok t
    | [] -> Error (Bad_elf "no executable section")
    | _ -> Error (Bad_elf "multiple text sections unsupported")
  in
  (* The text bytes are copied once into an off-heap buffer; decoding,
     policy scans and function hashing all read it in place, so the
     multi-MB section never lives on the shared OCaml heap where
     parallel domains would pay GC tracing for it. *)
  let text_big = Elf64.Buf.Big.of_string text.Elf64.Reader.data in
  let* buffer, symbols =
    Result.map_error
      (fun v -> Disassembly_failed (X86.Nacl.violation_to_string v))
      (Disasm.run_src report.Report.disassembly ~src:(X86.Decoder.Big text_big)
         ~base:text.Elf64.Reader.addr ~symbols:elf.Elf64.Reader.symbols)
  in
  report.Report.instructions <- Array.length buffer.Disasm.entries;
  (* --- the shared analysis the policy modules read --- *)
  Ok
    ( elf,
      Policy.context ~analysis_perf:report.Report.analysis ~cfg_perf:report.Report.cfg
        ~callgraph_perf:report.Report.callgraph ~summary_perf:report.Report.summary
        ~perf:report.Report.policy buffer symbols )

(* Everything from "the whole file is staged" to "loaded or rejected".
   BOTH channels run exactly this code with exactly these charges.
   The declared length is checked against the staged extent before
   anything reads staging, so a forged trailer can neither size the
   read nor pass for a fault in the binary. *)
let inspect c ~report ~enclave ~host ~policies ~on_event
    { total_len; digest; received; _ } =
  if total_len <> received then tampered "missing blocks";
  let file = Sgx.Enclave.read enclave ~vaddr:(staging_base c) ~len:total_len in
  if Crypto.Sha256.digest file <> digest then
    tampered "payload digest mismatch";
  let elf, ctx = match examine report file with Ok r -> r | Error r -> raise (Reject r) in
  (* --- policy modules --- *)
  on_event Policy_phase;
  let policy_results = Policy.run_all ctx policies in
  if not (Policy.all_compliant policy_results) then
    ignore (raise (Reject (Policy_violations policy_results)));
  (* --- loading --- *)
  let loaded =
    match
      Loader.load report.Report.loading ~enclave ~host ~bias:image_region_base
        ~stack_pages:c.stack_pages elf
    with
    | Ok l -> l
    | Error e -> raise (Reject (Load_failed (Loader.error_to_string e)))
  in
  (loaded, policy_results)

(* ------------------------------------------------------------------ *)
(* The provisioning flow                                               *)
(* ------------------------------------------------------------------ *)

(* What establishing a session leaves for the rest of [run]. *)
type session = {
  resumed : bool;  (* the inspector unsealed the client's 0-RTT ticket *)
  fallback : bool;  (* a 0-RTT attempt was refused and a full handshake followed *)
  key : string Lazy.t;
      (* The secret the session hangs off. After a full handshake it is
         the RSA-unwrapped session key, and forcing it performs the
         enclave's first reads: the unwrap and the policy-offer check.
         After 0-RTT it is the 0-RTT traffic secret. *)
  stream : unit -> string * Channel.Wire.t Seq.t;
      (* the enclave's record-layer secret and the client's records *)
  client_resumption : string;  (* what the client stashes beside a ticket *)
  confirmed : Channel.Wire.t list -> bool;  (* the client's check that 0-RTT was accepted *)
}

let run ?tamper ?(policies = []) ?(programs = []) ?(channel = `Legacy) ?resume
    ?(ticket_epoch = 0) ?(on_event = fun (_ : pipeline_event) -> ()) c ~payload =
  let report = Report.create () in
  let epc = Sgx.Epc.create ~pages:c.epc_pages ~seed:(c.seed ^ "/epc") () in
  let host = Sgx.Host_os.create () in
  let device = platform c in
  let enclave, measurement = build_enclave c epc report.Report.provisioning in
  (* Enclave-side ephemeral keypair; its hash goes into the quote.
     Lazy: a successful 0-RTT resumption never asks for it — that is
     the latency the ticket buys. *)
  let keypair = lazy (enclave_keypair c ~measurement) in
  let client =
    Channel.Client.create ~programs
      ~device_pub:(Sgx.Quote.device_public device)
      ~expected_measurement:(expected_measurement c)
      ~seed:(c.seed ^ "/client") ~payload ()
  in
  let negotiated = ref None in
  let chan_stats = ref None in
  let issued = ref None in
  let client_ep, enclave_ep = Channel.Transport.pair ?tamper () in

  (* --- establish: a full handshake, or 0-RTT with its fallback --- *)

  (* The enclave's first reads after a full handshake: the session key,
     then — in an enclave measured with a policy-set digest — an offer
     hashing to exactly that digest, so the programs about to judge the
     code are the ones both parties agreed on and attested. *)
  let unwrap_key () =
    let key =
      match Channel.Transport.recv enclave_ep with
      | Some (Channel.Wire.Wrapped_key { wrapped }) -> (
          match Crypto.Rsa.decrypt (Lazy.force keypair) wrapped with
          | Some key when String.length key = 32 -> key
          | Some _ | None -> tampered "session key unwrap failed")
      | Some m -> tampered ("expected wrapped key, got " ^ Channel.Wire.describe m)
      | None -> tampered "no wrapped key"
    in
    if c.policy_digest <> "" then begin
      match Channel.Transport.recv enclave_ep with
      | Some (Channel.Wire.Policy_offer { programs }) ->
          let d = Channel.Session.policy_set_digest programs in
          if d <> c.policy_digest then
            tampered "offered policy set does not match the measured digest";
          negotiated := Some d;
          Channel.Transport.send enclave_ep (Channel.Wire.Policy_accept { digest = d })
      | Some m -> tampered ("expected policy offer, got " ^ Channel.Wire.describe m)
      | None -> tampered "no policy offer"
    end;
    key
  in
  let handshake ~fallback =
    let pub_bytes = Crypto.Rsa.pub_to_bytes (Lazy.force keypair).Crypto.Rsa.pub in
    let quote = Sgx.Quote.quote device ~enclave ~report_data:(Crypto.Sha256.digest pub_bytes) in
    Channel.Transport.send enclave_ep
      (Channel.Wire.Quote_response { quote = Sgx.Quote.to_bytes quote; enclave_pub = pub_bytes });
    match Option.map (Channel.Client.handle_quote client) (Channel.Transport.recv client_ep) with
    | None -> Error (Channel.Client.Protocol "no quote", "quote never arrived")
    | Some (Error failure) ->
        (* The client will not hand its code to an enclave it cannot
           authenticate. *)
        Error (failure, "client aborted after attestation")
    | Some (Ok wrapped_key) ->
        Channel.Transport.send client_ep wrapped_key;
        Option.iter (Channel.Transport.send client_ep) (Channel.Client.policy_offer client);
        Sgx.Enclave.eenter enclave;
        let key = lazy (unwrap_key ()) in
        Ok
          {
            resumed = false;
            fallback;
            key;
            stream =
              (fun () ->
                (Channel.Record.traffic_secret ~key:(Lazy.force key), Channel.Client.stream_seq client));
            client_resumption = Option.get (Channel.Client.resumption client);
            confirmed = (fun _ -> true);
          }
  in
  let establish () =
    match (channel, resume) with
    | `Streaming, Some (ticket, resumption) -> (
        (* 0-RTT: the client streams at once under keys derived from its
           stashed resumption secret; the inspector decides on the
           opener whether to ride along or fall back. *)
        Channel.Transport.send client_ep (Channel.Client.resume_opener client ~ticket);
        let unsealed =
          match Channel.Transport.recv enclave_ep with
          | Some (Channel.Wire.Resume { ticket; nonce }) ->
              Result.map
                (fun sealed -> (sealed, nonce))
                (Ticket.unseal device ~measurement ~policy_digest:c.policy_digest
                   ~epoch:ticket_epoch ticket)
          | _ -> Error "no resume opener"
        in
        match unsealed with
        | Ok (sealed, nonce) ->
            Sgx.Enclave.eenter enclave;
            Channel.Transport.send enclave_ep
              (Channel.Wire.Resume_accept { confirm = Channel.Record.confirm ~resumption:sealed ~nonce });
            if c.policy_digest <> "" then begin
              negotiated := Some c.policy_digest;
              Channel.Transport.send enclave_ep (Channel.Wire.Policy_accept { digest = c.policy_digest })
            end;
            let secret = Channel.Record.zero_rtt_secret ~resumption:sealed ~nonce in
            Ok
              {
                resumed = true;
                fallback = false;
                key = Lazy.from_val secret;
                stream = (fun () -> (secret, Channel.Client.zero_rtt_seq client ~resumption));
                client_resumption = Channel.Client.resumed_secret client ~resumption;
                confirmed = List.exists (Channel.Client.check_resume_accept client ~resumption);
              }
        | Error _ ->
            (* Stale or mismatched ticket: discard the 0-RTT data and fall
               back to the full handshake. The client notices the quote
               response in place of a Resume_accept and re-sends under
               freshly wrapped keys. *)
            Seq.iter (Channel.Transport.send client_ep) (Channel.Client.zero_rtt_seq client ~resumption);
            ignore (Channel.Transport.drain enclave_ep);
            handshake ~fallback:true)
    | _ ->
        Channel.Transport.send client_ep (Channel.Client.challenge client);
        ignore (Channel.Transport.recv enclave_ep);
        handshake ~fallback:false
  in

  (* --- ingest: the only step that knows the channel --- *)

  (* The paper's block channel (Figures 3-5): the client sends every
     block, then the enclave unwraps the session key and drains them
     into staging. Blocks carry their own offsets, so a gap shows only
     in the extent that landed, which [inspect] holds against the
     declared length. *)
  let ingest_blocks s =
    on_event Transfer_started;
    List.iter (Channel.Transport.send client_ep) (Channel.Client.code_messages client);
    let session = Channel.Session.create ~key:(Lazy.force s.key) in
    let fin = ref None and received = ref 0 in
    List.iter
      (function
        | Channel.Wire.Code_block { seq; offset; ciphertext; tag } -> (
            match Channel.Session.decrypt_block session ~seq ~offset ~ciphertext ~tag with
            | None -> tampered (Printf.sprintf "block %d failed authentication" seq)
            | Some plain ->
                Sgx.Enclave.write enclave ~vaddr:(staging_base c + offset) plain;
                received := max !received (offset + String.length plain))
        | Channel.Wire.Transfer_done { total_len; digest } -> fin := Some (total_len, digest)
        | _ -> ())
      (Channel.Transport.drain enclave_ep);
    match !fin with
    | None -> tampered "transfer never completed"
    | Some (total_len, digest) -> { total_len; digest; received = !received; stats = None }
  in
  (* The record channel: the enclave reads each record as the client
     produces it and stages its bytes at once, in order. The ELF magic
     is checked once, by the record that brings the stream to 16 bytes:
     later records only append, so the answer cannot change. Whatever
     the transport dropped shows up as a transfer that never completed
     or one shorter than its Fin declares. *)
  let ingest_records s =
    let secret, records = s.stream () in
    let reader = Channel.Record.reader ~secret in
    on_event Transfer_started;
    let fin = ref None and received = ref 0 in
    let count = ref 0 and bytes = ref 0 and in_flight_peak = ref 0 in
    let feed = function
      | Channel.Wire.Record { epoch; rn; ciphertext; tag } -> (
          incr count;
          bytes := !bytes + String.length ciphertext;
          match Channel.Record.read reader ~epoch ~rn ~ciphertext ~tag with
          | Channel.Record.Corrupt why -> tampered why
          | Channel.Record.(Skip | Recovered | Accept Key_update) -> ()
          | Channel.Record.Accept (Stream { offset; data }) ->
              if !fin <> None then tampered "stream record after fin";
              if offset <> !received then tampered "non-contiguous stream record";
              Sgx.Enclave.write enclave ~vaddr:(staging_base c + offset) data;
              received := offset + String.length data;
              if offset < 16 && !received >= 16
                 && Sgx.Enclave.read enclave ~vaddr:(staging_base c) ~len:5 = "\x7fELF\x02"
              then on_event Prefix_validated
          | Channel.Record.Accept (Fin { total_len; digest }) ->
              if !fin <> None then tampered "duplicate fin record";
              fin := Some (total_len, digest))
      | _ -> ()
    in
    Seq.iter
      (fun msg ->
        Channel.Transport.send client_ep msg;
        in_flight_peak := max !in_flight_peak (Channel.Transport.pending_bytes enclave_ep);
        List.iter feed (Channel.Transport.drain enclave_ep))
      records;
    match !fin with
    | None -> tampered "transfer never completed"
    | Some (total_len, digest) ->
        let stats =
          {
            records = !count;
            record_bytes = !bytes;
            in_flight_peak = !in_flight_peak;
            epoch_updates = Channel.Record.epoch_updates reader;
            resumed = s.resumed;
            fallback = s.fallback;
          }
        in
        { total_len; digest; received = !received; stats = Some stats }
  in
  let ingest = match channel with `Legacy -> ingest_blocks | `Streaming -> ingest_records in

  (* --- judge: every failure becomes the rejection the client reads --- *)
  let judge s =
    match
      let staged = ingest s in
      let judged = inspect c ~report ~enclave ~host ~policies ~on_event staged in
      chan_stats := staged.stats;
      judged
    with
    | loaded, policy_results -> (Ok loaded, policy_results)
    | exception Reject (Policy_violations results as r) -> (Error r, results)
    | exception Reject r -> (Error r, [])
    | exception Sgx.Enclave.Sgx_fault why -> (Error (Load_failed why), [])
  in

  (* --- respond: the verdict, then (after an accepted record-channel
     run) a ticket the client can resume with for as long as the
     measurement, the policy set and the ticket epoch still match --- *)
  let respond s result =
    Sgx.Enclave.eexit enclave;
    let accepted, detail = verdict_of_result result in
    Channel.Transport.send enclave_ep (Channel.Wire.Verdict { accepted; detail });
    if accepted && channel = `Streaming then begin
      let blob =
        Ticket.seal device ~measurement ~policy_digest:c.policy_digest ~epoch:ticket_epoch
          ~resumption:(Channel.Record.resumption_secret ~key:(Lazy.force s.key))
      in
      Channel.Transport.send enclave_ep (Channel.Wire.Ticket { blob });
      issued := Some (blob, s.client_resumption)
    end
  in

  (* --- client read-back: exactly one verdict besides negotiation
     echoes, tickets and resume-accepts, honoured only under the echo
     the client's offer expects (no offer: no accept; an offer: exactly
     one accept of its digest) and, after 0-RTT, under the inspector's
     confirmation --- *)
  let read_back s =
    let msgs = Channel.Transport.drain client_ep in
    let accepts =
      List.filter_map (function Channel.Wire.Policy_accept { digest } -> Some digest | _ -> None) msgs
    in
    let echo_ok =
      match (accepts, Channel.Client.offered_digest client) with
      | [], None -> true
      | [ d ], Some d' -> d = d'
      | _ -> false
    in
    let rest =
      List.filter
        (function
          | Channel.Wire.Policy_accept _ | Channel.Wire.Ticket _ | Channel.Wire.Resume_accept _ -> false
          | _ -> true)
        msgs
    in
    match rest with
    | [ v ] when echo_ok && s.confirmed msgs -> Result.to_option (Channel.Client.read_verdict v)
    | _ -> None
  in

  let result, policy_results, attestation_failure, client_verdict =
    match establish () with
    | Error (failure, why) -> (Error (Transfer_tampered why), [], Some failure, None)
    | Ok s ->
        let result, policy_results = judge s in
        respond s result;
        (result, policy_results, None, read_back s)
  in
  {
    result;
    report;
    policy_results;
    measurement;
    enclave;
    host;
    client_verdict;
    attestation_failure;
    negotiated_digest = !negotiated;
    channel_stats = !chan_stats;
    ticket = !issued;
  }

let findings outcome = Policy.findings outcome.policy_results
