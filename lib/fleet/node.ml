module Wire = Channel.Wire
module Mux = Channel.Session.Mux
module Scheduler = Service.Scheduler
module Metrics = Service.Metrics

type evidence = {
  peer : int;
  quote : Sgx.Quote.t;
  checkpoint : Audit.Log.checkpoint;
  index : int;
  proof : string list;
}

type peer_state = {
  mutable connected : bool;
  mutable sent_nonce : string option;  (* outstanding handshake challenge *)
  mutable is_attested : bool;
  mutable is_quarantined : bool;
  mutable last_ckpt_size : int;  (* gossip monotonicity floor *)
}

type t = {
  manifest : Manifest.t;
  node_id : int;
  device : Sgx.Quote.device;
  peer_publics : Crypto.Rsa.public array;
  identity : string;
  sched : Scheduler.t;
  mux : Mux.mux;
  peers : (int, peer_state) Hashtbl.t;
  seen_hellos : (int * string, unit) Hashtbl.t;  (* replay filter *)
  (* Verdicts this node answered itself (hence logged): the only ones
     it may push, since only they have inclusion proofs in its log. *)
  verdicts : (string, Service.Cache.verdict) Hashtbl.t;
  leaf_index : (string, int) Hashtbl.t;  (* key -> first leaf index *)
  mutable scanned : int;  (* log prefix already indexed *)
  imported : (string, evidence) Hashtbl.t;
  mutable cross : int;
  mutable rejects : (int * Metrics.fleet_reject) list;
  nonce_seed : string;
  mutable nonce_counter : int;
}

let u64le v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let create ~manifest ~id ~device ~peer_publics ~nonce_seed (cfg : Scheduler.config) =
  if not cfg.Scheduler.audit then
    invalid_arg "Fleet.Node.create: audit must be enabled (verdict exchange needs the log)";
  if Array.length peer_publics <> Manifest.members manifest then
    invalid_arg "Fleet.Node.create: one pinned device key per fleet member";
  if id < 0 || id >= Manifest.members manifest then invalid_arg "Fleet.Node.create: bad id";
  {
    manifest;
    node_id = id;
    device;
    peer_publics;
    identity = Manifest.identity manifest id;
    sched = Scheduler.create cfg;
    mux = Mux.create ();
    peers = Hashtbl.create 8;
    seen_hellos = Hashtbl.create 16;
    verdicts = Hashtbl.create 64;
    leaf_index = Hashtbl.create 64;
    scanned = 0;
    imported = Hashtbl.create 16;
    cross = 0;
    rejects = [];
    nonce_seed;
    nonce_counter = 0;
  }

let scheduler t = t.sched
let mux t = t.mux

let get_peer t peer =
  match Hashtbl.find_opt t.peers peer with
  | Some ps -> ps
  | None ->
      let ps =
        {
          connected = false;
          sent_nonce = None;
          is_attested = false;
          is_quarantined = false;
          last_ckpt_size = 0;
        }
      in
      Hashtbl.replace t.peers peer ps;
      ps

let conn_id peer = "peer-" ^ string_of_int peer

let peer_of_conn conn =
  let prefix = "peer-" in
  let plen = String.length prefix in
  if String.length conn > plen && String.sub conn 0 plen = prefix then
    int_of_string_opt (String.sub conn plen (String.length conn - plen))
  else None

let send t peer msg =
  let ps = get_peer t peer in
  if ps.connected then Mux.reply t.mux ~id:(conn_id peer) msg

let connect a b =
  let ea, eb = Channel.Transport.pair () in
  (* Peer links carry quote-authenticated plaintext; the session key is
     only the mux attachment requirement, derived deterministically so
     both ends agree. *)
  let key =
    Crypto.Sha256.digest
      (Printf.sprintf "EGFLEET-LINK\x00%d/%d" (min a.node_id b.node_id)
         (max a.node_id b.node_id))
  in
  Mux.attach a.mux ~id:(conn_id b.node_id) ~key ea;
  Mux.attach b.mux ~id:(conn_id a.node_id) ~key eb;
  (get_peer a b.node_id).connected <- true;
  (get_peer b a.node_id).connected <- true

let fresh_nonce t =
  t.nonce_counter <- t.nonce_counter + 1;
  Crypto.Sha256.digest ("EGFLEET-NONCE\x00" ^ t.nonce_seed ^ u64le t.nonce_counter)

let begin_handshake t =
  Hashtbl.iter
    (fun peer ps ->
      if ps.connected && not ps.is_quarantined then begin
        let nonce = fresh_nonce t in
        ps.sent_nonce <- Some nonce;
        send t peer (Wire.Peer_hello { node = t.node_id; nonce })
      end)
    t.peers

let attested t peer =
  match Hashtbl.find_opt t.peers peer with
  | Some ps -> ps.is_attested && not ps.is_quarantined
  | None -> false

let quarantine_peer t peer =
  let ps = get_peer t peer in
  ps.is_quarantined <- true;
  ps.is_attested <- false

let quarantined t peer =
  match Hashtbl.find_opt t.peers peer with Some ps -> ps.is_quarantined | None -> false

let reject t peer reason =
  Metrics.fleet_rejected (Scheduler.metrics t.sched) reason;
  t.rejects <- (peer, reason) :: t.rejects

let rejections t = t.rejects
let peer_public t peer = t.peer_publics.(peer)
let provenance t key = Hashtbl.find_opt t.imported key
let imported_count t = Hashtbl.length t.imported
let cross_hits t = t.cross

let push_for t ~key =
  match
    ( Hashtbl.find_opt t.verdicts key,
      Hashtbl.find_opt t.leaf_index key,
      Scheduler.audit_log t.sched )
  with
  | Some v, Some index, Some log ->
      let findings_digest = Service.Cache.findings_digest v.Service.Cache.findings in
      let quote =
        Sgx.Quote.quote_measured t.device ~measurement:t.identity
          ~report_data:(Manifest.verdict_binding ~key ~findings_digest)
      in
      let ckpt = Audit.Log.checkpoint log ~device:t.device ~measurement:t.identity in
      Metrics.audit_checkpointed (Scheduler.metrics t.sched);
      let proof = Audit.Log.prove_inclusion log ~index ~size:ckpt.Audit.Log.ckpt_size in
      Some
        (Wire.Verdict_push
           {
             node = t.node_id;
             key;
             verdict = Service.Cache.encode_verdict v;
             quote = Sgx.Quote.to_bytes quote;
             checkpoint = Audit.Log.checkpoint_to_bytes ckpt;
             index;
             proof;
           })
  | _ -> None

(* The receive-side trust rule for a pushed verdict. Checks are ordered
   so the cheapest guards run first and every failure is distinct:
   quarantine state, decode, verdict quote (signature / identity /
   binding), then checkpoint + inclusion proof. *)
let handle_push t ~peer ~key ~verdict ~quote ~checkpoint ~index ~proof =
  let ps = get_peer t peer in
  if ps.is_quarantined || not ps.is_attested then reject t peer Metrics.Quarantined
  else
    match
      ( Sgx.Quote.of_bytes quote,
        Service.Cache.decode_verdict verdict,
        Audit.Log.checkpoint_of_bytes checkpoint )
    with
    | None, _, _ | _, None, _ | _, _, None -> reject t peer Metrics.Malformed
    | Some q, Some v, Some ckpt -> (
        let expected = Manifest.derive_peer t.manifest ~peer in
        let findings_digest = Service.Cache.findings_digest v.Service.Cache.findings in
        match
          Sgx.Mage.check_quote t.peer_publics.(peer) ~identity:expected
            ~report_data:(Manifest.verdict_binding ~key ~findings_digest)
            q
        with
        | Error (Sgx.Mage.Bad_signature | Sgx.Mage.Wrong_identity) ->
            reject t peer Metrics.Quote;
            quarantine_peer t peer
        | Error Sgx.Mage.Wrong_binding -> reject t peer Metrics.Binding
        | Ok () -> (
            let leaf = Service.Cache.audit_leaf ~key v in
            match
              Audit.Log.verify_remote_leaf t.peer_publics.(peer) ~identity:expected ckpt
                ~index ~leaf ~proof
            with
            | Error (Audit.Log.Quote_invalid | Audit.Log.Alien_enclave) ->
                reject t peer Metrics.Quote;
                quarantine_peer t peer
            | Error Audit.Log.Binding_mismatch -> reject t peer Metrics.Binding
            | Error
                (Audit.Log.Out_of_range | Audit.Log.Proof_invalid | Audit.Log.Inconsistent)
              ->
                reject t peer Metrics.Proof
            | Ok () -> (
                match Scheduler.verdict_cache t.sched with
                | None -> ()
                | Some cache ->
                    Service.Cache.add cache key v;
                    Hashtbl.replace t.imported key
                      { peer; quote = q; checkpoint = ckpt; index; proof };
                    Metrics.fleet_imported (Scheduler.metrics t.sched))))

let handle_peer t ~peer (msg : Wire.t) =
  match msg with
  | Wire.Peer_hello { node; nonce } ->
      let ps = get_peer t peer in
      if node <> peer then reject t peer Metrics.Malformed
      else if ps.is_quarantined then reject t peer Metrics.Quarantined
      else if Hashtbl.mem t.seen_hellos (peer, nonce) then reject t peer Metrics.Replay
      else begin
        Hashtbl.replace t.seen_hellos (peer, nonce) ();
        let q =
          Sgx.Quote.quote_measured t.device ~measurement:t.identity
            ~report_data:(Manifest.hello_binding ~node:t.node_id ~nonce)
        in
        send t peer (Wire.Peer_quote { node = t.node_id; echo = nonce; quote = Sgx.Quote.to_bytes q })
      end
  | Wire.Peer_quote { node; echo; quote } -> (
      let ps = get_peer t peer in
      if node <> peer then reject t peer Metrics.Malformed
      else if ps.is_quarantined then reject t peer Metrics.Quarantined
      else
        match ps.sent_nonce with
        | Some n when String.equal n echo -> (
            match Sgx.Quote.of_bytes quote with
            | None -> reject t peer Metrics.Malformed
            | Some q -> (
                let expected = Manifest.derive_peer t.manifest ~peer in
                match
                  Sgx.Mage.check_quote t.peer_publics.(peer) ~identity:expected
                    ~report_data:(Manifest.hello_binding ~node:peer ~nonce:echo)
                    q
                with
                | Ok () ->
                    ps.sent_nonce <- None;
                    ps.is_attested <- true
                | Error (Sgx.Mage.Bad_signature | Sgx.Mage.Wrong_identity) ->
                    reject t peer Metrics.Quote;
                    quarantine_peer t peer
                | Error Sgx.Mage.Wrong_binding -> reject t peer Metrics.Binding))
        | _ ->
            (* An echo we never challenged with (or already consumed):
               a replayed or unsolicited handshake response. *)
            reject t peer Metrics.Replay)
  | Wire.Verdict_push { node; key; verdict; quote; checkpoint; index; proof } ->
      if node <> peer then reject t peer Metrics.Malformed
      else handle_push t ~peer ~key ~verdict ~quote ~checkpoint ~index ~proof
  | Wire.Verdict_pull { node; key } -> (
      let ps = get_peer t peer in
      if node <> peer then reject t peer Metrics.Malformed
      else if ps.is_quarantined || not ps.is_attested then reject t peer Metrics.Quarantined
      else
        match push_for t ~key with
        | Some msg ->
            send t peer msg;
            Metrics.fleet_pushed (Scheduler.metrics t.sched)
        | None -> ())
  | Wire.Checkpoint_gossip { node; checkpoint } -> (
      let ps = get_peer t peer in
      if node <> peer then reject t peer Metrics.Malformed
      else if ps.is_quarantined || not ps.is_attested then reject t peer Metrics.Quarantined
      else
        match Audit.Log.checkpoint_of_bytes checkpoint with
        | None -> reject t peer Metrics.Malformed
        | Some ckpt -> (
            let expected = Manifest.derive_peer t.manifest ~peer in
            if not (String.equal ckpt.Audit.Log.quote.Sgx.Quote.measurement expected) then begin
              reject t peer Metrics.Quote;
              quarantine_peer t peer
            end
            else
              match Audit.Log.verify_checkpoint t.peer_publics.(peer) ckpt with
              | Error Audit.Log.Quote_invalid ->
                  reject t peer Metrics.Quote;
                  quarantine_peer t peer
              | Error _ -> reject t peer Metrics.Binding
              | Ok () ->
                  (* A peer's log may only grow between gossips. *)
                  if ckpt.Audit.Log.ckpt_size < ps.last_ckpt_size then
                    reject t peer Metrics.Proof
                  else ps.last_ckpt_size <- ckpt.Audit.Log.ckpt_size))
  | _ ->
      (* Client-protocol traffic has no business on a peer link. *)
      reject t peer Metrics.Malformed

let request_pull t ~peer ~key = send t peer (Wire.Verdict_pull { node = t.node_id; key })

(* Index new log leaves (first occurrence wins: the inclusion proof a
   push carries refers to the earliest leaf for that key). *)
let scan_leaves t =
  match Scheduler.audit_log t.sched with
  | None -> false
  | Some log ->
      let size = Audit.Log.size log in
      let grew = size > t.scanned in
      for i = t.scanned to size - 1 do
        match Audit.Log.leaf log i with
        | Some leaf ->
            if not (Hashtbl.mem t.leaf_index leaf.Audit.Log.key) then
              Hashtbl.replace t.leaf_index leaf.Audit.Log.key i
        | None -> ()
      done;
      t.scanned <- size;
      grew

let iter_attested t f =
  Hashtbl.iter
    (fun peer ps -> if ps.connected && ps.is_attested && not ps.is_quarantined then f peer)
    t.peers

let broadcast_push t key =
  match push_for t ~key with
  | None -> ()
  | Some msg ->
      iter_attested t (fun peer ->
          send t peer msg;
          Metrics.fleet_pushed (Scheduler.metrics t.sched))

let gossip t =
  match Scheduler.audit_log t.sched with
  | None -> ()
  | Some log ->
      let ckpt = Audit.Log.checkpoint log ~device:t.device ~measurement:t.identity in
      Metrics.audit_checkpointed (Scheduler.metrics t.sched);
      let msg =
        Wire.Checkpoint_gossip
          { node = t.node_id; checkpoint = Audit.Log.checkpoint_to_bytes ckpt }
      in
      iter_attested t (fun peer -> send t peer msg)

let pump t =
  let events = Mux.poll t.mux in
  List.iter
    (function
      | Mux.Peer { conn; msg } -> (
          match peer_of_conn conn with
          | Some peer -> handle_peer t ~peer msg
          | None -> ())
      | Mux.Payload _ | Mux.Corrupt _ ->
          (* Peer links carry no client payload transfers. *)
          ())
    events;
  Scheduler.tick t.sched;
  let comps = Scheduler.drain_completions t.sched in
  let grew = scan_leaves t in
  List.iter
    (fun (c : Scheduler.completion) ->
      match c.Scheduler.verdict with
      | Ok v ->
          let key = Scheduler.job_key t.sched c.Scheduler.job in
          Hashtbl.replace t.verdicts key v;
          if c.Scheduler.cache_hit && Hashtbl.mem t.imported key then t.cross <- t.cross + 1;
          (* Fresh computations fan out; hits were either imported
             (the fleet already has them) or pushed when first run. *)
          if not c.Scheduler.cache_hit then broadcast_push t key
      | Error _ -> ())
    comps;
  if grew then gossip t;
  comps
