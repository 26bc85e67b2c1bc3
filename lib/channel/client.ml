type t = {
  device_pub : Crypto.Rsa.public;
  expected_measurement : string;
  payload : string;
  programs : (string * string) list;
  session_key : string;
  challenge_bytes : string;
  mutable session : Session.t option;
}

type failure =
  | Bad_quote
  | Wrong_measurement of string
  | Bad_enclave_key
  | Protocol of string

let failure_to_string = function
  | Bad_quote -> "attestation quote does not verify under the device key"
  | Wrong_measurement hex -> "enclave measurement mismatch: " ^ hex
  | Bad_enclave_key -> "quote does not bind the enclave's public key"
  | Protocol why -> "protocol error: " ^ why

let create ?(programs = []) ~device_pub ~expected_measurement ~seed ~payload () =
  let drbg = Crypto.Drbg.create ~personalization:"engarde-client" seed in
  {
    device_pub;
    expected_measurement;
    payload;
    programs;
    session_key = Crypto.Drbg.generate drbg 32;
    challenge_bytes = Crypto.Drbg.generate drbg 16;
    session = None;
  }

let offered_digest t =
  if t.programs = [] then None else Some (Session.policy_set_digest t.programs)

let policy_offer t =
  if t.programs = [] then None else Some (Wire.Policy_offer { programs = t.programs })

let challenge t = Wire.Client_hello { challenge = t.challenge_bytes }

let handle_quote t = function
  | Wire.Quote_response { quote; enclave_pub } -> begin
      match Sgx.Quote.of_bytes quote with
      | None -> Error (Protocol "unparseable quote")
      | Some q ->
          if not (Sgx.Quote.verify t.device_pub q) then Error Bad_quote
          else if q.Sgx.Quote.measurement <> t.expected_measurement then
            Error (Wrong_measurement (Crypto.Sha256.hex q.Sgx.Quote.measurement))
          else if q.Sgx.Quote.report_data <> Crypto.Sha256.digest enclave_pub then
            (* The binding of key to enclave is rooted in the quote. *)
            Error Bad_enclave_key
          else begin
            match Crypto.Rsa.pub_of_bytes enclave_pub with
            | None -> Error (Protocol "unparseable enclave public key")
            | Some pub ->
                t.session <- Some (Session.create ~key:t.session_key);
                Ok (Wire.Wrapped_key { wrapped = Crypto.Rsa.encrypt pub t.session_key })
          end
    end
  | other -> Error (Protocol ("expected quote-response, got " ^ Wire.describe other))

let code_messages t =
  match t.session with
  | None -> invalid_arg "Client.code_messages before handle_quote"
  | Some session -> Session.payload_messages session t.payload

let read_verdict = function
  | Wire.Verdict { accepted; detail } -> Ok (accepted, detail)
  | other -> Error (Protocol ("expected verdict, got " ^ Wire.describe other))

(* --- streaming transfers -------------------------------------------- *)

(* Cold path: record-layer traffic keys hang off the session key the
   handshake just wrapped, so streaming requires the same attestation
   the legacy blocks did. *)
let stream_seq t =
  if t.session = None then invalid_arg "Client.stream_seq before handle_quote";
  let w = Record.writer ~secret:(Record.traffic_secret ~key:t.session_key) in
  Record.payload_record_seq w t.payload

(* What the client stashes alongside the opaque ticket blob: the
   resumption secret it can later prove possession of. *)
let resumption t = if t.session = None then None else Some (Record.resumption_secret ~key:t.session_key)

(* --- 0-RTT resumption ----------------------------------------------- *)

let resume_opener t ~ticket = Wire.Resume { ticket; nonce = t.challenge_bytes }

let zero_rtt_seq t ~resumption =
  let secret = Record.zero_rtt_secret ~resumption ~nonce:t.challenge_bytes in
  let w = Record.writer ~secret in
  Record.payload_record_seq w t.payload

let check_resume_accept t ~resumption = function
  | Wire.Resume_accept { confirm } ->
      Record.check_confirm ~resumption ~nonce:t.challenge_bytes ~tag:confirm
  | _ -> false

(* After a successful 0-RTT run both ends hold the 0-RTT traffic
   secret; the next ticket's resumption secret ratchets from it. *)
let resumed_secret t ~resumption =
  Record.resumption_secret ~key:(Record.zero_rtt_secret ~resumption ~nonce:t.challenge_bytes)
