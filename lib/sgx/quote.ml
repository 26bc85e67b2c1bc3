type device = {
  keypair : Crypto.Rsa.keypair;
  seal_secret : string; (* fused per-device sealing root (EGETKEY input) *)
  counters : (string, int) Hashtbl.t; (* monotonic-counter NVRAM *)
}

(* 1024-bit device key: the quoting enclave signs one digest per
   attestation, so keygen cost dominates. Every call generates it
   afresh; device provisioning happens once per machine, so a host
   keeps the device it creates (Provision.run memoizes one per seed). *)
let device_create ~seed =
  let drbg = Crypto.Drbg.create ~personalization:"sgx-device-key" seed in
  let seal_drbg = Crypto.Drbg.create ~personalization:"sgx-seal-secret" seed in
  {
    keypair = Crypto.Rsa.generate drbg ~bits:1024;
    seal_secret = Crypto.Drbg.generate seal_drbg 32;
    counters = Hashtbl.create 4;
  }

let device_public d = d.keypair.Crypto.Rsa.pub

let seal_key d ~measurement =
  if String.length measurement <> 32 then
    invalid_arg "Quote.seal_key: measurement must be 32 bytes";
  Crypto.Hmac.sha256 ~key:d.seal_secret ("egetkey-mrenclave\x00" ^ measurement)

let counter_read d ~id = Option.value ~default:0 (Hashtbl.find_opt d.counters id)

let counter_increment d ~id =
  let v = counter_read d ~id + 1 in
  Hashtbl.replace d.counters id v;
  v

let counter_restore d ~id v =
  if v > counter_read d ~id then Hashtbl.replace d.counters id v

type t = {
  measurement : string;
  report_data : string;
  signature : string;
}

let signed_payload ~measurement ~report_data = "SGX-QUOTE\x00" ^ measurement ^ report_data

let quote_measured device ~measurement ~report_data =
  if String.length measurement <> 32 then
    invalid_arg "Quote.quote_measured: measurement must be 32 bytes";
  if String.length report_data <> 32 then
    invalid_arg "Quote.quote_measured: report_data must be 32 bytes";
  let signature =
    Crypto.Rsa.sign device.keypair (signed_payload ~measurement ~report_data)
  in
  { measurement; report_data; signature }

let quote device ~enclave ~report_data =
  if String.length report_data <> 32 then
    invalid_arg "Quote.quote: report_data must be 32 bytes";
  (* EREPORT runs inside the target enclave to extract the measurement. *)
  Perf.count_sgx (Enclave.perf enclave) 1;
  quote_measured device ~measurement:(Enclave.measurement enclave) ~report_data

let verify pub t =
  String.length t.measurement = 32
  && String.length t.report_data = 32
  && Crypto.Rsa.verify pub
       ~msg:(signed_payload ~measurement:t.measurement ~report_data:t.report_data)
       ~signature:t.signature

let u16_be n = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xff))

let to_bytes t = t.measurement ^ t.report_data ^ u16_be (String.length t.signature) ^ t.signature

let of_bytes s =
  if String.length s < 66 then None
  else begin
    let measurement = String.sub s 0 32 in
    let report_data = String.sub s 32 32 in
    let siglen = (Char.code s.[64] lsl 8) lor Char.code s.[65] in
    if String.length s <> 66 + siglen then None
    else Some { measurement; report_data; signature = String.sub s 66 siglen }
  end
