type t = {
  members : int;
  service_measurement : string;
  aux : string;
  snapshots : string array;
  identities : string array;
}

let u32le v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
let u64le v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

(* A node's build log up to (but not including) the common aux record:
   the shared judging-service measurement, then the node's own index.
   Everything before the snapshot is per-node public knowledge, so any
   party can recompute these snapshots — what MAGE adds is that the
   *final* identities need nothing beyond the aux record. *)
let pre_aux ~service_measurement ~node =
  let m = Sgx.Measurement.start ~base:0 ~size:0 in
  Sgx.Measurement.measure_data m ~tag:"EGFLEET1" ~content:service_measurement;
  Sgx.Measurement.measure_data m ~tag:"EGNODE1\x00" ~content:(u64le node);
  Sgx.Measurement.snapshot m

let build ~nodes ~service_measurement =
  if nodes <= 0 then invalid_arg "Fleet.Manifest.build: nodes must be positive";
  if String.length service_measurement <> 32 then
    invalid_arg "Fleet.Manifest.build: service_measurement must be 32 bytes";
  let snapshots = Array.init nodes (fun node -> pre_aux ~service_measurement ~node) in
  let aux = Sgx.Mage.aux_of_snapshots (Array.to_list snapshots) in
  let identities =
    Array.map
      (fun snapshot ->
        match Sgx.Mage.derive ~snapshot ~aux with
        | Some id -> id
        | None -> invalid_arg "Fleet.Manifest.build: snapshot does not resume")
      snapshots
  in
  { members = nodes; service_measurement; aux; snapshots; identities }

let members t = t.members
let aux t = t.aux

let pre_aux_snapshot t i =
  if i < 0 || i >= t.members then invalid_arg "Fleet.Manifest.pre_aux_snapshot: bad index";
  t.snapshots.(i)

let identity t i =
  if i < 0 || i >= t.members then invalid_arg "Fleet.Manifest.identity: bad index";
  t.identities.(i)

let derive_peer t ~peer =
  match Sgx.Mage.snapshots_of_aux t.aux with
  | None -> invalid_arg "Fleet.Manifest.derive_peer: malformed aux record"
  | Some snaps -> (
      if peer < 0 || peer >= List.length snaps then
        invalid_arg "Fleet.Manifest.derive_peer: bad index";
      match Sgx.Mage.derive ~snapshot:(List.nth snaps peer) ~aux:t.aux with
      | Some id -> id
      | None -> invalid_arg "Fleet.Manifest.derive_peer: snapshot does not resume")

let hello_binding ~node ~nonce =
  Crypto.Sha256.digest ("EGFLEET-HELLO\x00" ^ u32le node ^ nonce)

let verdict_binding ~key ~findings_digest =
  Crypto.Sha256.digest ("EGFLEET-VERDICT\x00" ^ key ^ findings_digest)
