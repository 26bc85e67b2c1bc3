type loaded =
  | Cold
  | Warm of { counter : int; rolled_forward : bool; log_leaves : int; cache_entries : int }

let counter_path path = path ^ ".ctr"

let read_opt path =
  if Sys.file_exists path then Some (In_channel.with_open_bin path In_channel.input_all) else None

let load t ~device path =
  let id = Scheduler.state_counter_id t in
  Option.iter
    (Sgx.Quote.counter_restore device ~id)
    (Option.bind (read_opt (counter_path path)) (fun s -> int_of_string_opt (String.trim s)));
  match read_opt path with
  | None -> Ok Cold
  | Some blob ->
      let measurement = Scheduler.measurement t in
      let key = Sgx.Quote.seal_key device ~measurement in
      (* A blob ahead of its sidecar is the newest state: the last save
         was cut after the blob reached the disk and before its counter
         did. Only a blob this enclave sealed at that very counter moves
         the counter; a forged claim fails authentication here and then
         [Stale] below. *)
      let rolled_forward =
        match Audit.Seal.sealed_counter blob with
        | Some sealed
          when sealed > Sgx.Quote.counter_read device ~id
               && Result.is_ok (Audit.Seal.unseal ~key ~measurement ~counter:sealed blob) ->
            Sgx.Quote.counter_restore device ~id sealed;
            true
        | _ -> false
      in
      Result.map
        (fun (log_leaves, cache_entries) ->
          let counter = Sgx.Quote.counter_read device ~id in
          Warm { counter; rolled_forward; log_leaves; cache_entries })
        (Scheduler.load_state t ~device blob)

let writes t ~device path =
  let blob = Scheduler.save_state t ~device in
  let counter = Sgx.Quote.counter_read device ~id:(Scheduler.state_counter_id t) in
  (* The blob first: a cut between the two leaves it ahead of the
     sidecar, which [load] recovers from; the other order would leave a
     sidecar ahead of its blob, which is indistinguishable from a
     rollback. *)
  [ (path, blob); (counter_path path, string_of_int counter) ]

let write_atomic path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.write_substring fd data 0 (String.length data));
      Unix.fsync fd);
  Unix.rename tmp path;
  let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close dir) (fun () -> Unix.fsync dir)

let save t ~device path =
  List.iter (fun (file, data) -> write_atomic file data) (writes t ~device path)
