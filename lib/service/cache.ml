type verdict = {
  accepted : bool;
  detail : string;
  measurement : string;
  programs_digest : string;
  instructions : int;
  disassembly_cycles : int;
  policy_cycles : int;
  loading_cycles : int;
  findings : Engarde.Policy.finding list;
}

(* Tab/line-structured wire form. Every free-text field goes through
   [String.escaped], so no raw tab or newline survives inside a field. *)
let add_findings b findings =
  List.iter
    (fun (f : Engarde.Policy.finding) ->
      Printf.bprintf b "%s\t%d\t%s\t%s\n" (String.escaped f.Engarde.Policy.policy)
        f.Engarde.Policy.addr (String.escaped f.Engarde.Policy.code)
        (String.escaped f.Engarde.Policy.message))
    findings

let encode_findings findings =
  let b = Buffer.create 128 in
  add_findings b findings;
  Buffer.contents b

let findings_digest findings = Crypto.Sha256.digest (encode_findings findings)

let audit_leaf ~key v =
  {
    Audit.Log.key;
    accepted = v.accepted;
    findings_digest = findings_digest v.findings;
    measurement = v.measurement;
    programs_digest = v.programs_digest;
    instructions = v.instructions;
    disassembly_cycles = v.disassembly_cycles;
    policy_cycles = v.policy_cycles;
    loading_cycles = v.loading_cycles;
  }

let encode_verdict v =
  let b = Buffer.create 256 in
  Printf.bprintf b "%c\t%d\t%d\t%d\t%d\n"
    (if v.accepted then '1' else '0')
    v.instructions v.disassembly_cycles v.policy_cycles v.loading_cycles;
  Printf.bprintf b "%s\n" (String.escaped v.detail);
  Printf.bprintf b "%s\n" (String.escaped v.measurement);
  Printf.bprintf b "%s\n" (String.escaped v.programs_digest);
  add_findings b v.findings;
  Buffer.contents b

let decode_verdict s =
  let unescape x = try Some (Scanf.unescaped x) with Scanf.Scan_failure _ | Failure _ -> None in
  let ( let* ) = Option.bind in
  match String.split_on_char '\n' s with
  | header :: detail :: measurement :: programs :: rest -> begin
      match String.split_on_char '\t' header with
      | [ acc; insns; dis; pol; load ] ->
          let* accepted =
            match acc with "1" -> Some true | "0" -> Some false | _ -> None
          in
          let* instructions = int_of_string_opt insns in
          let* disassembly_cycles = int_of_string_opt dis in
          let* policy_cycles = int_of_string_opt pol in
          let* loading_cycles = int_of_string_opt load in
          let* detail = unescape detail in
          let* measurement = unescape measurement in
          let* programs_digest = unescape programs in
          let* findings =
            List.fold_left
              (fun acc line ->
                let* acc = acc in
                if line = "" then Some acc
                else
                  match String.split_on_char '\t' line with
                  | [ policy; addr; code; message ] ->
                      let* policy = unescape policy in
                      let* addr = int_of_string_opt addr in
                      let* code = unescape code in
                      let* message = unescape message in
                      Some (Engarde.Policy.finding ~policy ~addr ~code message :: acc)
                  | _ -> None)
              (Some []) rest
          in
          Some
            {
              accepted;
              detail;
              measurement;
              programs_digest;
              instructions;
              disassembly_cycles;
              policy_cycles;
              loading_cycles;
              findings = List.rev findings;
            }
      | _ -> None
    end
  | _ -> None

type stats = { hits : int; misses : int; evictions : int; size : int; capacity : int }

let key ~payload ~policy_names ~libc_db_version ~programs_digest =
  let payload_digest = Crypto.Sha256.digest payload in
  let fingerprint =
    Crypto.Sha256.digest (String.concat "," (List.sort_uniq compare policy_names))
  in
  (* The program digest and the DSL format version both go in: a
     renegotiated program set, or the same set under an incompatible
     VM revision, can never be served a verdict computed under the
     old semantics. *)
  Crypto.Sha256.digest
    (payload_digest ^ "\x00" ^ fingerprint ^ "\x00" ^ libc_db_version
   ^ "\x00" ^ Policyvm.Encode.format_tag ^ "\x00" ^ programs_digest)

(* Doubly-linked LRU list threaded through the hash table's nodes:
   head = most recently used, tail = next eviction victim. *)
type node = {
  nkey : string;
  mutable value : verdict;
  mutable prev : node option;  (* towards head *)
  mutable next : node option;  (* towards tail *)
}

type t = {
  lock : Mutex.t;
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Service.Cache.create: capacity must be positive";
  {
    lock = Mutex.create ();
    capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  unlink t n;
  push_front t n

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some n ->
          t.hits <- t.hits + 1;
          touch t n;
          Some n.value
      | None ->
          t.misses <- t.misses + 1;
          None)

let mem t k = locked t (fun () -> Hashtbl.mem t.table k)

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some victim ->
      unlink t victim;
      Hashtbl.remove t.table victim.nkey;
      t.evictions <- t.evictions + 1

let add t k v =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some n ->
          n.value <- v;
          touch t n
      | None ->
          if Hashtbl.length t.table >= t.capacity then evict_lru t;
          let n = { nkey = k; value = v; prev = None; next = None } in
          Hashtbl.replace t.table k n;
          push_front t n)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Hashtbl.length t.table;
        capacity = t.capacity;
      })

(* --- persistence (warm restart) ----------------------------------- *)

(* v2: verdicts carry the negotiated program digest. A v1 blob from an
   earlier release is rejected at import rather than silently reused
   under the new keying. *)
let export_magic = "EGCACHE2"
let stale_magic = "EGCACHE1"
let u32_be n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let export t =
  let b = Buffer.create 1024 in
  Buffer.add_string b export_magic;
  locked t (fun () ->
      Buffer.add_string b (u32_be (Hashtbl.length t.table));
      (* Tail (LRU) first: replaying [add] in this order reproduces the
         recency order exactly, and a smaller-capacity importer keeps
         the most recently used entries. *)
      let rec walk = function
        | None -> ()
        | Some n ->
            let v = encode_verdict n.value in
            Buffer.add_string b (u32_be (String.length n.nkey));
            Buffer.add_string b n.nkey;
            Buffer.add_string b (u32_be (String.length v));
            Buffer.add_string b v;
            walk n.prev
      in
      walk t.tail);
  Buffer.contents b

let import t s =
  let pos = ref 0 in
  let len = String.length s in
  let take n =
    if !pos + n > len || n < 0 then None
    else begin
      let r = String.sub s !pos n in
      pos := !pos + n;
      Some r
    end
  in
  let u32 () =
    Option.map
      (fun b ->
        let v = ref 0 in
        String.iter (fun c -> v := (!v lsl 8) lor Char.code c) b;
        !v)
      (take 4)
  in
  let ( let* ) o f = match o with Some x -> f x | None -> Error "cache state truncated" in
  let* m = take 8 in
  if m = stale_magic then Error "stale cache state (format v1: no program digests)"
  else if m <> export_magic then Error "not a cache state blob"
  else
    let* n = u32 () in
    let rec load i =
      if i = n then if !pos = len then Ok n else Error "trailing bytes after cache state"
      else
        let* klen = u32 () in
        let* key = take klen in
        let* vlen = u32 () in
        let* enc = take vlen in
        match decode_verdict enc with
        | None -> Error (Printf.sprintf "cache entry %d does not decode" i)
        | Some v ->
            add t key v;
            load (i + 1)
    in
    load 0
