(* The four workloads: what each client submits, and what the service
   must answer.

   Jobs are numbered globally in submission rounds of [clients]: round
   [r] holds jobs [4r .. 4r+3], and [kind_of_job] fixes the input kind
   of every job index. The seed never changes that sequence, so every
   round of a workload costs the same modelled work on every seed and
   the wall-clock spread between seeds is the machine's. What the seed
   changes is every payload's bytes (a 32-byte nonce in [.data], so no
   two seeds share a cache key or a hashed byte), which client of a
   round gets which job, and the tenant labels. *)

open Toolchain

let clients = 4

type image = {
  base : string;  (** the linked ELF *)
  nonce_at : int option;  (** offset of the 32-byte nonce slot in [base] *)
}

type kind = {
  label : string;
  image : image Lazy.t;  (** synthesized on first use *)
  policies : string list;
  expect : Answers.expect;
}

type t = {
  name : string;
  channel : Engarde.Provision.channel;
  cache : bool;
  audit : bool;
  fresh_per_job : bool;
      (** every job carries its own nonce: a never-seen build, so every
          lookup misses *)
  redeploy : bool;
      (** the service warm-restarts from a sealed state that already
          holds every kind's verdict, so every lookup hits *)
  kinds : kind array;
  kind_of_job : int -> int;
  warmup : int;  (** kind of the set-up job: the workload's smallest input *)
}

let names = [ "fresh-release"; "tenant-redeploy"; "deep-inspect"; "paper-legacy" ]

let marker = "EGBENCH/NONCE/SLOT/0123456789abc"

let find_marker s =
  let m = String.length marker in
  let rec go i =
    match String.index_from_opt s i marker.[0] with
    | None -> invalid_arg "Inputs: nonce slot not found in the linked image"
    | Some j -> if j + m <= String.length s && String.sub s j m = marker then j else go (j + 1)
  in
  go 0

(* A paper workload whose last 32 [.data] bytes become the nonce slot.
   Data bytes are never decoded, hashed by a policy or relocated, so the
   nonce changes cache keys and payload digests but no modelled cycle. *)
let app inst bench ~policies ~label =
  let image =
    lazy
      (let b = Workloads.build inst bench in
       let data = b.Workloads.data in
       let data = String.sub data 0 (String.length data - String.length marker) ^ marker in
       let base = (Linker.link { b with Workloads.data }).Linker.elf in
       { base; nonce_at = Some (find_marker base) })
  in
  { label; image; policies; expect = Answers.Clean }

let fixture adv ~policies =
  let label = Workloads.adversarial_to_string adv in
  {
    label = "adv/" ^ label;
    image = lazy { base = (Linker.link_adversarial adv).Linker.elf; nonce_at = None };
    policies;
    expect = List.assoc label Answers.fixtures;
  }

let nonce ~seed ~workload tag = Crypto.Sha256.digest (Printf.sprintf "%d/%s/%s" seed workload tag)

let payload kind nonce =
  let { base; nonce_at } = Lazy.force kind.image in
  match nonce_at with
  | None -> base
  | Some off ->
      let b = Bytes.of_string base in
      Bytes.blit_string nonce 0 b off (String.length nonce);
      Bytes.unsafe_to_string b

let deep_policies =
  [ "libc"; "stack"; "ifcc"; "lint"; "sanitize"; "stack-interproc"; "ifcc-interproc" ]

let index_of label kinds =
  let rec go i = if kinds.(i).label = label then i else go (i + 1) in
  go 0

let make name =
  let plain bench =
    app Codegen.plain bench ~policies:[ "libc" ] ~label:(Workloads.to_string bench)
  in
  let w ~channel ~cache ~audit ?(fresh_per_job = false) ?(redeploy = false) ~warmup kinds
      kind_of_job =
    { name; channel; cache; audit; fresh_per_job; redeploy; kinds; kind_of_job;
      warmup = index_of warmup kinds }
  in
  match name with
  | "fresh-release" ->
      (* Every round holds one otp-gen, two 429.mcf and one netperf. *)
      let cycle = [| 0; 1; 2; 1 |] in
      w ~channel:`Streaming ~cache:true ~audit:true ~fresh_per_job:true ~warmup:"otp-gen"
        (Array.map plain [| Workloads.Otpgen; Workloads.Mcf; Workloads.Netperf |])
        (fun g -> cycle.(g mod 4))
  | "tenant-redeploy" ->
      let kinds = Array.of_list (List.map plain Workloads.all) in
      w ~channel:`Streaming ~cache:true ~audit:true ~redeploy:true ~warmup:"otp-gen" kinds
        (fun g -> g mod Array.length kinds)
  | "deep-inspect" ->
      (* Every round: one nginx and three fixtures; two rounds cover all
         six fixtures. *)
      let nginx =
        app { Codegen.stack_protector = true; ifcc = true } Workloads.Nginx
          ~policies:deep_policies ~label:"nginx/stack+ifcc"
      in
      let fixtures =
        List.filter_map
          (fun adv ->
            match adv with
            | Workloads.Giant _ -> None
            | _ -> Some (fixture adv ~policies:deep_policies))
          Workloads.adversarial_all
      in
      let nf = List.length fixtures in
      w ~channel:`Streaming ~cache:false ~audit:false ~warmup:"adv/jump-past-mask"
        (Array.of_list (nginx :: fixtures))
        (fun g ->
          let r = g / clients and s = g mod clients in
          if s = 0 then 0 else 1 + ((((clients - 1) * r) + s - 1) mod nf))
  | "paper-legacy" ->
      (* Kind [3j + f] is app [j] under figure [f]. Each block of seven
         jobs visits every app once, and successive blocks rotate the
         figure per app, so any window of whole rounds costs about the
         same and the first two rounds span every payload size. *)
      let figs =
        [|
          ("fig3", Codegen.plain, "libc");
          ("fig4", Codegen.with_stack_protector, "stack-pattern");
          ("fig5", Codegen.with_ifcc, "ifcc-pattern");
        |]
      in
      let kinds =
        Array.concat
          (List.map
             (fun bench ->
               Array.map
                 (fun (fig, inst, policy) ->
                   app inst bench ~policies:[ policy ]
                     ~label:(Workloads.to_string bench ^ "/" ^ fig))
                 figs)
             Workloads.all)
      in
      let apps = List.length Workloads.all in
      w ~channel:`Legacy ~cache:false ~audit:false ~warmup:"otp-gen/fig3" kinds (fun g ->
          let i = g mod (apps * 3) in
          let block = i / apps and j = i mod apps in
          (3 * j) + ((j + block) mod 3))
  | w -> invalid_arg ("unknown workload " ^ w)

(* Which slot of round [r] (job [4r + slot]) each client submits. *)
let slot_of_client ~seed r =
  let st = Random.State.make [| seed; r |] in
  let perm = Array.init clients Fun.id in
  for i = clients - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  perm
