(* engarde — command-line front end to the reproduction.

   Subcommands:
     gen        synthesize an evaluation workload as an ELF file
     inspect    the enclave's inspection on ELFs and benchmarks (no enclave)
     provision  run the full mutually-trusted provisioning protocol
     rewrite    instrument an unprotected binary into compliance
     measure    print the enclave measurement a client should expect
     cfg        recover per-function CFGs, summarize or export as DOT
     callgraph  build the call graph and function summaries
     batch      run many inspection jobs through the service layer
     serve      demo the multiplexed inspection service front end
     fleet      run jobs across a mutually-attested inspector fleet
     audit      checkpoint, prove and verify the verdict log
     policy     compile/hash negotiated policy-VM programs *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A usage error only the command can see (the parser has no view of
   how many inputs make sense): a message on stderr and exit 2. *)
let usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* --- shared converters --- *)

let bench_conv =
  let parse s =
    match Toolchain.Workloads.of_string s with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %S (expected one of: %s)" s
               (String.concat ", "
                  (List.map Toolchain.Workloads.to_string Toolchain.Workloads.all))))
  in
  let print fmt b = Format.pp_print_string fmt (Toolchain.Workloads.to_string b) in
  Arg.conv (parse, print)

let variant_conv =
  let parse = function
    | "plain" -> Ok Toolchain.Codegen.plain
    | "stack" -> Ok Toolchain.Codegen.with_stack_protector
    | "ifcc" -> Ok Toolchain.Codegen.with_ifcc
    | "stack+ifcc" -> Ok { Toolchain.Codegen.stack_protector = true; ifcc = true }
    | s -> Error (`Msg (Printf.sprintf "unknown variant %S (plain|stack|ifcc|stack+ifcc)" s))
  in
  let print fmt (i : Toolchain.Codegen.instrumentation) =
    Format.pp_print_string fmt
      (match (i.stack_protector, i.ifcc) with
      | false, false -> "plain"
      | true, false -> "stack"
      | false, true -> "ifcc"
      | true, true -> "stack+ifcc")
  in
  Arg.conv (parse, print)

let libc_conv =
  let parse = function
    | "1.0.5" -> Ok Toolchain.Libc.V1_0_5
    | "1.0.4" -> Ok Toolchain.Libc.V1_0_4
    | "tampered" -> Ok Toolchain.Libc.Tampered_1_0_5
    | s -> Error (`Msg (Printf.sprintf "unknown libc %S (1.0.5|1.0.4|tampered)" s))
  in
  let print fmt v = Format.pp_print_string fmt (Toolchain.Libc.version_to_string v) in
  Arg.conv (parse, print)

(* Every count the commands take (workers, queue capacity, domains,
   nodes, repeats, clients, jobs per client): zero or less is refused
   by the parser, as a usage error. *)
let count =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* The scheduler's registry is the single source of truth for which
   policies are name-addressable: the flag's enum, the error text and
   the service's admission control can never drift apart again. *)
let reference_db = lazy (Toolchain.Libc.hash_db Toolchain.Libc.V1_0_5)

let policies_of_names names =
  match Service.Scheduler.policies_of_names ~db:(Lazy.force reference_db) names with
  | Ok ps -> ps
  | Error msg ->
      Printf.eprintf "engarde: %s\n" msg;
      exit 2

let policy_arg =
  Arg.(
    value
    & opt_all
        (enum (List.map (fun n -> (n, n)) Service.Scheduler.known_policies))
        []
    & info [ "p"; "policy" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf
             "Policy module to enforce: %s. Repeatable. (The window-scan \
              *-pattern modes are the paper's unsound baselines.)"
             (String.concat ", " Service.Scheduler.known_policies)))

(* NAME=FILE (or bare FILE, named after its basename): a custom policy
   program in canonical blob form, negotiated as data — no recompile. *)
let policy_file_conv =
  let parse s =
    let name, path =
      match String.index_opt s '=' with
      | Some i ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | None -> (Filename.remove_extension (Filename.basename s), s)
    in
    if not (Sys.file_exists path) then
      Error (`Msg (Printf.sprintf "no such file: %s" path))
    else if name = "" then Error (`Msg "empty policy name")
    else Ok (name, read_file path)
  in
  let print fmt (name, _) = Format.fprintf fmt "%s=<blob>" name in
  Arg.conv (parse, print)

let policy_file_arg =
  Arg.(
    value
    & opt_all policy_file_conv []
    & info [ "policy-file" ] ~docv:"NAME=FILE"
        ~doc:
          "Enforce the custom policy program in $(b,FILE) (canonical blob, see \
           $(b,engarde policy compile)) under NAME. The program joins the \
           negotiated set: its bytes are part of the measured policy-set \
           digest. Repeatable.")

(* -p and --policy-file together: every name a job negotiates (the
   builtins, then each program's name) and the programs themselves. *)
let negotiated_arg =
  Term.(
    const (fun names programs -> (names @ List.map fst programs, programs))
    $ policy_arg $ policy_file_arg)

(* Decode custom blobs into runnable policies, or die with the decoder's
   reason — a blob the negotiation would reject should fail here too. *)
let custom_policies ~vm_perf files =
  List.map
    (fun (name, blob) ->
      match Policyvm.Vm.of_blob ~vm_perf blob with
      | Ok p -> p
      | Error e ->
          Printf.eprintf "engarde: policy %s: %s\n" name e;
          exit 2)
    files

(* --- inputs: one ELF payload per positional file and per -b --- *)

let bench_info ~doc = Arg.info [ "b"; "bench" ] ~docv:"BENCH" ~doc

let variant_arg =
  Arg.(
    value
    & opt variant_conv Toolchain.Codegen.plain
    & info [ "variant" ] ~docv:"VARIANT"
        ~doc:"Instrumentation for synthesized benchmarks: plain, stack, ifcc, stack+ifcc.")

(* (label, elf bytes) for every synthesized --bench, then every ELF
   file; [default]'s benchmarks stand in when neither is given. *)
let inputs_or ~default =
  let elfs =
    Arg.(value & pos_all file [] & info [] ~docv:"ELF" ~doc:"Executable to judge. Repeatable.")
  in
  let benches =
    Arg.(value & opt_all bench_conv [] & bench_info ~doc:"Synthesize this benchmark. Repeatable.")
  in
  let sources benches elfs variant =
    let benches = if benches = [] && elfs = [] then default else benches in
    List.map
      (fun b ->
        let img = Toolchain.Linker.link (Toolchain.Workloads.build variant b) in
        (Toolchain.Workloads.to_string b, img.Toolchain.Linker.elf))
      benches
    @ List.map (fun path -> (Filename.basename path, read_file path)) elfs
  in
  Term.(const sources $ benches $ elfs $ variant_arg)

let inputs = inputs_or ~default:[]

let one_input cmd = function
  | [ input ] -> input
  | _ -> usage "%s: pass exactly one of ELF or --bench" cmd

(* --- the enclave: its size and the channel to it --- *)

let enclave_arg =
  let fast =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:"Use a reduced enclave configuration (smaller EPC and heap) for quick demos.")
  in
  Term.(
    const (fun fast ->
        if fast then Engarde.Provision.fast_config else Engarde.Provision.default_config)
    $ fast)

(* The CLI defaults to the streaming channel; --legacy-channel restores
   the paper-faithful block transfer. *)
let channel_arg =
  let legacy =
    Arg.(
      value & flag
      & info [ "legacy-channel" ]
          ~doc:
            "Carry payloads over the paper-faithful Code_block transfer instead of the \
             EGREC1 streaming record layer (no pipelined inspection, no 0-RTT resumption). \
             Verdicts and modelled cycles are identical on both channels.")
  in
  Term.(const (fun legacy -> if legacy then `Legacy else `Streaming) $ legacy)

(* --- gen --- *)

let gen_cmd =
  let bench =
    Arg.(
      required
      & opt (some bench_conv) None
      & bench_info ~doc:"Benchmark profile to synthesize.")
  in
  let libc =
    Arg.(
      value
      & opt libc_conv Toolchain.Libc.V1_0_5
      & info [ "libc" ] ~docv:"VERSION" ~doc:"libc version to link: 1.0.5, 1.0.4, tampered.")
  in
  let strip =
    Arg.(value & flag & info [ "strip" ] ~doc:"Strip the symbol table (EnGarde rejects this).")
  in
  let output =
    Arg.(
      value & opt string "a.elf" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run bench variant libc strip output =
    let b = Toolchain.Workloads.build ~libc variant bench in
    let img = Toolchain.Linker.link ~strip b in
    write_file output img.Toolchain.Linker.elf;
    Printf.printf "%s: %s instructions, %d bytes of text, %d symbols, %d relocations -> %s\n"
      (Toolchain.Workloads.to_string bench)
      (string_of_int b.Toolchain.Workloads.instructions)
      (String.length img.Toolchain.Linker.text)
      (List.length img.Toolchain.Linker.symbols)
      (List.length img.Toolchain.Linker.relocations)
      output
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Synthesize an evaluation workload as a static PIE ELF.")
    Term.(const run $ bench $ variant_arg $ libc $ strip $ output)

(* --- inspect --- *)

let elf_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"ELF" ~doc:"Executable to inspect.")

(* The enclave's front half on one input, or the rejection it would
   send; every charge lands on [report]. *)
let examine ~what report raw =
  match Engarde.Provision.examine report raw with
  | Ok r -> r
  | Error r ->
      Printf.eprintf "engarde: %s: %s\n" what (Engarde.Provision.rejection_to_string r);
      exit 1

let inspect_cmd =
  let run sources policy_names policy_files =
    if sources = [] then usage "inspect: no inputs; pass ELF files and/or --bench";
    let judge (what, raw) =
      let report = Engarde.Report.create () in
      match Engarde.Provision.examine report raw with
      | Error r ->
          Printf.printf "%s: REJECT: %s\n" what (Engarde.Provision.rejection_to_string r);
          false
      | Ok (_, ctx) ->
          let vm_perf = Sgx.Perf.create () in
          let results =
            Engarde.Policy.run_all ctx
              (policies_of_names policy_names @ custom_policies ~vm_perf policy_files)
          in
          let row = Engarde.Report.row ~benchmark:what report in
          Printf.printf "%s: disassembled %d instructions (%d modelled cycles)\n" what
            row.Engarde.Report.n_instructions row.Engarde.Report.disassembly_cycles;
          List.iter
            (fun (name, v) ->
              match v with
              | Engarde.Policy.Compliant -> Printf.printf "policy %-24s compliant\n" name
              | Engarde.Policy.Violations fs ->
                  Printf.printf "policy %-24s %d violation(s)\n" name (List.length fs);
                  List.iter
                    (fun f -> Printf.printf "  %s\n" (Engarde.Policy.finding_to_string f))
                    fs)
            results;
          Printf.printf "analysis index: %d modelled cycles\n" row.Engarde.Report.analysis_cycles;
          Printf.printf "cfg recovery: %d modelled cycles\n" row.Engarde.Report.cfg_cycles;
          Printf.printf "callgraph construction: %d modelled cycles\n"
            row.Engarde.Report.callgraph_cycles;
          Printf.printf "function summaries: %d modelled cycles\n"
            row.Engarde.Report.summary_cycles;
          Printf.printf "policy checking: %d modelled cycles\n" row.Engarde.Report.policy_cycles;
          if policy_files <> [] then
            Printf.printf "interpreter overhead: %d cycles (separate stream)\n"
              (Sgx.Perf.total_cycles vm_perf);
          Engarde.Policy.all_compliant results
    in
    let failed = List.length (List.filter (fun src -> not (judge src)) sources) in
    if failed > 0 then begin
      if List.length sources > 1 then
        Printf.printf "\n%d of %d input(s) rejected or non-compliant\n" failed
          (List.length sources);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Run the enclave's inspection on ELF files and synthesized benchmarks (static, no \
          enclave): the same header, stripped-binary, page-separation and single-text \
          checks, disassembly and policy modules as provisioning, with the same verdicts, \
          findings and modelled cycles. Exits 1 if any input is rejected or non-compliant. \
          With $(b,--policy-file) the VM's interpreter overhead is reported separately.")
    Term.(const run $ inputs $ policy_arg $ policy_file_arg)

(* --- provision --- *)

let provision_cmd =
  let run path policy_names channel =
    let payload = read_file path in
    let config = { Engarde.Provision.default_config with Engarde.Provision.policy_names } in
    let o =
      Engarde.Provision.run ~policies:(policies_of_names policy_names) ~channel config ~payload
    in
    Printf.printf "enclave measurement: %s\n"
      (Crypto.Sha256.hex o.Engarde.Provision.measurement);
    (match o.Engarde.Provision.channel_stats with
    | Some st ->
        Printf.printf "channel: streaming, %d records (%d bytes), %d in flight peak%s\n"
          st.Engarde.Provision.records st.Engarde.Provision.record_bytes
          st.Engarde.Provision.in_flight_peak
          (if st.Engarde.Provision.resumed then ", resumed (0-RTT)" else "")
    | None -> Printf.printf "channel: legacy blocks\n");
    (match o.Engarde.Provision.client_verdict with
    | Some (ok, detail) -> Printf.printf "client verdict: %s (%s)\n"
        (if ok then "ACCEPTED" else "REJECTED") detail
    | None -> Printf.printf "client verdict: none\n");
    print_endline Engarde.Report.header;
    print_endline
      (Engarde.Report.row_to_string
         (Engarde.Report.row ~benchmark:(Filename.basename path) o.Engarde.Provision.report));
    match o.Engarde.Provision.result with
    | Ok loaded ->
        Printf.printf "loaded: entry=0x%x, %d exec pages, %d data pages, %d relocations\n"
          loaded.Engarde.Loader.entry
          (List.length loaded.Engarde.Loader.exec_pages)
          (List.length loaded.Engarde.Loader.data_pages)
          loaded.Engarde.Loader.relocations_applied
    | Error r ->
        Printf.printf "rejected: %s\n" (Engarde.Provision.rejection_to_string r);
        exit 1
  in
  Cmd.v
    (Cmd.info "provision"
       ~doc:"Run the full mutually-trusted provisioning protocol on an ELF.")
    Term.(const run $ elf_arg $ policy_arg $ channel_arg)

(* --- rewrite --- *)

let rewrite_cmd =
  let output =
    Arg.(
      value & opt string "rewritten.elf"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run path output =
    let raw = read_file path in
    match Elf64.Reader.parse raw with
    | Error e ->
        Printf.printf "cannot parse: %s\n" (Elf64.Reader.error_to_string e);
        exit 1
    | Ok elf -> (
        match
          Toolchain.Rewrite.add_stack_protection ~exempt:Toolchain.Libc.function_names elf
        with
        | Error e ->
            Printf.printf "%s\n" (Toolchain.Rewrite.error_to_string e);
            exit 1
        | Ok rewritten ->
            write_file output rewritten;
            Printf.printf "instrumented %s (%d bytes) -> %s (%d bytes)\n" path
              (String.length raw) output (String.length rewritten))
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:
         "Insert stack-protector instrumentation into an unprotected binary (the runtime \
          extension the paper sketches).")
    Term.(const run $ elf_arg $ output)

(* --- measure --- *)

let measure_cmd =
  let run policy_names =
    let config =
      { Engarde.Provision.default_config with Engarde.Provision.policy_names } in
    Printf.printf "%s\n" (Crypto.Sha256.hex (Engarde.Provision.expected_measurement config))
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:
         "Print the measurement a client should expect for an EnGarde enclave built with \
          the given policy set.")
    Term.(const run $ policy_arg)

(* --- cfg + callgraph: the flow-sensitive and interprocedural surface --- *)

let cfg_cmd =
  let fn_filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "function" ] ~docv:"NAME" ~doc:"Only this function.")
  in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write the Graphviz DOT of the selected function's CFG (needs --function).")
  in
  let run inputs fn_filter dot_out =
    let what, raw = one_input "cfg" inputs in
    let report = Engarde.Report.create () in
    let _, ctx = examine ~what report raw in
    let idx = ctx.Engarde.Policy.index in
    let funcs =
      let all = Array.to_list idx.Engarde.Analysis.functions in
      match fn_filter with
      | None -> all
      | Some n -> (
          match
            List.filter (fun (f : Engarde.Analysis.func) -> f.Engarde.Analysis.fn_name = n) all
          with
          | [] ->
              Printf.eprintf "engarde: no function %S in %s\n" n what;
              exit 2
          | l -> l)
    in
    Printf.printf "%-32s %10s %6s %7s %6s %12s\n" "function" "addr" "insns" "blocks"
      "edges" "unreachable";
    List.iter
      (fun (f : Engarde.Analysis.func) ->
        match Engarde.Policy.cfg_of ctx f with
        | None ->
            Printf.printf "%-32s %#10x %6s %7s %6s %12s\n" f.Engarde.Analysis.fn_name
              f.Engarde.Analysis.fn_addr "-" "-" "-" "-"
        | Some cfg ->
            let lo, hi =
              match f.Engarde.Analysis.fn_slice with Some s -> s | None -> (0, 0)
            in
            let unreachable =
              Array.fold_left (fun n r -> if r then n else n + 1) 0 cfg.Engarde.Cfg.reachable
            in
            Printf.printf "%-32s %#10x %6d %7d %6d %12d\n" f.Engarde.Analysis.fn_name
              f.Engarde.Analysis.fn_addr (hi - lo)
              (Array.length cfg.Engarde.Cfg.blocks)
              cfg.Engarde.Cfg.n_edges unreachable)
      funcs;
    Printf.printf "\ncfg recovery: %d modelled cycles\n"
      (Sgx.Perf.total_cycles report.Engarde.Report.cfg);
    match dot_out with
    | None -> ()
    | Some path -> (
        match (fn_filter, funcs) with
        | Some _, [ f ] -> (
            match Engarde.Policy.cfg_of ctx f with
            | Some cfg ->
                write_file path (Engarde.Cfg.to_dot cfg ctx.Engarde.Policy.buffer);
                Printf.printf "dot -> %s\n" path
            | None ->
                Printf.eprintf "engarde: %s has no code to export\n"
                  f.Engarde.Analysis.fn_name;
                exit 2)
        | _ ->
            prerr_endline "cfg: --dot needs --function naming a single function";
            exit 2)
  in
  Cmd.v
    (Cmd.info "cfg"
       ~doc:
         "Recover per-function basic-block CFGs (the flow-sensitive policies' substrate) \
          and print block/edge/reachability summaries, optionally exporting Graphviz DOT.")
    Term.(const run $ inputs $ fn_filter $ dot_out)

let callgraph_cmd =
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write the Graphviz DOT of the whole call graph.")
  in
  let summaries =
    Arg.(
      value & flag
      & info [ "summaries" ]
          ~doc:"Also compute and print the per-function dataflow summaries (bottom-up).")
  in
  let run inputs dot_out summaries =
    let what, raw = one_input "callgraph" inputs in
    let report = Engarde.Report.create () in
    let _, ctx = examine ~what report raw in
    let cg = Engarde.Policy.callgraph_of ctx in
    let fns = cg.Engarde.Callgraph.index.Engarde.Analysis.functions in
    Printf.printf "%-32s %10s %4s %4s %4s %9s\n" "function" "addr" "scc" "out" "in"
      "recursive";
    Array.iteri
      (fun fi (f : Engarde.Analysis.func) ->
        Printf.printf "%-32s %#10x %4d %4d %4d %9s\n" f.Engarde.Analysis.fn_name
          f.Engarde.Analysis.fn_addr
          cg.Engarde.Callgraph.scc_id.(fi)
          (Engarde.Callgraph.out_degree cg fi)
          (Engarde.Callgraph.in_degree cg fi)
          (if cg.Engarde.Callgraph.recursive.(fi) then "yes" else "no"))
      fns;
    let count = Engarde.Callgraph.edge_count cg in
    let direct = count Engarde.Callgraph.Direct
    and indirect = count Engarde.Callgraph.Indirect
    and tail = count Engarde.Callgraph.Tail
    and jump_into = count Engarde.Callgraph.Jump_into in
    Printf.printf
      "\n%d functions, %d components; %d edges (%d direct, %d indirect, %d tail, %d \
       jump-into)\n"
      (Array.length fns) cg.Engarde.Callgraph.n_sccs
      (direct + indirect + tail + jump_into)
      direct indirect tail jump_into;
    if summaries then begin
      Printf.printf "\n%-32s %8s %8s %8s %6s %7s\n" "function (bottom-up)" "defines"
        "reads" "clobbers" "canary" "returns";
      Array.iter
        (fun fi ->
          let f = fns.(fi) in
          match Engarde.Policy.summary_of ctx ~addr:f.Engarde.Analysis.fn_addr with
          | None -> ()
          | Some s ->
              Printf.printf "%-32s %#8x %#8x %#8x %6s %7s\n" f.Engarde.Analysis.fn_name
                s.Engarde.Summary.s_defines s.Engarde.Summary.s_reads
                s.Engarde.Summary.s_clobbers
                (if s.Engarde.Summary.s_canary then "yes" else "no")
                (if s.Engarde.Summary.s_returns then "yes" else "no"))
        cg.Engarde.Callgraph.bottom_up;
      Printf.printf "\nfunction summaries: %d modelled cycles\n"
        (Sgx.Perf.total_cycles report.Engarde.Report.summary)
    end;
    Printf.printf "callgraph construction: %d modelled cycles\n"
      (Sgx.Perf.total_cycles report.Engarde.Report.callgraph);
    match dot_out with
    | None -> ()
    | Some path ->
        write_file path (Engarde.Callgraph.to_dot cg);
        Printf.printf "dot -> %s\n" path
  in
  Cmd.v
    (Cmd.info "callgraph"
       ~doc:
         "Build the whole-binary call graph (the interprocedural policies' substrate): \
          direct/indirect/tail/jump-into edges, SCC condensation, bottom-up order, and \
          optionally the per-function dataflow summaries, exporting Graphviz DOT.")
    Term.(const run $ inputs $ dot_out $ summaries)

(* --- service layer: batch + serve + fleet --- *)

let commas = Engarde.Report.commas

(* The scheduler every service command runs on [provision]'s enclave,
   over the streaming channel unless told otherwise. The audit commands
   reopen sealed state through it too. *)
let scheduler_config provision =
  { Service.Scheduler.default_config with Service.Scheduler.provision; channel = `Streaming }

(* What a service command runs: the scheduler's config, every name its
   jobs negotiate, where the metrics report goes, and (batch and serve
   only) the domains to run on and the sealed state file with its
   device seed. *)
type service = {
  config : Service.Scheduler.config;
  policy_names : string list;
  metrics_out : string option;
  domains : int;
  sealed : (string * string) option;
}

let device_seed_arg =
  Arg.(
    value
    & opt string "engarde-device-0"
    & info [ "device-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the SGX device model (attestation key, sealing secret, counters). \
           Both sides of an audit exchange must name the same device.")

(* The options every service command takes; [policies] gives its jobs'
   negotiated names and custom programs. *)
let service_term policies =
  let workers =
    Arg.(value & opt count 4 & info [ "w"; "workers" ] ~docv:"N" ~doc:"Jobs per scheduler round.")
  in
  let queue_capacity =
    Arg.(
      value & opt count 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Job queue capacity (submissions beyond it are rejected).")
  in
  let timeout_cycles =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-cycles" ] ~docv:"CYCLES"
          ~doc:"Fail any job whose modelled cycles exceed this budget.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the Prometheus-style metrics report to $(docv) at exit ($(b,-) for stdout).")
  in
  let make workers queue_capacity provision timeout_cycles (policy_names, programs) metrics_out =
    {
      config =
        {
          (scheduler_config provision) with
          Service.Scheduler.workers;
          queue_capacity;
          timeout_cycles;
          programs;
        };
      policy_names;
      metrics_out;
      domains = 1;
      sealed = None;
    }
  in
  Term.(
    const make $ workers $ queue_capacity $ enclave_arg $ timeout_cycles $ policies
    $ metrics_out)

(* batch and serve run one host's whole service: they add domains, the
   cache switch, custom programs, the audit log, sealed state and the
   channel to the options every service command takes. *)
let host_term =
  let domains =
    Arg.(
      value & opt count 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Run each round's provisioning pipelines on $(docv) OCaml domains (true \
             multicore parallelism); the round then takes at least $(docv) jobs. 1 \
             (the default) runs each pipeline in place on the scheduler's domain. \
             Verdicts, cache statistics and the audit log are identical either way; \
             only wall-clock time changes.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the content-addressed verdict cache (every job re-inspects).")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:"Append every verdict to the Merkle transparency log (implied by --state).")
  in
  let state =
    Arg.(
      value
      & opt (some string) None
      & info [ "state" ] ~docv:"FILE"
          ~doc:
            "Sealed service state: warm-start from $(docv) when it exists, seal the audit \
             log and verdict cache back to it at exit (enables the audit log). The \
             monotonic-counter NVRAM lives beside it in $(docv).ctr.")
  in
  let extend s domains no_cache audit state device_seed channel =
    let c = s.config in
    {
      s with
      config =
        {
          c with
          Service.Scheduler.cache = (if no_cache then `Disabled else c.Service.Scheduler.cache);
          audit = audit || state <> None;
          channel;
        };
      domains;
      sealed = Option.map (fun path -> (path, device_seed)) state;
    }
  in
  Term.(
    const extend $ service_term negotiated_arg $ domains $ no_cache $ audit $ state
    $ device_seed_arg $ channel_arg)

let repeat_arg =
  Arg.(
    value & opt count 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:"Submit the whole job list N times (duplicate-heavy workloads).")

(* [repeat] rounds of one job per input. *)
let job_list sources ~repeat policy_names =
  let one_round =
    List.map (fun (client, payload) -> { Service.Scheduler.client; payload; policy_names }) sources
  in
  List.concat (List.init repeat (fun _ -> one_round))

(* --- sealed service state on disk (Service.State_file) --- *)

let load_service_state t (state, device) =
  match Service.State_file.load t ~device state with
  | Ok Service.State_file.Cold -> Printf.printf "cold start: no sealed state at %s\n\n" state
  | Ok (Service.State_file.Warm { counter; rolled_forward; log_leaves; cache_entries }) ->
      Printf.printf "warm start from %s: %d audit leaves, %d cached verdicts restored%s\n\n"
        state log_leaves cache_entries
        (if rolled_forward then
           Printf.sprintf " (counter rolled forward to %d: the last save was cut before its \
                           counter was written)" counter
         else "")
  | Error e ->
      Printf.eprintf "engarde: cannot load %s: %s\n" state (Audit.Seal.error_to_string e);
      exit 1

let save_service_state t (state, device) =
  Service.State_file.save t ~device state;
  let audit_note =
    match Service.Scheduler.audit_log t with
    | Some log ->
        Printf.sprintf " (%d audit leaves, root %s...)" (Audit.Log.size log)
          (String.sub (Crypto.Sha256.hex (Audit.Log.root log)) 0 16)
    | None -> ""
  in
  Printf.printf "\nstate sealed -> %s%s\n" state audit_note

(* [--metrics-out -] prints the report on stdout instead of a file. *)
let write_report path report =
  if path = "-" then print_string report
  else begin
    write_file path report;
    Printf.printf "metrics written -> %s\n" path
  end

(* Run [f] on a scheduler built from [s], after a header that ends with
   the effective workers and domains: on [s.domains] domains (above 1,
   rewired onto a domain pool that is always shut down), warm-started
   from and sealed back to its state, its report printed and its
   metrics written at the end. *)
let with_scheduler s ~header f =
  let go config =
    Printf.printf "%s, %d workers, %d domain(s)\n\n" header config.Service.Scheduler.workers
      s.domains;
    let t = Service.Scheduler.create config in
    let sealed = Option.map (fun (path, seed) -> (path, Sgx.Quote.device_create ~seed)) s.sealed in
    Option.iter (load_service_state t) sealed;
    let result = f t in
    print_string (Service.Scheduler.report t);
    Option.iter (save_service_state t) sealed;
    Option.iter (fun path -> write_report path (Service.Scheduler.report t)) s.metrics_out;
    result
  in
  if s.domains = 1 then go s.config
  else begin
    let config, pool = Service.Scheduler.parallel_config ~config:s.config ~domains:s.domains () in
    Fun.protect ~finally:(fun () -> Service.Pool.shutdown pool) (fun () -> go config)
  end

(* A completion as the verdict table reads it: accepted, and why. *)
let outcome (c : Service.Scheduler.completion) =
  match c.Service.Scheduler.verdict with
  | Ok v -> (v.Service.Cache.accepted, v.Service.Cache.detail)
  | Error f -> (false, Service.Scheduler.failure_to_string f)

(* batch and fleet exit 1 when any job was refused or failed. *)
let failed c = not (fst (outcome c))

(* batch's and serve's verdict table: the attempts each job took and,
   under a non-compliant verdict, its findings. *)
let print_completions completions =
  Printf.printf "%-4s %-14s %5s %-4s %3s %16s  %s\n" "#" "client" "hit" "try" "ok"
    "cycles" "verdict";
  List.iter
    (fun (c : Service.Scheduler.completion) ->
      let ok, detail = outcome c in
      Printf.printf "%-4d %-14s %5s %-4d %3s %16s  %s\n" c.Service.Scheduler.seq
        c.Service.Scheduler.job.Service.Scheduler.client
        (if c.Service.Scheduler.cache_hit then "hit" else "miss")
        c.Service.Scheduler.attempts
        (if ok then "yes" else "NO")
        (commas c.Service.Scheduler.latency_cycles)
        detail;
      match c.Service.Scheduler.verdict with
      | Ok { Service.Cache.findings = _ :: _ as fs; _ } ->
          List.iter
            (fun f -> Printf.printf "     %s\n" (Engarde.Policy.finding_to_string f))
            fs
      | Ok _ | Error _ -> ())
    completions

let batch_cmd =
  let run sources repeat s =
    if sources = [] then usage "batch: no jobs; pass ELF files and/or --bench";
    let jobs = job_list sources ~repeat s.policy_names in
    let any_failed =
      with_scheduler s ~header:(Printf.sprintf "batch: %d job(s)" (List.length jobs)) (fun t ->
          let t0 = Unix.gettimeofday () in
          let completions = Service.Scheduler.batch t jobs in
          let dt = Unix.gettimeofday () -. t0 in
          print_completions completions;
          let jc = Service.Metrics.job_counts (Service.Scheduler.metrics t) in
          let ph = Service.Metrics.phase_totals (Service.Scheduler.metrics t) in
          Printf.printf
            "\n%d jobs in %.2fs (%.1f jobs/s): %d pipeline runs, %d cache hits, %d failed\n"
            (List.length completions) dt
            (float_of_int (List.length completions) /. dt)
            (jc.Service.Metrics.completed - jc.Service.Metrics.cache_hits)
            jc.Service.Metrics.cache_hits jc.Service.Metrics.failed;
          Printf.printf "policy+disassembly cycles actually spent: %s\n"
            (commas (ph.Service.Metrics.disassembly + ph.Service.Metrics.policy));
          (match Service.Scheduler.audit_log t with
          | Some log ->
              Printf.printf "audit log: %d leaves, root %s\n" (Audit.Log.size log)
                (Crypto.Sha256.hex (Audit.Log.root log))
          | None -> ());
          print_newline ();
          List.exists failed completions)
    in
    if any_failed then exit 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run many inspection jobs through the service layer (job queue, worker pool, \
          verdict cache, audit log) and print per-job verdicts plus service metrics.")
    Term.(const run $ inputs $ repeat_arg $ host_term)

let serve_cmd =
  let clients =
    Arg.(value & opt count 3 & info [ "clients" ] ~docv:"N" ~doc:"Simulated client connections.")
  in
  let jobs_per_client =
    Arg.(
      value & opt count 2
      & info [ "jobs-per-client" ] ~docv:"N"
          ~doc:"Payloads each client streams, cycling through the inputs.")
  in
  let run sources clients jobs_per_client s =
    let payloads = Array.of_list (List.map snd sources) in
    let mux = Channel.Session.Mux.create () in
    let client_eps =
      List.init clients (fun i ->
          let id = Printf.sprintf "client-%d" i in
          let key = Crypto.Sha256.digest ("engarde-serve-demo/" ^ id) in
          let client_ep, server_ep = Channel.Transport.pair () in
          Channel.Session.Mux.attach mux ~id ~key server_ep;
          let session = Channel.Session.create ~key in
          for j = 0 to jobs_per_client - 1 do
            let payload = payloads.((i + j) mod Array.length payloads) in
            List.iter (Channel.Transport.send client_ep)
              (Channel.Session.payload_messages session payload)
          done;
          (id, client_ep))
    in
    let header =
      Printf.sprintf "serving %d connections (%s), %d payload(s) each" clients
        (String.concat ", " (Channel.Session.Mux.connections mux))
        jobs_per_client
    in
    with_scheduler s ~header (fun t ->
        let t0 = Unix.gettimeofday () in
        let completions =
          Service.Scheduler.serve t ~mux ~policies_for:(fun _ -> s.policy_names) ()
        in
        let dt = Unix.gettimeofday () -. t0 in
        print_completions completions;
        Printf.printf "\nper-connection verdicts (as each client read them back):\n";
        List.iter
          (fun (id, ep) ->
            List.iter
              (fun m ->
                match Channel.Client.read_verdict m with
                | Ok (ok, detail) ->
                    Printf.printf "  %-10s %s (%s)\n" id
                      (if ok then "ACCEPTED" else "REJECTED")
                      detail
                | Error _ -> Printf.printf "  %-10s unexpected message\n" id)
              (Channel.Transport.drain ep))
          client_eps;
        Printf.printf "\n%d jobs in %.2fs\n\n" (List.length completions) dt)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Demo the inspection service: a multiplexed server loop feeding the job queue, \
          a worker pool draining it, verdicts multiplexed back to each connection. \
          Without inputs the clients cycle through 429.mcf and otp-gen.")
    Term.(
      const run
      $ inputs_or ~default:[ Toolchain.Workloads.Mcf; Toolchain.Workloads.Otpgen ]
      $ clients $ jobs_per_client $ host_term)

(* --- fleet: mutually-attested inspector group --------------------- *)

let fleet_cmd =
  let nodes_arg =
    Arg.(
      value & opt count 2
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Inspector nodes in the fleet. Each is a full service (scheduler, cache, \
             audit log) with its own attestation device; all pairs mutually attest \
             via MAGE-derived identities before any verdict is shared.")
  in
  let run sources repeat nodes s =
    if sources = [] then usage "fleet: no jobs; pass ELF files and/or --bench";
    let jobs = job_list sources ~repeat s.policy_names in
    let node_config = { s.config with Service.Scheduler.audit = true } in
    let cfg = { Fleet.Coordinator.default_config with Fleet.Coordinator.nodes; node_config } in
    Printf.printf "fleet: %d node(s), %d job(s), %d workers/node\n" nodes (List.length jobs)
      node_config.Service.Scheduler.workers;
    let t0 = Unix.gettimeofday () in
    let t = Fleet.Coordinator.create cfg in
    Printf.printf "mutual attestation complete: %d pairwise quotes verified\n\n"
      (nodes * (nodes - 1));
    List.iter
      (fun j ->
        match Fleet.Coordinator.submit t j with
        | Ok _ -> ()
        | Error why ->
            Printf.printf "job for %s rejected at admission: %s\n"
              j.Service.Scheduler.client why)
      jobs;
    let completions = Fleet.Coordinator.run_until_idle t in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "%-4s %-4s %-14s %5s %3s %16s  %s\n" "#" "node" "client" "hit" "ok"
      "cycles" "verdict";
    List.iter
      (fun (n, (c : Service.Scheduler.completion)) ->
        let ok, detail = outcome c in
        Printf.printf "%-4d %-4d %-14s %5s %3s %16s  %s\n" c.Service.Scheduler.seq n
          c.Service.Scheduler.job.Service.Scheduler.client
          (if c.Service.Scheduler.cache_hit then "hit" else "miss")
          (if ok then "yes" else "NO")
          (commas c.Service.Scheduler.latency_cycles)
          detail)
      completions;
    let st = Fleet.Coordinator.stats t in
    let total f = Array.fold_left (fun acc s -> acc + f s) 0 st in
    Printf.printf "\n%d jobs in %.2fs: %d pipeline runs, %d verdicts imported, %d cross-node hits\n"
      (List.length completions) dt
      (total (fun s -> s.Fleet.Coordinator.pipeline_runs))
      (total (fun s -> s.Fleet.Coordinator.imported))
      (total (fun s -> s.Fleet.Coordinator.cross_hits));
    Array.iteri
      (fun i s ->
        let root =
          match Service.Scheduler.audit_log (Fleet.Node.scheduler (Fleet.Coordinator.node t i)) with
          | Some log ->
              String.sub (Crypto.Sha256.hex (Audit.Log.root log)) 0 16 ^ "..."
          | None -> "-"
        in
        Printf.printf
          "node %d: %d completed, %d pipeline runs, %d imported, %d cross-hits, audit root %s\n"
          i s.Fleet.Coordinator.completed s.Fleet.Coordinator.pipeline_runs
          s.Fleet.Coordinator.imported s.Fleet.Coordinator.cross_hits root)
      st;
    (match Fleet.Coordinator.quarantined t with
    | [] -> ()
    | q ->
        List.iter (fun (i, why) -> Printf.printf "QUARANTINED node %d: %s\n" i why) q);
    Option.iter
      (fun path ->
        write_report path
          (String.concat "\n"
             (List.init nodes (fun i ->
                  Printf.sprintf "# node %d\n%s" i (Fleet.Coordinator.report t i)))))
      s.metrics_out;
    if List.exists (fun (_, c) -> failed c) completions then exit 1
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run inspection jobs across a mutually-attested inspector fleet: MAGE-style \
          group attestation (no third party), rendezvous routing, and a shared verdict \
          cache where every import is backed by a verified quote and audit-log \
          inclusion proof.")
    Term.(
      const run $ inputs $ repeat_arg $ nodes_arg
      $ service_term Term.(const (fun names -> (names, [])) $ policy_arg))

(* --- audit: checkpoint / prove / verify ---------------------------

   The transparency workflow across trust domains: the *service host*
   opens its sealed state to issue quote-signed checkpoints and
   inclusion proofs; a *client* holding only the checkpoint, the proof
   and the device public key verifies offline. *)

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    try
      Some
        (String.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> None

let open_sealed_audit device enclave ~state =
  if not (Sys.file_exists state) then begin
    Printf.eprintf "engarde: no sealed state at %s\n" state;
    exit 2
  end;
  let t =
    Service.Scheduler.create { (scheduler_config enclave) with Service.Scheduler.audit = true }
  in
  load_service_state t (state, device);
  match Service.Scheduler.audit_log t with
  | Some log -> (t, log)
  | None -> assert false (* audit:true above *)

let state_req_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "state" ] ~docv:"FILE" ~doc:"Sealed service state to open.")

let audit_checkpoint_cmd =
  let output =
    Arg.(
      value & opt string "audit.ckpt"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the checkpoint.")
  in
  let run state enclave device_seed output =
    let device = Sgx.Quote.device_create ~seed:device_seed in
    let t, _ = open_sealed_audit device enclave ~state in
    match Service.Scheduler.checkpoint t ~device with
    | None -> assert false
    | Some ckpt ->
        write_file output (Audit.Log.checkpoint_to_bytes ckpt);
        Printf.printf "checkpoint: %d leaves, root %s -> %s\n" ckpt.Audit.Log.ckpt_size
          (Crypto.Sha256.hex ckpt.Audit.Log.ckpt_root)
          output
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Quote-sign the audit log's current head: the checkpoint binds the log size \
          and Merkle root in the quote's report data.")
    Term.(const run $ state_req_arg $ enclave_arg $ device_seed_arg $ output)

let audit_prove_cmd =
  let index =
    Arg.(
      required
      & opt (some int) None
      & info [ "index" ] ~docv:"N" ~doc:"Leaf index (0-based) to prove inclusion of.")
  in
  let tree_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "size" ] ~docv:"N"
          ~doc:
            "Tree size to prove against — the checkpoint's leaf count when it trails \
             the live log (default: the whole log).")
  in
  let output =
    Arg.(
      value & opt string "audit.proof"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the proof.")
  in
  let run state enclave device_seed index size output =
    let device = Sgx.Quote.device_create ~seed:device_seed in
    let _, log = open_sealed_audit device enclave ~state in
    let size = match size with Some s -> s | None -> Audit.Log.size log in
    if index < 0 || index >= size || size > Audit.Log.size log then begin
      Printf.eprintf "engarde: index %d / size %d out of range (log has %d leaves)\n"
        index size (Audit.Log.size log);
      exit 2
    end;
    let leaf =
      match Audit.Log.leaf log index with Some l -> l | None -> assert false
    in
    let path = Audit.Log.prove_inclusion log ~index ~size in
    let b = Buffer.create 256 in
    Buffer.add_string b "engarde-audit-proof v1\n";
    Buffer.add_string b (Printf.sprintf "index: %d\n" index);
    Buffer.add_string b (Printf.sprintf "size: %d\n" size);
    Buffer.add_string b
      (Printf.sprintf "leaf: %s\n" (Crypto.Sha256.hex (Audit.Log.leaf_bytes leaf)));
    List.iter
      (fun h -> Buffer.add_string b (Printf.sprintf "path: %s\n" (Crypto.Sha256.hex h)))
      path;
    write_file output (Buffer.contents b);
    Printf.printf "inclusion proof for leaf %d of %d (%d hashes) -> %s\n" index size
      (List.length path) output
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Extract a leaf and its Merkle audit path from the sealed log; together with \
          a checkpoint this is everything a client needs to verify offline.")
    Term.(const run $ state_req_arg $ enclave_arg $ device_seed_arg $ index $ tree_size $ output)

let audit_verify_cmd =
  let ckpt_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "checkpoint" ] ~docv:"FILE" ~doc:"Quote-signed checkpoint to verify against.")
  in
  let proof_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "proof" ] ~docv:"FILE" ~doc:"Proof file written by $(b,audit prove).")
  in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("engarde: " ^ s); exit 1) fmt in
  let run ckpt_path proof_path device_seed =
    let ckpt =
      match Audit.Log.checkpoint_of_bytes (read_file ckpt_path) with
      | Some c -> c
      | None -> fail "%s is not a checkpoint" ckpt_path
    in
    let lines = String.split_on_char '\n' (read_file proof_path) in
    let field name =
      List.find_map
        (fun l ->
          let prefix = name ^ ": " in
          if String.length l > String.length prefix
             && String.sub l 0 (String.length prefix) = prefix
          then Some (String.sub l (String.length prefix)
                       (String.length l - String.length prefix))
          else None)
        lines
    in
    (match lines with
    | "engarde-audit-proof v1" :: _ -> ()
    | _ -> fail "%s is not a proof file" proof_path);
    let req name = match field name with Some v -> v | None -> fail "proof is missing %s" name in
    let index = match int_of_string_opt (req "index") with
      | Some i -> i | None -> fail "bad index" in
    let size = match int_of_string_opt (req "size") with
      | Some s -> s | None -> fail "bad size" in
    let leaf =
      match Option.bind (hex_decode (req "leaf")) Audit.Log.leaf_of_bytes with
      | Some l -> l
      | None -> fail "proof leaf is malformed"
    in
    let path =
      List.filter_map
        (fun l ->
          if String.length l > 6 && String.sub l 0 6 = "path: " then
            match hex_decode (String.sub l 6 (String.length l - 6)) with
            | Some h -> Some h
            | None -> fail "proof path hash is malformed"
          else None)
        lines
    in
    if size <> ckpt.Audit.Log.ckpt_size then
      fail "proof is for size %d but checkpoint covers %d" size ckpt.Audit.Log.ckpt_size;
    let pub = Sgx.Quote.device_public (Sgx.Quote.device_create ~seed:device_seed) in
    match Audit.Log.verify_inclusion pub ckpt ~index ~leaf ~proof:path with
    | Ok () ->
        Printf.printf
          "OK: leaf %d of %d is in the log signed by the device\n\
          \  content key:  %s\n\
          \  verdict:      %s\n\
          \  measurement:  %s\n"
          index ckpt.Audit.Log.ckpt_size
          (Crypto.Sha256.hex leaf.Audit.Log.key)
          (if leaf.Audit.Log.accepted then "ACCEPTED" else "REJECTED")
          (Crypto.Sha256.hex leaf.Audit.Log.measurement)
    | Error e -> fail "verification failed: %s" (Audit.Log.error_to_string e)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Client-side offline check: the checkpoint is genuinely quote-signed by the \
          device and the proved verdict is inside the signed tree. Needs neither the \
          log nor the sealed state.")
    Term.(const run $ ckpt_arg $ proof_arg $ device_seed_arg)

let audit_cmd =
  Cmd.group
    (Cmd.info "audit"
       ~doc:
         "Verdict transparency: quote-signed checkpoints over the sealed audit log, \
          inclusion proofs, and offline verification.")
    [ audit_checkpoint_cmd; audit_prove_cmd; audit_verify_cmd ]

(* --- policy: compile / hash ----------------------------------------
   The negotiated-VM workflow: policies are measured data. [compile]
   emits a builtin's DSL transcription as a canonical blob, the starting
   point for a custom program; [hash] prints program and policy-set
   digests (exactly what gets measured into the judging enclave).
   [inspect --policy-file] runs a blob against a binary. *)

let policy_compile_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                (List.map (fun n -> (n, n)) [ "libc"; "stack"; "ifcc"; "lint"; "sanitize" ])))
          None
      & info [] ~docv:"NAME"
          ~doc:"Builtin to compile: libc, stack, ifcc, lint or sanitize. (The \
                *-pattern baselines and *-interproc depth variants have no DSL \
                form.)")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default: NAME.pvm).")
  in
  let run name output =
    let prog =
      List.assoc name
        (Policyvm.Builtin.all ~db:(Lazy.force reference_db)
           ~exempt:Toolchain.Libc.function_names)
    in
    let blob = Policyvm.Encode.to_bytes prog in
    let output = match output with Some o -> o | None -> name ^ ".pvm" in
    write_file output blob;
    Printf.printf "%s: %d bytes, digest %s -> %s\n" name (String.length blob)
      (Policyvm.Encode.digest_hex prog) output
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Emit the DSL transcription of a builtin policy as a canonical VM blob: the \
          starting point for a custom program, which a provider configures and a client \
          negotiates with $(b,--policy-file). Builtins themselves negotiate as native \
          markers and run natively; this blob judges exactly as the builtin does, but \
          its digest is not the builtin's.")
    Term.(const run $ name_arg $ output)

let policy_hash_cmd =
  let run (names, programs) =
    if names = [] then usage "policy hash: nothing to hash; pass --policy and/or --policy-file";
    let t =
      Service.Scheduler.create
        { Service.Scheduler.default_config with Service.Scheduler.programs }
    in
    let set = Service.Scheduler.program_set t names in
    List.iter
      (fun (name, blob) ->
        Printf.printf "%-24s %s\n" name (Crypto.Sha256.hex (Crypto.Sha256.digest blob)))
      set;
    Printf.printf "%-24s %s\n" "policy-set"
      (Crypto.Sha256.hex (Service.Scheduler.programs_digest t names))
  in
  Cmd.v
    (Cmd.info "hash"
       ~doc:
         "Print per-program digests and the negotiated policy-set digest for a \
          policy selection — the value measured into the judging enclave, offered \
          over the channel, recorded in audit leaves and folded into cache keys.")
    Term.(const run $ negotiated_arg)

let policy_cmd =
  Cmd.group
    (Cmd.info "policy"
       ~doc:
         "The negotiated policy VM: compile builtins' DSL transcriptions to canonical \
          blobs and hash negotiated policy sets. Run a blob with $(b,inspect \
          --policy-file).")
    [ policy_compile_cmd; policy_hash_cmd ]

let () =
  let doc = "EnGarde: mutually-trusted inspection of SGX enclaves (reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "engarde" ~doc)
          [
            gen_cmd;
            inspect_cmd;
            provision_cmd;
            rewrite_cmd;
            measure_cmd;
            cfg_cmd;
            callgraph_cmd;
            batch_cmd;
            serve_cmd;
            fleet_cmd;
            audit_cmd;
            policy_cmd;
          ]))
