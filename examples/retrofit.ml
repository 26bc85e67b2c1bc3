(* Retrofit: the extension the paper sketches in Section 1 — instead of
   merely rejecting non-compliant code, EnGarde instruments it.

   A client ships a binary compiled without -fstack-protector. The
   provider's policy rejects it. EnGarde's rewriter lifts the binary,
   inserts the canary idiom into every unprotected function, re-links
   it, and the very same policy now accepts the result — with the
   library-linking policy still passing (the agreed libc bodies are left
   byte-identical).

   Run with: dune exec examples/retrofit.exe *)

let stack_policy () = Engarde.Policy_stack.make ~exempt:Toolchain.Libc.function_names ()
let db = Toolchain.Libc.hash_db Toolchain.Libc.V1_0_5

(* The enclave's own front half: the same checks, disassembly and
   analysis context provisioning would judge with. *)
let inspect label raw =
  let report = Engarde.Report.create () in
  let _, ctx =
    match Engarde.Provision.examine report raw with
    | Ok r -> r
    | Error r -> failwith (Engarde.Provision.rejection_to_string r)
  in
  Printf.printf "%s: %d instructions\n" label report.Engarde.Report.instructions;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-20s %s\n" name (Engarde.Policy.verdict_to_string v))
    (Engarde.Policy.run_all ctx
       [ stack_policy (); Engarde.Policy_libc.make ~db () ])

let () =
  print_endline "Retrofit: rewriting a rejected binary into compliance";
  print_newline ();
  let img =
    Toolchain.Linker.link (Toolchain.Workloads.build Toolchain.Codegen.plain
                             Toolchain.Workloads.Mcf)
  in
  inspect "original (no canaries)" img.Toolchain.Linker.elf;
  print_newline ();
  print_endline "... rewriting: lift to IR, insert canaries, re-link ...";
  print_newline ();
  match
    Toolchain.Rewrite.add_stack_protection ~exempt:Toolchain.Libc.function_names
      (Result.get_ok (Elf64.Reader.parse img.Toolchain.Linker.elf))
  with
  | Error e -> failwith (Toolchain.Rewrite.error_to_string e)
  | Ok rewritten ->
      inspect "rewritten" rewritten;
      Printf.printf "\nsize: %d -> %d bytes of ELF\n"
        (String.length img.Toolchain.Linker.elf)
        (String.length rewritten);
      print_endline "both policies now pass; the binary can be provisioned normally"
