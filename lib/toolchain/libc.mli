(** Synthetic musl-libc corpus.

    The paper's library-linking policy checks that every direct call into
    libc lands in a function whose SHA-256 hash matches a reference
    database generated from musl-libc v1.0.5 (Section 5). We reproduce
    the mechanism with a synthetic corpus: deterministically generated,
    self-contained function bodies whose linked byte ranges are
    layout-invariant (each function is 32-byte aligned and makes no
    cross-function references), so a hash database computed from the
    corpus matches the bytes of any binary linking it.

    Three versions model the policy outcomes: v1.0.5 (the version the
    provider demands), v1.0.4 (an outdated release — every function body
    differs), and a "tampered" v1.0.5 whose [memcpy] was modified by the
    client (models a backdoored function; only that hash differs). *)

type version = V1_0_4 | V1_0_5 | Tampered_1_0_5

val version_to_string : version -> string

val function_names : string list
(** All corpus function names; the first entries are the well-known musl
    exports ([memcpy], [strlen], [malloc], ...), the rest are internal
    ["__musl_*"] helpers. [__stack_chk_fail] is always included. *)

val build : Codegen.instrumentation -> version -> Asm.func list
(** Generate the corpus for a version. Under
    [stack_protector] instrumentation libc stays *unprotected* (the
    paper's numbers show only application code was recompiled with the
    flag; prebuilt musl was linked as-is), so the output is independent
    of the instrumentation except for IFCC, which does not touch libc
    either — the parameter exists for interface symmetry and future
    ablations. *)

val hash_db : version -> (string * string) list
(** [(name, sha256_hex_of_linked_bytes)] for every function, computed by
    assembling the corpus standalone. This is the reference database the
    provider and client agree on. *)

val mean_function_instructions : unit -> float
(** Average decoded instructions per corpus function, used by workload
    profiles to size libc breadth. *)
