(** The five flow builtins, transcribed as DSL programs: the VM's
    differential corpus.

    Each program is a line-for-line transcription of its native module
    ([Policy_libc], [Policy_stack] flow mode, [Policy_ifcc] flow mode,
    [Policy_lint], [Policy_sanitize]): same event traversal order, same
    [Charge] placement, same finding codes and format strings. The
    service runs the native modules and negotiates every builtin as a
    native marker; these programs exist so the tests can hold the VM to
    the natives (a golden table over every workload and fixture pins
    verdicts, findings and modelled cycles), and as the starting point
    for a custom program ([engarde policy compile]).

    Inputs that natively arrive as [make] arguments travel as embedded
    tables instead, so they are part of the canonical blob: the libc
    hash db (table 0 of [libc]) and the stack-protector exemption list
    (table 0 of [stack]). *)

val libc : db:(string * string) list -> Prog.t

val all : db:(string * string) list -> exempt:string list -> (string * Prog.t) list
(** [(short-name, program)] in the canonical order [libc; stack; ifcc;
    lint; sanitize] — the short names are the scheduler's policy names. *)
