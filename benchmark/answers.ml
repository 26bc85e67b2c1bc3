(* The known-answer table. The expected rejections are transcribed from
   the fixture documentation in lib/toolchain/workloads.mli, not read
   back from a run, so a change that flips a verdict or renames a
   finding code fails the gate instead of redefining it. *)

type expect = Clean | Rejected of string list  (** distinct finding codes, sorted *)

(* Under the deep-inspect policy set (libc stack ifcc lint sanitize
   stack-interproc ifcc-interproc). Mask-in-callee is vindicated by the
   interprocedural tier but still rejected by the intra-procedural
   [ifcc] policy in the same set. *)
let fixtures =
  [
    ("jump-past-mask", Rejected [ "ifcc-unmasked-on-path" ]);
    ("early-ret", Rejected [ "stack-ret-unprotected" ]);
    ("jump-into-mask", Rejected [ "ifcc-unmasked-interproc" ]);
    ("tail-call-skip", Rejected [ "stack-ret-unprotected-interproc" ]);
    ("mask-in-callee", Rejected [ "ifcc-unmasked-on-path" ]);
    ("unsanitized-entry", Rejected [ "sanitize-unscrubbed-flags"; "sanitize-unscrubbed-reg" ]);
  ]

let describe = function
  | Clean -> "accepted with no findings"
  | Rejected codes -> "rejected with " ^ String.concat " + " codes

(* [Ok ()] when a verdict matches; otherwise what was expected and what
   came back. *)
let check expect ~accepted ~codes =
  let got = List.sort_uniq compare codes in
  let matches =
    match expect with
    | Clean -> accepted && got = []
    | Rejected want -> (not accepted) && got = List.sort_uniq compare want
  in
  if matches then Ok ()
  else
    Error
      (Printf.sprintf "expected %s, got %s" (describe expect)
         (if accepted && got = [] then "accepted"
          else
            (if accepted then "accepted" else "rejected")
            ^ (if got = [] then "" else " with " ^ String.concat " + " got)))
