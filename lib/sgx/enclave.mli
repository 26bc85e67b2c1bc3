(** Enclave lifecycle model: ECREATE / EADD / EEXTEND / EINIT during
    build, EENTER / EEXIT for mode switches, EAUG-style post-init page
    addition (SGX v2), and EMODPE / EMODPR page-permission changes
    (SGX v2 — the feature the paper says EnGarde requires for security).

    Every SGX instruction executed is charged to the enclave's
    {!Perf.t} counter at 10K cycles each. *)

type perm = { r : bool; w : bool; x : bool }

val rw : perm
val rx : perm
val r_only : perm
val none : perm
val perm_to_string : perm -> string

type state = Building | Live | Sealed

exception Sgx_fault of string
(** Architectural faults: bad address, permission violation, wrong
    lifecycle state, EPC exhaustion surfaced to the caller. *)

type t

val ecreate : Epc.t -> ?perf:Perf.t -> base:int -> size:int -> unit -> t
(** Reserve the virtual range [base, base+size). Page-aligned both. *)

val base : t -> int
val size : t -> int
val state : t -> state
val perf : t -> Perf.t
val page_count : t -> int

val eadd : t -> vaddr:int -> perm:perm -> content:string -> unit
(** Add and measure one page during build (content length = page size).
    @raise Sgx_fault after EINIT. *)

val measure_data : t -> tag:string -> content:string -> unit
(** Fold a custom record ({!Measurement.measure_data}) into the build
    measurement — attested configuration that is not page content,
    e.g. the negotiated policy-set digest.
    @raise Sgx_fault after EINIT. *)

val einit : t -> string
(** Finalize the measurement; the enclave becomes [Live]. *)

val measurement : t -> string
(** @raise Sgx_fault before EINIT. *)

val eaug : t -> vaddr:int -> perm:perm -> unit
(** SGX v2: add a zeroed, unmeasured page to a [Live] enclave (used for
    heap growth while EnGarde receives client content).
    @raise Sgx_fault once the enclave is sealed. *)

val seal : t -> unit
(** EnGarde's host-side lock: no further pages may ever be added. *)

val eenter : t -> unit
val eexit : t -> unit
val in_enclave : t -> bool

val read : t -> vaddr:int -> len:int -> string
(** Read enclave memory. Requires enclave mode and [r] permission on
    every touched page. *)

val write : t -> vaddr:int -> string -> unit
(** Write enclave memory. Requires enclave mode and [w] permission. *)

val fetch : t -> vaddr:int -> len:int -> string
(** Instruction fetch: requires [x] permission. *)

val emodpe : t -> vaddr:int -> perm:perm -> unit
(** Extend (union) EPC-level permissions of a page, from inside. *)

val emodpr : t -> vaddr:int -> perm:perm -> unit
(** Restrict (intersect) EPC-level permissions of a page. *)

val page_perm : t -> vaddr:int -> perm option
(** EPC-level permissions of the page containing [vaddr], if mapped. *)

val destroy : t -> unit
(** EREMOVE all pages, returning them to the EPC. *)
