(** Cycle cost model for EnGarde's provisioning phases.

    The paper measures each phase in CPU cycles under the OpenSGX
    methodology: SGX instructions cost 10K cycles (see {!Sgx.Perf});
    ordinary in-enclave work runs "at native speed", which OpenSGX
    obtains from QEMU instruction counts scaled by natively measured
    IPC. We reproduce the same structure with per-operation unit costs,
    calibrated once, globally, against the Nginx row of Figure 3 — never
    per benchmark. All variation across benchmarks then comes from the
    structure of the binaries themselves. *)

(** {1 Disassembly phase} *)

val decode_base : int
(** Cycles to decode one instruction (table dispatch, ModRM parse). *)

val decode_per_byte : int
(** Additional cycles per instruction byte fetched and parsed. *)

val decode_per_prefix : int
(** Extra table lookups per prefix byte. *)

val buffer_record_bytes : int
(** Size of one instruction record in EnGarde's dynamically allocated
    instruction buffer. The paper allocates the buffer one page at a
    time to amortize the enclave-exit [malloc] trampoline (Section 4);
    records per page = 4096 / this. *)

val symhash_insert : int
(** Cycles to read one symbol-table entry and insert it into the symbol
    hash table (built during disassembly, Section 4). *)

(** {1 Policy phase} *)

val policy_step : int
(** Cycles per instruction-buffer entry visited by a linear policy scan
    (after the shared-index refactor: per pre-classified event a policy
    visits). *)

val index_step : int
(** Cycles to classify one instruction-buffer entry into the shared
    program-analysis index ({!Analysis.build}): mnemonic dispatch plus
    the table/call-site bookkeeping. Charged once per entry for the
    whole policy set, where the pre-index engine charged
    {!policy_step} per entry per policy. *)

val hash_memo_lookup : int
(** Consulting the shared function-hash store for an already-computed
    digest (one hash-table probe plus a 32-byte compare). *)

val call_target_compute : int
(** Computing a direct-call target and consulting the symbol table. *)

val hash_per_insn : int
(** Reading one instruction out of the buffer into the running SHA-256. *)

val hash_per_byte : int
(** SHA-256 absorption cost per instruction byte. *)

val hash_finalize : int
(** Digest finalization plus database comparison. *)

val backtrack_step : int
(** One instruction visited by the stack-policy backward source scan. *)

val pattern_probe : int
(** Matching one instruction against the canary epilogue pattern. *)

val range_probe : int
(** One sorted-array range query over the shared index (binary search
    over branch targets or table bounds: ~log2 n probes of a cache-warm
    int array plus bounds compares). *)

(** {1 CFG recovery and dataflow}

    Flow-sensitive policy mode recovers a per-function basic-block CFG
    from the already-built instruction buffer and shared index, then
    runs worklist dataflow over it. All work operates on pre-decoded
    entries, so the unit costs sit well below {!decode_base}. *)

val cfg_leader_step : int
(** Scanning one instruction-buffer entry during the block-leader pass
    (mnemonic test plus a bitset mark for branch targets). *)

val cfg_block : int
(** Materializing one basic block record (bounds, kind, edge slots). *)

val cfg_edge : int
(** Adding one CFG edge (successor append plus predecessor backlink). *)

val dom_step : int
(** One block visited by an iteration of the dominator fixpoint
    (intersection walk over the immediate-dominator array). *)

val dataflow_step : int
(** Applying one transfer function to one instruction during forward
    dataflow iteration. *)

val dataflow_join : int
(** Joining two dataflow facts across one CFG edge. *)

(** {1 Interprocedural tier}

    The call-graph construction pass and per-function dataflow
    summaries run over the already-built shared index, like CFG
    recovery; their unit costs therefore sit in the same band as the
    CFG constants. Summaries are memoized alongside
    {!Analysis.function_hash}, so repeat interprocedural passes pay
    only {!summary_memo_lookup} per function. *)

val callgraph_scan_step : int
(** Scanning one instruction-buffer entry of a function slice for
    tail-call and cross-function jump edges (mnemonic test plus a
    function-table binary search on branch targets). *)

val callgraph_edge : int
(** Materializing one call-graph edge (kind tag, adjacency append,
    predecessor backlink). Charged per edge even where the build keeps
    an indirect site once: the site pays for every table member it
    reaches. *)

val callgraph_scc_step : int
(** One step of the iterative Tarjan SCC condensation (stack push/pop
    plus lowlink update) that yields the bottom-up summary order. *)

val summary_step : int
(** Folding one instruction into a function summary (register
    read/write classification plus lattice update). *)

val summary_memo_lookup : int
(** Consulting the per-analysis summary memo for an already-computed
    function summary (hash-table probe keyed by function address). *)

val summary_apply : int
(** Applying one callee summary at a call site during an
    interprocedural transfer (mask merge plus clobber application). *)

(** {1 Loading phase} *)

val load_setup : int
(** Fixed cost: segment table walk, stack setup, control transfer. *)

val load_per_page : int
(** Mapping one page: page-table entry plus permission bits. *)

val reloc_apply : int
(** Applying one R_X86_64_RELATIVE relocation (read, add, write). *)

(** {1 Policy VM}

    Negotiated policies travel as canonical program blobs and are
    interpreted in-enclave by {!Policyvm.Vm}. The semantic work a
    program performs is charged through the same policy-phase
    constants above (a program's [charge] statements replicate the
    native modules' accounting bit for bit); the constants below
    price only the interpreter itself, on a separate counter, so
    DSL-vs-native cycle comparisons stay meaningful. *)

val vm_step : int
(** Evaluating one VM node (statement or expression): a tag dispatch
    plus operand fetches from the locals frame. *)

val vm_decode_per_byte : int
(** Validating one byte of a serialized program blob during canonical
    decoding (length checks, bounds checks, tree construction). *)

val vm_fuel_base : int
(** Fuel granted to a program before any per-entry scaling: enough for
    fixed setup whatever the workload size. One fuel unit is one VM
    node evaluation. *)

val vm_fuel_per_entry : int
(** Additional fuel per instruction-buffer entry. The bound must cover
    the quadratic stack-policy backtracking on real workloads while
    still forcing hostile programs to terminate. *)

val vm_charge_cap : int
(** Largest repeat count one [charge] statement may carry; the decoder
    rejects programs above it so a blob cannot inflate modelled cycles
    faster than it burns fuel. *)
