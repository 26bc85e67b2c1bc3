(** End-to-end enclave provisioning (paper, Figure 1 and Section 3).

    The provider creates a fresh enclave containing the EnGarde
    bootstrap (crypto library, loader, the agreed policy modules) plus a
    preallocated heap (OpenSGX commits all enclave memory at build time;
    the paper raises the initial heap to 5000 page frames). The client
    attests the enclave, wraps an AES-256 session key under the
    enclave's ephemeral RSA key, and streams its executable in encrypted
    blocks. EnGarde decrypts, validates the ELF header, rejects stripped
    binaries and mixed code/data pages, disassembles under the NaCl
    constraints, runs every policy module, and only then loads,
    relocates, applies W^X and seals the enclave. The provider learns
    the verdict and the executable page list — nothing else. *)

type config = {
  epc_pages : int;           (** 32000 in the paper's OpenSGX patch *)
  heap_pages : int;          (** 5000 initial heap frames, per the paper *)
  bootstrap_pages : int;     (** pages of EnGarde runtime measured in *)
  image_pages : int;         (** pages committed for the client image
                                 (SGX1: all memory committed at build) *)
  rsa_bits : int;            (** enclave ephemeral keypair; 2048 in the
                                 paper, smaller keeps tests fast *)
  stack_pages : int;
  seed : string;             (** all protocol randomness derives from it *)
  policy_names : string list;
      (** measured into the enclave: changing the agreed policy set
          changes the measurement the client expects *)
  policy_digest : string;
      (** {!Channel.Session.policy_set_digest} of the negotiated policy
          programs, measured into the enclave as an ["EGPOLICY"] record;
          [""] disables the negotiation step entirely *)
}

val default_config : config

val fast_config : config
(** A reduced enclave for demos, tests and the CLI's [--fast]: 4,096
    EPC pages, 512 heap, 8 bootstrap and 1,600 image pages, 512-bit
    RSA. *)

val enclave_base : int
val image_region_base : int
(** Where the client image lands inside the enclave (= load bias). *)

type rejection =
  | Transfer_tampered of string   (** block authentication failed *)
  | Bad_elf of string             (** header validation failure *)
  | Stripped_binary               (** no symbol table: auto-rejected *)
  | Mixed_pages of string
  | Disassembly_failed of string  (** NaCl constraint violation *)
  | Policy_violations of (string * Policy.verdict) list
  | Load_failed of string

val rejection_to_string : rejection -> string

val verdict_of_result : (Loader.loaded, rejection) result -> bool * string
(** The verdict the enclave sends for a pipeline result: accepted, with
    ["policy-compliant; N executable pages, M relocations"], or refused
    with {!rejection_to_string}. The service's cached verdicts carry the
    same text. *)

val examine : Report.t -> string -> (Elf64.Reader.t * Policy.context, rejection) result
(** The inspector's front half, exactly as {!run} judges a staged file:
    parse and validate the header, reject a stripped binary, reject
    mixed code/data pages, require exactly one executable section,
    disassemble it under the NaCl constraints from an off-heap copy,
    and build the shared analysis context the policy modules read.
    Every cycle lands on [report] ([instructions], [disassembly], and
    the context's analysis, CFG, call-graph, summary and policy
    streams), so a caller that runs policies on the context gets the
    enclave's verdicts and charges without the enclave. *)

type channel = [ `Legacy | `Streaming ]
(** Which transfer flavor carries the payload: the paper-faithful
    [Code_block] channel, or the EGREC1 streaming record layer with
    pipelined inspection (and, with a ticket, 0-RTT resumption). Both
    produce bit-identical verdicts, findings, and modelled cycles. *)

type channel_stats = {
  records : int;          (** records the inspector ingested *)
  record_bytes : int;     (** ciphertext bytes across those records *)
  in_flight_peak : int;   (** peak queued wire bytes during the transfer *)
  epoch_updates : int;    (** key ratchets the reader followed *)
  resumed : bool;         (** this run rode a 0-RTT ticket *)
  fallback : bool;        (** a 0-RTT attempt fell back to a full handshake *)
}

(** Progress callbacks from {!run}, for latency instrumentation (e.g.
    time-to-first-policy-relevant-event, measured from
    [Transfer_started]). [Transfer_started] and [Policy_phase] fire on
    both channels; [Prefix_validated] comes only from the record
    channel's ingest, since the block channel receives everything
    before it looks at any of it. *)
type pipeline_event =
  | Transfer_started
      (** the session is established and the ingest step begins: on the
          block channel before the client sends its blocks, on the
          record channel after the enclave has unwrapped the session key
          and checked the policy offer (or accepted a 0-RTT ticket) *)
  | Prefix_validated
      (** the first 16 staged bytes arrived and begin with the ELF64
          magic, read back from enclave staging; checked once, so a
          stream that fails it never fires *)
  | Policy_phase            (** authoritative inspection reached the policy run *)

type outcome = {
  result : (Loader.loaded, rejection) result;
  report : Report.t;
  policy_results : (string * Policy.verdict) list;
  measurement : string;
  enclave : Sgx.Enclave.t;
  host : Sgx.Host_os.t;
  client_verdict : (bool * string) option;
      (** what the client read back over the channel: [None] unless it
          saw exactly one verdict besides negotiation echoes, tickets
          and resume-accepts, the [Policy_accept] its offer expects (none
          without an offer), and after 0-RTT a valid [Resume_accept] *)
  attestation_failure : Channel.Client.failure option;
  negotiated_digest : string option;
      (** the policy-set digest the enclave verified against its
          measurement; [None] when no negotiation happened or the offer
          was rejected *)
  channel_stats : channel_stats option;
      (** streaming-channel telemetry; [None] on the legacy channel *)
  ticket : (string * string) option;
      (** the client's stash after an accepted streaming run: the sealed
          ticket blob and the resumption secret to present it with
          (feed back as [?resume] to skip the next RSA handshake) *)
}

val findings : outcome -> Policy.finding list
(** Every structured violation across the outcome's policy results, in
    run order (and, within one policy, ascending address order). *)

val expected_measurement : config -> string
(** What both parties compute for a correctly built EnGarde enclave —
    pure replay of the build log, no EPC needed. The replay and the
    host's build walk one plan per layout (policy set and page counts),
    memoized per process, through {!Sgx.Measurement.page}'s page memo:
    once a process has built a layout, replaying it hashes no page, and
    the digest is the same either way. *)

val enclave_keypair : config -> measurement:string -> Crypto.Rsa.keypair
(** The enclave's RSA keypair for a measurement: what
    [Crypto.Rsa.generate] draws at [config.rsa_bits] from a DRBG
    personalized ["engarde-enclave"] and seeded with
    [config.seed ^ measurement]. Memoized per (seed, measurement,
    modulus size) per process, at most {!plan_cap} keys, and shared by
    every domain. *)

val plan_cap : int
(** How many layouts' plans, and how many keypairs, a process keeps. *)

val keypairs_memoized : unit -> int
(** Keypairs the memo holds now. *)

(** Resumption tickets: sealed under the inspector's SGX sealing key,
    binding the enclave measurement, the negotiated policy-set digest,
    and a provider-chosen key epoch. Deterministic SIV-style sealing —
    the plaintext MAC doubles as the CTR nonce. Exposed so tests and
    tooling can mint or examine tickets; {!run} seals and unseals its
    own. *)
module Ticket : sig
  val blob_len : int

  val seal :
    Sgx.Quote.device ->
    measurement:string ->
    policy_digest:string ->
    epoch:int ->
    resumption:string ->
    string

  val unseal :
    Sgx.Quote.device ->
    measurement:string ->
    policy_digest:string ->
    epoch:int ->
    string ->
    (string, string) result
  (** The sealed resumption secret, or why the ticket was refused
      (unparseable, stale epoch, failed authentication, measurement or
      policy-digest mismatch). *)
end

val run :
  ?tamper:(Channel.Wire.t -> Channel.Wire.t) ->
  ?policies:(Policy.t list) ->
  ?programs:(string * string) list ->
  ?channel:channel ->
  ?resume:(string * string) ->
  ?ticket_epoch:int ->
  ?on_event:(pipeline_event -> unit) ->
  config ->
  payload:string ->
  outcome
(** Execute the whole protocol over a loopback transport. [tamper]
    models an adversary on the untrusted path. [policies] defaults to
    none (pure loading); pass the agreed modules for compliance runs.
    [programs] is what the client offers in the negotiation step; when
    [config.policy_digest] is non-empty the enclave requires an offer
    hashing to exactly that digest before accepting any code.

    [channel] defaults to [`Legacy] (the paper-faithful block
    transfer). [`Streaming] carries the payload as EGREC1 records with
    pipelined inspection; an accepted streaming run also issues a
    resumption ticket (see [outcome.ticket]). Pass that pair back as
    [resume] to attempt 0-RTT: the client streams immediately under
    ticket-derived keys and the RSA handshake (and quote generation) is
    skipped entirely. A stale or mismatched ticket falls back to the
    full handshake transparently — the run still completes, with
    [channel_stats.fallback] set. [ticket_epoch] is the provider's
    ticket-key generation; bumping it invalidates all outstanding
    tickets. [on_event] observes pipeline progress.

    The machine's quoting device comes from a process-wide memo keyed by
    [config.seed]: the first run on a seed generates its 1024-bit key,
    and every later run on that seed, in any domain, reuses it. A run
    reads only the device's quoting key and seal secret, never its
    monotonic counters. *)
