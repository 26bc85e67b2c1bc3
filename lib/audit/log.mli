(** Merkle transparency log of inspection verdicts.

    The paper's protocol ends at a verdict the provider must take on
    faith; this log makes the verdict itself attestable. Every
    completed inspection appends a canonical leaf — content address,
    accept/reject bit, findings digest, the judging enclave's
    measurement, per-phase modelled cycles — to an RFC-6962 tree
    ({!Merkle}). A {e checkpoint} is the tree head quote-signed by the
    SGX quoting enclave ({!Sgx.Quote}): the 32-byte [report_data] binds
    both the size and the root, so anyone holding the device public key
    can verify (a) a given verdict is in the log ({e inclusion}) and
    (b) the log between any two checkpoints only ever grew
    ({e consistency} — no fork, no truncation, no rewritten history).

    Verification is pure: it needs the checkpoint, the leaf, the proof
    and the public key — not the log, not the enclave, not the host that
    produced them. *)

type leaf = {
  key : string;  (** the verdict cache's content address *)
  accepted : bool;
  findings_digest : string;
      (** SHA-256 of the canonical findings encoding (digest of "" when
          the binary was accepted) *)
  measurement : string;  (** enclave measurement of the judging run *)
  programs_digest : string;
      (** negotiated policy-set digest of the judging run ([""] when
          the run predates negotiation) — auditors can tie every
          verdict event to the exact programs that produced it *)
  instructions : int;
  disassembly_cycles : int;
  policy_cycles : int;
  loading_cycles : int;
}

val leaf_bytes : leaf -> string
(** Canonical serialization — the exact bytes that are Merkle-hashed,
    shipped to verifiers, and persisted. *)

val leaf_of_bytes : string -> leaf option
(** Strict inverse of {!leaf_bytes}; [None] on any malformed input. *)

type t

val create : unit -> t
val size : t -> int
val leaf : t -> int -> leaf option
val root : t -> string
val hash_count : t -> int

val append : t -> leaf -> int
(** Returns the new leaf's index. *)

type checkpoint = {
  ckpt_size : int;
  ckpt_root : string;
  quote : Sgx.Quote.t;  (** report_data = {!binding} of size and root *)
}

val checkpoint : t -> device:Sgx.Quote.device -> measurement:string -> checkpoint
(** Quote-sign the current head as the service enclave [measurement]. *)

val checkpoint_to_bytes : checkpoint -> string
val checkpoint_of_bytes : string -> checkpoint option

type error =
  | Quote_invalid  (** signature fails under the device public key *)
  | Binding_mismatch  (** report_data is not the size/root commitment *)
  | Out_of_range  (** leaf index not below the checkpoint size *)
  | Proof_invalid  (** inclusion path does not reach the signed root *)
  | Inconsistent
      (** the two checkpoints are not prefix-consistent: the log was
          forked, truncated, or rewritten between them *)
  | Alien_enclave
      (** the checkpoint quote names a different enclave identity than
          the peer it supposedly came from *)

val error_to_string : error -> string

val verify_checkpoint : Crypto.Rsa.public -> checkpoint -> (unit, error) result

val prove_inclusion : t -> index:int -> size:int -> string list
(** Audit path for leaf [index] against the [size]-leaf prefix (use the
    checkpoint's [ckpt_size], which may trail the live log). *)

val verify_inclusion :
  Crypto.Rsa.public ->
  checkpoint ->
  index:int ->
  leaf:leaf ->
  proof:string list ->
  (unit, error) result
(** The client-side check: the checkpoint is genuinely quote-signed by
    the device AND [leaf] sits at [index] of the signed tree. *)

val verify_remote_leaf :
  Crypto.Rsa.public ->
  identity:string ->
  checkpoint ->
  index:int ->
  leaf:leaf ->
  proof:string list ->
  (unit, error) result
(** {!verify_inclusion} plus an enclave-identity pin: the checkpoint's
    quote must name exactly [identity] (the derived peer measurement),
    else [Alien_enclave]. This is the check a fleet node runs before
    importing a peer's verdict into its own cache. *)

val prove_consistency : t -> old_size:int -> size:int -> string list

val verify_consistency :
  Crypto.Rsa.public ->
  old_ckpt:checkpoint ->
  new_ckpt:checkpoint ->
  proof:string list ->
  (unit, error) result
(** Both checkpoints verify and the older tree is a prefix of the newer
    — the "log never forked" guarantee across checkpoint epochs. *)

val export : t -> string
(** All leaves in canonical form (the tree is rebuilt on import). *)

val import : string -> t option
