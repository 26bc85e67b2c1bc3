(** Incremental RFC-6962-style Merkle tree (the Certificate Transparency
    hash tree) over an append-only sequence of leaves.

    Domain separation follows the RFC: a leaf hashes as
    [SHA-256(0x00 || data)], an interior node as
    [SHA-256(0x01 || left || right)], and the empty tree's head is
    [SHA-256("")]. The split point of an n-leaf tree is the largest
    power of two strictly below n, so the tree of any prefix is a
    subtree of every later tree — which is what makes consistency
    proofs possible.

    Appends are O(log n) amortized (a mountain range of perfect-subtree
    peaks is folded as leaves arrive); proofs are O(log n) hashes built
    from the retained leaf hashes. Verification needs no tree at all —
    only the proof, the claimed root, and sizes — so a client can check
    a provider's log from the other side of an attestation channel. *)

type t

val create : unit -> t

val append : t -> string -> int
(** Append one leaf (raw data, any length); returns its 0-based index. *)

val root : t -> string
(** Head of the current tree (32 bytes); [SHA-256("")] when empty. *)

val root_at : t -> size:int -> string
(** Head of the prefix tree over the first [size] leaves.
    @raise Invalid_argument if [size] exceeds {!size} or is negative. *)

val hash_count : t -> int
(** Total SHA-256 compressions this tree has performed (appends and
    proofs) — the bench's amortized-cost counter. *)

val inclusion_proof : t -> index:int -> size:int -> string list
(** Audit path proving leaf [index] is in the [size]-leaf prefix tree,
    ordered leaf-to-root (RFC 6962 [PATH(m, D[n])]).
    @raise Invalid_argument unless [0 <= index < size <= size t]. *)

val verify_inclusion :
  root:string -> size:int -> index:int -> leaf:string -> proof:string list -> bool
(** Check that [leaf] (raw data, hashed here) sits at [index] of the
    [size]-leaf tree with head [root]. Pure: no tree needed. *)

val consistency_proof : t -> old_size:int -> size:int -> string list
(** Proof that the [old_size]-leaf prefix tree is a prefix of the
    [size]-leaf tree (RFC 6962 [PROOF(m, D[n])]).
    @raise Invalid_argument unless [0 < old_size <= size <= size t]. *)

val verify_consistency :
  old_root:string ->
  old_size:int ->
  root:string ->
  size:int ->
  proof:string list ->
  bool
(** Check that the log never forked between the two heads: the old tree
    must be reconstructible from the proof (yielding [old_root]) while
    the same material extends to [root]. [old_size = size] demands
    equal roots and an empty proof. *)
