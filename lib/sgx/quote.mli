(** Quoting-enclave model for remote attestation.

    Each SGX machine carries a device-specific attestation key that only
    the Intel-provided quoting enclave can use (the paper's "Intel EPID
    key"; modelled here as an RSA signing key). A quote binds an enclave
    measurement and caller-chosen report data (EnGarde puts the hash of
    the enclave's ephemeral RSA public key there, so the client's secure
    channel is rooted in hardware). *)

type device

val device_create : seed:string -> device
(** Provision a machine with its attestation key (deterministic from
    [seed], so experiments are reproducible) and its sealing secret,
    with every monotonic counter at 0. Each call generates the 1024-bit
    key afresh, which costs far more than a quote: a host creates its
    device once and keeps it. [Engarde.Provision.run] keeps one per
    seed for the life of the process. *)

val device_public : device -> Crypto.Rsa.public
(** What Intel's attestation service would publish for verification. *)

val seal_key : device -> measurement:string -> string
(** EGETKEY model, MRENCLAVE policy: a 32-byte sealing key derived from
    the device's fused sealing secret and the enclave measurement. Only
    the same enclave identity on the same machine re-derives it — a
    blob sealed under it is useless to other enclaves and other hosts.
    @raise Invalid_argument unless [measurement] is 32 bytes. *)

val counter_read : device -> id:string -> int
(** Current value of the named monotonic counter (0 if never used).
    Models the SGX platform-services counters backing rollback
    protection for sealed state. *)

val counter_increment : device -> id:string -> int
(** Bump the named counter; returns the post-increment value. Counters
    never decrease through this interface. *)

val counter_restore : device -> id:string -> int -> unit
(** Reload counter NVRAM in a fresh process from externally persisted
    platform state (simulation escape hatch for multi-invocation CLI
    runs; never lowers the counter within a live device). *)

type t = {
  measurement : string;   (** 32 bytes *)
  report_data : string;   (** 32 bytes, e.g. SHA-256 of the enclave pubkey *)
  signature : string;
}

val quote : device -> enclave:Enclave.t -> report_data:string -> t
(** EREPORT + quoting-enclave signing. [report_data] must be 32 bytes.
    @raise Enclave.Sgx_fault if the enclave is not initialized. *)

val quote_measured : device -> measurement:string -> report_data:string -> t
(** The signing path of {!quote} for a long-running service enclave
    attesting its own derived state (audit-log checkpoints): EREPORT on
    the caller yields [measurement], the quoting enclave signs it with
    [report_data]. No model-enclave perf counter is charged.
    @raise Invalid_argument unless both arguments are 32 bytes. *)

val verify : Crypto.Rsa.public -> t -> bool

val to_bytes : t -> string
val of_bytes : string -> t option
