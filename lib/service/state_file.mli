(** Sealed service state on disk: the blob {!Scheduler.save_state}
    seals, at [PATH], and the monotonic counter it was sealed at, in a
    [PATH.ctr] sidecar. The blob is host-storable by design; the
    sidecar models the platform's counter NVRAM, which the platform
    (not the service) maintains.

    Every file is replaced atomically: the bytes go to [FILE.tmp], which
    is fsynced, renamed over [FILE], and then the directory is fsynced.
    A crash leaves each file whole, old or new, beside at most a stray
    or torn [.tmp] that nothing reads. The blob is written {e before}
    the sidecar. So a crash between the two leaves a blob one counter
    ahead of its sidecar, never behind it, and {!load} rolls the counter
    forward to a blob that authenticates at its own counter. Every
    restart is therefore warm at the last counter the sidecar recorded,
    warm at the next one, or — with no blob on disk — a cold start. *)

type loaded =
  | Cold  (** no blob at [PATH]: nothing restored *)
  | Warm of {
      counter : int;  (** the counter the blob authenticated at *)
      rolled_forward : bool;
          (** the blob was ahead of its sidecar: the last save was cut
              after its blob and before its counter reached the disk *)
      log_leaves : int;
      cache_entries : int;
    }

val load : Scheduler.t -> device:Sgx.Quote.device -> string -> (loaded, Audit.Seal.error) result
(** Restore the sidecar's counter into [device] (also when the blob is
    missing, so the next save cannot reuse a counter value), then
    warm-start [t] from the blob through {!Scheduler.load_state}. A
    blob behind its sidecar, tampered with or sealed by another enclave
    identity fails with the corresponding {!Audit.Seal.error}. *)

val writes : Scheduler.t -> device:Sgx.Quote.device -> string -> (string * string) list
(** Seal [t]'s state (incrementing the counter) and return the
    [(file, bytes)] replacements that record it, in the order {!save}
    performs them: the blob at [PATH], then the counter at [PATH.ctr]. *)

val write_atomic : string -> string -> unit
(** Replace a file's contents through [FILE.tmp], fsync and rename, then
    fsync the directory. *)

val save : Scheduler.t -> device:Sgx.Quote.device -> string -> unit
(** {!write_atomic} every one of {!writes}, in order. *)
