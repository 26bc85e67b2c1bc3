(** Fixed-size domain pool: the true-parallelism substrate.

    The scheduler's parallel dispatch is its one producer: it submits
    whole provisioning pipelines ({!submit}) from the scheduler thread
    and joins them ({!await}) a tick later. Workers take tasks from one
    shared FIFO behind one mutex. Exceptions raised by a task are
    captured in its future and rethrown at {!await} on the caller's
    thread, so failure semantics match running the closure in place. *)

type t

val create : domains:int -> t
(** Spawn [domains] worker domains ([domains] must be positive, or
    [Invalid_argument]). The whole process shares one OS scheduler:
    keep the total across live pools near
    [Domain.recommended_domain_count ()]. *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue one task. Raises [Invalid_argument] after {!shutdown}; a
    [submit] that returns has enqueued a task that runs before
    {!shutdown} returns. *)

val await : 'a future -> 'a
(** Block until the task finishes; returns its value or rethrows the
    exception it raised. [await] is idempotent — a failed future
    rethrows on every call. *)

val shutdown : t -> unit
(** Graceful: already-queued tasks still run, then the worker domains
    are joined. Idempotent. Futures obtained before shutdown remain
    awaitable. *)
