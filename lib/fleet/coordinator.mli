(** Fleet coordinator: routing, pumping, failure handling.

    The coordinator owns N {!Node}s, wires every pair with a loopback
    transport, and dispatches inspection jobs:

    + {e rendezvous routing}: jobs route by highest-random-weight hash
      of their cache content address, so resubmissions of the same
      binary land on the node whose cache is warm — without a routing
      table that would need rebalancing when membership changes;
    + {e work stealing}: when the preferred node's queue is deeper than
      the least-loaded live node's by more than [steal_margin], the job
      spills to the least-loaded node, which immediately sends the
      preferred node a [Verdict_pull] so a warm verdict still arrives
      before (or instead of) a redundant inspection;
    + {e quarantine}: a node that stops answering while holding work
      (no completions for [quarantine_after] consecutive rounds) is
      quarantined — every peer drops its future pushes, routing skips
      it, and its in-flight jobs are resubmitted to the survivors. A
      node that presents a forged quote is quarantined by the peers
      themselves at verification time.

    The coordinator is untrusted in the EnGarde sense: it moves opaque
    jobs and pumps ticks. All trust decisions (quote checks, inclusion
    proofs) happen inside the nodes. *)

type config = {
  nodes : int;
  seed : string;  (** deterministic root for device keys and nonces *)
  node_config : Service.Scheduler.config;
      (** per-node scheduler template; [audit] is forced on *)
  steal_margin : int;  (** queue-depth gap that triggers spillover *)
  quarantine_after : int;
      (** pump rounds a node may hold work without completing anything
          before it is declared unresponsive *)
}

val default_config : config
(** 2 nodes, audit on, [steal_margin = 8], [quarantine_after = 2000]. *)

type t

val create : config -> t
(** Build the manifest, provision device keys, create and fully
    interconnect the nodes, and run the mutual-attestation handshake to
    completion. Raises if any pair fails to attest. *)

val manifest : t -> Manifest.t
val node : t -> int -> Node.t

val route : t -> Service.Scheduler.job -> int
(** The rendezvous choice (after spillover) among live nodes. *)

val submit : t -> ?node:int -> Service.Scheduler.job -> (int * int, string) result
(** Submit a job — to [node] if forced (tests, cache-warming probes),
    else to {!route}'s choice. Returns (node, sequence number on that
    node) or the admission rejection. *)

val run_until_idle : ?max_rounds:int -> t -> (int * Service.Scheduler.completion) list
(** Pump until no live node holds work and no peer traffic is pending,
    then return (and clear) all accumulated (node, completion) pairs in
    collection order. Raises [Failure] if [max_rounds] is exhausted. *)

val quarantined : t -> (int * string) list
(** Quarantined nodes and why, oldest first. *)

val fail_node : t -> int -> unit
(** Chaos hook: the node stops being pumped (as if its process hung).
    The coordinator notices via the [quarantine_after] progress rule. *)

type node_stats = {
  completed : int;
  cross_hits : int;  (** cache hits served from imported verdicts *)
  imported : int;
  pipeline_runs : int;  (** real pipeline executions on this node *)
}

val stats : t -> node_stats array
val report : t -> int -> string
(** Node [i]'s metrics registry rendered (includes fleet_* counters). *)
