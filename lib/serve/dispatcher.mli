(** Request routing and fleet execution, decoupled.

    {b Routing is a pure simulation.}  The dispatcher slices the
    workload's virtual clock into batch windows, routes each window's
    requests over the live shards — consistent hashing on the service
    class so warm boot images stay hot, with a least-loaded override
    when the hash leaves a shard too far behind — sheds on full
    queues, and quarantines a shard whose request trips the watchdog
    or fault budget, redistributing its unserved queue.  All of that
    reads modeled state only: class hashes, per-window queue depths,
    quarantine flags, and two per-request facts (latency, tripped)
    that are themselves placement-independent.  The simulated
    placement, the dispatch statistics (including the modeled
    makespan) and the per-shard summaries are therefore pure functions
    of (workload, config).

    {b Execution is one parallel map.}  The requests the simulation
    placed run through {!Pool.map} on [pool] worker domains, each
    worker serving on its own {!Shard.t} and claiming the next request
    in id order.  Because a boot rewinds the machine to the sealed
    class image, an outcome is the same whichever worker serves it, so
    host scheduling changes only wall-clock time — never the report.
    See docs/SCALING.md.

    Backpressure is loss, not blocking: window queues are bounded and
    a request that finds every live queue full is shed and counted. *)

module Route : sig
  (** The consistent-hash ring, exposed for tests: pure functions of
      the shard count and replica count. *)

  type ring

  val hash64 : string -> int64
  (** FNV-1a 64 of a key. *)

  val make : shards:int -> replicas:int -> ring
  (** [replicas] virtual points per shard. *)

  val owner : ring -> Shard.klass -> int
  (** The shard whose point follows the class's hash (wrapping). *)

  val owner_alive : ring -> alive:(int -> bool) -> Shard.klass -> int option
  (** Like {!owner}, but walking past points of dead shards; [None]
      when no shard is alive. *)
end

type config = {
  shards : int;  (** Fleet size; must be >= 1. *)
  queue_cap : int;  (** Per-shard, per-window queue bound. *)
  imbalance : int;
      (** Least-loaded override threshold: the hash-preferred shard is
          overridden when its queue exceeds the shortest live queue by
          more than this. *)
  replicas : int;  (** Virtual ring points per shard. *)
  batch_window : int;  (** Virtual cycles per dispatch window. *)
  image_cap : int;  (** Boot-image cache capacity per shard. *)
  backend : Isa.Machine.mode option;
      (** Protection-backend override applied to every shard
          ({!Shard.create}): the whole fleet serves under hardware
          rings, 645 software rings or the capability machine. *)
  watchdog : int option;  (** Per-run watchdog budget for every shard. *)
  inject : Hw.Inject.plan option;  (** Fault plan attached to every shard. *)
  preload : (Shard.klass * string) list;
      (** Externally captured boot images ([--snapshot]). *)
  pool : int option;
      (** Worker domains executing the campaign; [None] sizes the pool
          to [min shards (Domain.recommended_domain_count ())].  Pool
          size affects host time only, never the report. *)
  trace : Shard.trace_cfg option;
      (** Per-request tracing on every shard; traces land in
          {!Shard.outcome.trace}.  Because the trace configuration is
          sealed into each class's boot image, the captured traces are
          placement-independent like every other outcome field. *)
  migrate : (int * int * int) option;
      (** [(window, from, to)]: at dispatch window [window] (0-based
          ordinal) drain shard [from] — its routed queue rides the
          carry to the next window in arrival order, like a quarantine
          redistribution — and retire it from the rotation; from the
          next window its classes route to shard [to].  Because
          outcomes are placement-independent and the drain only moves
          (never drops) requests, a migration leaves the report's
          fleet section byte-identical as long as nothing is shed. *)
  restart_every : int option;
      (** Rolling restarts: every [n] windows the next shard in id
          order goes down for exactly one window — the ring routes
          around it, nothing queues on it (zero dropped requests), and
          it comes back with a cold boot-image cache. *)
  autoscale : bool;
      (** Queue-depth-driven shard autoscaling: routing starts on one
          active shard; before each window the active set grows until
          the window's offered load fits within 3/4 of its aggregate
          queue capacity (so a burst is absorbed, not shed), and after
          a quiet window it shrinks when routed depth falls below a
          quarter of the next-smaller set's capacity.  [shards] is the
          ceiling.  Purely modeled, so placement stays deterministic. *)
}

val default_config : shards:int -> config
(** [queue_cap 64], [imbalance 4], [replicas 16], [batch_window 4096],
    [image_cap 8], no watchdog, no injection, no preload, pool sized
    to the host, no tracing, no migration, no rolling
    restarts, no autoscaling. *)

type stats = {
  completed : int;  (** Requests served to an exit. *)
  ok : int;  (** Of those, how many exited cleanly. *)
  shed : int;  (** Dropped: every live queue full, or no shard live. *)
  redistributed : int;
      (** Requests re-queued after their shard was quarantined. *)
  routed_hash : int;  (** Requests placed on their hash-preferred shard. *)
  routed_balanced : int;  (** Requests moved by the least-loaded override. *)
  batches : int;  (** Dispatch windows routed. *)
  makespan : int;
      (** Modeled fleet time: the sum over windows of the slowest
          shard's busy cycles in that window — what wall-clock would
          be if each shard were a real machine. *)
  quarantined : int;  (** Shards quarantined by the end of the run. *)
  migrated : int;
      (** Requests drained off the migrating shard at its drain window
          (re-queued, never dropped). *)
  restarts : int;  (** Rolling-restart cycles taken. *)
  peak_active : int;
      (** Autoscale high-water mark of the active shard set; equals
          [shards] when autoscaling is off. *)
}

type shard_model = {
  ms_id : int;
  ms_served : int;  (** Requests the simulation placed on this shard. *)
  ms_cold : int;  (** Cold boots in simulated service order. *)
  ms_warm : int;  (** Warm boots in simulated service order. *)
  ms_busy : int;  (** Sum of served requests' modeled latencies. *)
  ms_image : Hw.Assoc.stats;
      (** Image-cache hits/misses/evictions replayed over the
          simulated service order at [image_cap] capacity. *)
  ms_quarantined : bool;
}
(** One shard of the {e modeled} fleet.  Deterministic: replayed from
    the routing simulation in service order, so the numbers are what a
    dedicated per-shard machine would have counted — independent of
    which pool worker actually ran each request on the host. *)

type result = {
  models : shard_model array;
  outcomes : Shard.outcome list;
      (** Sorted by request id, [shard_id] set to the simulated
          placement; shed requests are absent. *)
  stats : stats;
  workers : Shard.t array;
      (** The pool workers' shard states, for image persistence
          ([--snapshot]); their counters are host-scheduling dependent
          — report from [models] instead. *)
}

val validate : config -> (unit, string) Stdlib.result
(** Every check on a config, in one place: [shards < 1],
    [queue_cap < 1], [batch_window < 1], [image_cap < 0],
    [replicas < 1], [imbalance < 0], [pool] some value [< 1],
    {!Shard.validate} on [watchdog] and [trace], a [migrate] triple out
    of range or with source equal to target, [restart_every] below 1.
    The error is the message [ringsim serve] prints for the flag
    (["--shards must be at least 1"]). *)

val run : config -> Workload.request list -> result
(** Execute the whole workload.  Raises [Invalid_argument] with
    {!validate}'s message on a bad config and [Failure] on a
    catalog/assembly defect (unknown program, bad image). *)
