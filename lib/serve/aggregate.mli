(** Cross-shard metrics aggregation: one deterministic fleet report.

    Every merge here is commutative and associative —
    {!Trace.Counters.add} for counter deltas, {!Trace.Histogram.merge}
    for latency distributions, pointwise sums for ring attribution —
    so the fleet totals do not depend on shard order, and the
    [fleet] section of the report does not depend on the shard count
    at all when nothing was shed: each request's outcome is the same
    whichever shard served it, and the sums are over requests, not
    shards.  That is what [test/cram/serve.t] compares. *)

type shard_summary = {
  shard_id : int;
  served : int;
  shard_ok : int;
  cold_boots : int;
  warm_boots : int;
  busy_cycles : int;
  image_stats : Hw.Assoc.stats;
  shard_quarantined : bool;
  shard_latency : Trace.Histogram.t;
}

type fleet_trace = {
  tr_requests : int;  (** Requests that carried a trace. *)
  tr_events : int;  (** Retained events, summed over requests. *)
  tr_spans : int;  (** Retained completed spans. *)
  tr_seen : int;  (** Events offered to the samplers. *)
  tr_dropped : int;  (** Events overwritten in the ring buffers. *)
  tr_sampled_out : int;  (** Events deselected by the samplers. *)
  tr_spans_sampled_out : int;
}
(** Fleet-wide trace accounting: sums over request traces, so — like
    every other fleet field — independent of placement. *)

type fleet = {
  completed : int;
  ok : int;
  exits : (string * int) list;  (** [(label, count)], sorted by label. *)
  per_class : ((string * int) * int) list;
      (** Served requests per service class, sorted by class. *)
  latency : Trace.Histogram.t;
      (** Per-request modeled-cycle latencies, fleet-wide. *)
  counters : Trace.Counters.snapshot option;
      (** Sum of every request's counter delta; [None] when no
          request completed. *)
  rings : (int * int * int) list;
      (** Fleet [(ring, cycles, instructions)] attribution. *)
  kernel_cycles : int;
  trace : fleet_trace option;
      (** [None] when the fleet ran untraced (or nothing completed). *)
}

type t = {
  fleet : fleet;
  shards : shard_summary array;
  dispatch : Dispatcher.stats;
}

val build :
  Dispatcher.shard_model array -> Shard.outcome list -> Dispatcher.stats -> t
(** The per-shard summaries come from the dispatcher's {e modeled}
    fleet, not the pool workers that happened to execute the requests
    on the host — that is what keeps the report byte-identical across
    pool sizes. *)

val chrome_trace : Shard.outcome list -> string
(** The merged fleet Chrome trace: one Chrome "process" per traced
    request (pid = request id, in request-id order — pass
    {!Dispatcher.result.outcomes}, which is already sorted), rings as
    threads inside each.  Untraced outcomes are skipped.  Because a
    request's trace is placement-independent, the document is
    byte-identical across shard counts and pool sizes. *)

val requests_per_modeled_sec : t -> float
(** [completed * 1e6 / makespan] — one modeled cycle is one
    microsecond, the chrome-trace convention.  0 when nothing ran. *)

val report_json : ?config:(string * string) list -> t -> string
(** The fleet report.  [config] entries ([(key, rendered_json)]) are
    embedded verbatim in a leading [config] section — the one section
    expected to vary with shard count and flags.  The [fleet] section
    is a function of the outcome set alone; [dispatch] and [shards]
    describe placement and the workers.  Byte-deterministic. *)

val pp : Format.formatter -> t -> unit
(** Human-readable fleet summary. *)
