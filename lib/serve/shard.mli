(** A serving shard: one worker owning one simulated ring machine at a
    time, warm-booted from a checkpoint image between requests.

    A shard serves a request by rewinding a machine to the boot image
    of the request's service class — the [(program, iterations)] pair —
    and running it to completion.  The first request of a class pays
    the cold boot (assemble the program, spawn the process, capture an
    {!Os.Snapshot} image); every later request of that class pays only
    {!Os.Snapshot.warm_boot}, whose cost is the image's listed words
    plus the pages earlier requests dirtied — not O(assemble), and not
    O(memory size).
    Boot images live in a bounded {!Hw.Assoc} LRU keyed by class, so a
    shard's memory stays bounded however many classes pass through it
    (capacity 0 disables caching: every request cold-boots).

    Because a request always starts from its class's boot image, its
    outcome — exit, modeled-cycle latency, counter deltas, per-ring
    profile — is a deterministic function of the class (and the
    injection plan), independent of the shard that served it, the
    domain it ran on, and the requests before it.  That is the
    per-shard half of the fleet determinism contract. *)

type klass = string * int
(** A service class: [(program, iterations)]. *)

type trace_cfg = { sample : int; seed : int; capacity : int; instr : int }
(** Per-shard tracing: keep 1 in [sample] events and spans (seeded,
    deterministic — see {!Trace.Event.set_sampling}) in an event
    arena of [capacity] cells.  [instr] samples the instruction
    stream at its own 1-in-[instr] rate ({!Trace.Event.set_instr_sampling});
    [0] means "follow [sample]".  The configuration is applied before a
    class's boot image is sealed, so it rewinds with every warm boot
    and a request's trace is placement-independent. *)

val default_trace_capacity : int
(** Event-arena capacity the serving layer defaults to (4096). *)

type request_trace = {
  t_events : Trace.Event.stamped list;
      (** Retained events, instruction text already resolved. *)
  t_spans : Trace.Span.completed list;  (** Drained: every span closed. *)
  t_seen : int;  (** Events offered to the sampler. *)
  t_dropped : int;  (** Events overwritten in the ring buffer. *)
  t_sampled_out : int;  (** Events deselected by the sampler. *)
  t_high_water : int;  (** Peak arena occupancy. *)
  t_spans_sampled_out : int;  (** Completed spans deselected. *)
}
(** One request's trace, captured at completion (before the next warm
    boot rewinds the machine). *)

type outcome = {
  request : Workload.request;
  shard_id : int;
  exit_label : string;  (** Stable label, e.g. ["exited"]. *)
  ok : bool;  (** The program ran to its exit service call. *)
  latency : int;  (** Modeled cycles from boot image to completion. *)
  delta : Trace.Counters.snapshot;
      (** Counter movement attributable to this request alone. *)
  ring_cycles : (int * int * int) list;
      (** Per-ring [(ring, cycles, instructions)] attribution. *)
  kernel_cycles : int;  (** Gatekeeper/supervisor attribution. *)
  tripped : bool;
      (** The request ended in quarantine (fault budget or watchdog):
          the dispatcher should quarantine this shard and redistribute
          its queue. *)
  trace : request_trace option;
      (** Present iff the shard was created with a [trace_cfg]. *)
}

type t

val create :
  id:int ->
  ?image_cap:int ->
  ?backend:Isa.Machine.mode ->
  ?inject:Hw.Inject.plan ->
  ?watchdog:int ->
  ?trace:trace_cfg ->
  ?preload:(klass * string) list ->
  unit ->
  t
(** A fresh shard.  [image_cap] bounds the boot-image cache (default
    8; 0 disables caching).  [backend] overrides every catalog class's
    own protection mode, so a whole fleet serves under one backend —
    the three-way comparison bench.  [inject] attaches the deterministic fault
    injector to every machine the shard boots, before its image is
    captured, so injection state rewinds with the machine.  [watchdog]
    is passed to {!Os.System.run} for every request.  [trace] enables
    per-request tracing (captured into {!outcome.trace}); raises
    [Invalid_argument] if its sample or capacity is below 1.
    [preload] seeds the image cache from externally captured images;
    these are applied with the fully checked {!Os.Snapshot.restore} on
    first use (disk images are untrusted), then reused via warm
    boot. *)

val id : t -> int
val quarantined : t -> bool
val set_quarantined : t -> bool -> unit

val executed : t -> int
(** Requests this shard has served (including a tripping one). *)

val busy_cycles : t -> int
(** Sum of served requests' modeled-cycle latencies — the shard's
    virtual busy time, from which fleet makespan is computed. *)

val cold_boots : t -> int
val warm_boots : t -> int

val image_stats : t -> Hw.Assoc.stats
(** Hit/miss/eviction counters of the boot-image cache. *)

val images : t -> (klass * string) list
(** Every boot image currently cached, for persistence ([--snapshot]). *)

val programs : string list
(** The program catalog's names, each a scenario in the style of
    [examples/programs]: ring crossings under both implementations,
    same-ring gated calls, an outward call, argument passing, demand
    paging, and a gateless compute spin. *)

val known_program : string -> bool

val exec : t -> Workload.request -> outcome
(** Serve one request: warm- or cold-boot the class, run to
    completion, read the deltas.  Raises [Failure] on a catalog,
    assembly or snapshot error — a configuration defect, not a
    serving outcome.  This is the pool workers' entry point: because
    every boot rewinds the machine to the sealed class image, the
    outcome does not depend on which shard serves the request or on
    what it served before. *)
