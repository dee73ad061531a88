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

type trace_cfg = Isa.Machine.sampling = {
  sample : int;
  seed : int;
  capacity : int;
  instr : int;
}
(** Per-shard tracing, applied with {!Isa.Machine.set_sampling} before
    a class's boot image is sealed, so it rewinds with every warm boot
    and a request's trace is placement-independent. *)

val default_trace_capacity : int
(** Event-arena capacity the serving layer defaults to (4096). *)

val validate : ?watchdog:int -> ?trace:trace_cfg -> unit -> (unit, string) result
(** The checks shared by every command that runs a machine: a
    [watchdog] below 1, a [trace] whose [sample] or [capacity] is below
    1 or whose [instr] is negative.  The error is the command line's
    message, naming the flag (["--sample must be positive"]). *)

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
    per-request tracing (captured into {!outcome.trace}).  Raises
    [Invalid_argument] with {!validate}'s message on a bad [watchdog]
    or [trace].
    [preload] seeds the image cache from externally captured images;
    these are applied with the fully checked {!Os.Snapshot.restore} on
    first use (disk images are untrusted), and the verified bytes then
    seal the class's slot unchanged, so {!images} returns exactly what
    was loaded. *)

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
