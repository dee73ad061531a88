(** Modeled-cycle latency spans over the simulated call stack.

    Every CALL that actually transfers control opens a span; the
    RETURN (or outward-return gate) that undoes it closes the
    innermost open one — the ring calling conventions are strictly
    LIFO, so matching is a stack, nested exactly like the simulated
    call stack.  Span latency is [end_cycles - start_cycles] in
    modeled cycles: fully deterministic, independent of the host.

    A crossing that never returns (a fault terminates the process, or
    the run ends mid-call) is closed by {!drain} with [forced = true].

    Closed spans accumulate into one {!Histogram.t} per crossing kind,
    and into a bounded ring buffer of {!completed} records for the
    Chrome-trace exporter (oldest dropped first, counted). *)

type completed = {
  kind : Event.crossing;
  from_ring : int;
  to_ring : int;
  segno : int;  (** Call target segment. *)
  wordno : int;
  start_cycles : int;
  end_cycles : int;
  depth : int;  (** Open-span nesting depth when this span opened. *)
  seq : int;  (** Open order, monotonic. *)
  forced : bool;  (** Closed by {!drain}, not by a matching return. *)
}

type open_span = {
  o_kind : Event.crossing;
  o_from_ring : int;
  o_to_ring : int;
  o_segno : int;
  o_wordno : int;
  o_start : int;
  o_depth : int;
  o_seq : int;
}
(** A span opened but not yet closed — exposed for the checkpoint
    codec, which must carry the open-call stack across a restore. *)

type tracker

val default_capacity : int

val create : ?capacity:int -> unit -> tracker
(** Created disabled with an unallocated buffer; a tracker that never
    enables costs only the record. *)

val enabled : tracker -> bool

val set_enabled : tracker -> bool -> unit

val set_stats : tracker -> Counters.t -> unit
(** Mirror sampled-out span counts into a {!Counters.t} — the machine
    points this at its own counters. *)

val backend : tracker -> string
(** Protection-backend label for this tracker's spans — ["hw"] (the
    default), ["645"] or ["cap"].  A label only: the machine sets it
    at creation and the exporters surface it, so crossing spans from
    different backends are distinguishable in one merged trace. *)

val set_backend : tracker -> string -> unit

val set_sampling : tracker -> interval:int -> seed:int -> unit
(** Keep (statistically) 1 in [interval] completed spans, selected by
    {!Event.sample_hit} over the span's open-order sequence number —
    deterministic for a seeded workload.  The open-span stack is
    always fully maintained (matching needs every call); sampling
    applies at completion, before the histogram and the ring buffer,
    so sampled percentiles are computed over the selected subset.
    [interval = 1] (the default) keeps everything.  Raises
    [Invalid_argument] if [interval < 1]. *)

val sample_interval : tracker -> int

val sample_seed : tracker -> int

val open_span :
  tracker ->
  kind:Event.crossing ->
  from_ring:int ->
  to_ring:int ->
  segno:int ->
  wordno:int ->
  cycles:int ->
  unit

val close_span : ?kind:Event.crossing -> tracker -> cycles:int -> unit
(** Close the innermost open span.  With [kind], close only if the
    innermost span is of that kind — a mismatch is an intermediate
    transfer inside a larger supervised crossing (e.g. the hardware
    upward return into the outward-return trampoline) and leaves the
    span open.  A return with no span open (e.g. tracking was enabled
    mid-call-chain) bumps {!unmatched_returns} instead. *)

val drain : tracker -> cycles:int -> unit
(** Force-close every open span at [cycles] — call before exporting,
    and after a run that terminated on a fault. *)

val completed : tracker -> completed list
(** Retained completed spans, in completion order. *)

val histogram : tracker -> Event.crossing -> Histogram.t
(** Latency histogram of completed spans of one crossing kind. *)

val open_depth : tracker -> int

val dropped : tracker -> int
(** Completed spans overwritten because the buffer was full. *)

val sampled_out : tracker -> int
(** Completed spans deselected by the sampler (never observed by the
    histograms or retained). *)

val unmatched_returns : tracker -> int

val clear : tracker -> unit

val reset : tracker -> unit
(** Return the tracker to what [create ()] builds: disabled, empty,
    unsampled, {!default_capacity}.  The backend label and stats sink
    stay. *)

(** {1 Checkpoint support} *)

type dump = {
  dump_stack : open_span list;  (** Innermost first. *)
  dump_next_seq : int;
  dump_completed : completed list;
  dump_dropped : int;
  dump_unmatched : int;
  dump_sampled_out : int;
  dump_sample_interval : int;
  dump_sample_seed : int;
  dump_hists : (int array * int * int * int * int) array;
      (** Latency histograms in kind order: same-ring, downward,
          upward, recovery. *)
}

val dump : tracker -> dump

val restore : tracker -> dump -> unit
(** Inverse of {!dump}; raises [Invalid_argument] on a shape
    mismatch (too many completed spans, wrong histogram count). *)
