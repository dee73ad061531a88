(** Structured execution-trace events at production cost.

    When tracing is enabled the CPU and the operating-system substrate
    append one event per noteworthy action.  Examples and the [ringsim]
    binary render these for human consumption; tests assert on the
    event sequence to pin down behaviour such as "exactly one trap was
    taken, and it was an upward-call trap".

    The log is a {e binary ring buffer}: events are packed as
    fixed-width integer cells in one preallocated int array, so the
    record path is a handful of unboxed stores — no per-event variant
    allocation, and no string formatting.  Instruction disassembly is
    reconstructed lazily at export through a pluggable resolver
    ({!set_text_resolver}) that re-decodes the word from the segment
    image; other strings (trap causes, gatekeeper actions, notes) are
    interned once and referenced by id.  Each recorded event carries
    the modeled cycle count (via the log's clock) and a monotonically
    increasing sequence number.  Once the buffer is full the oldest
    events are overwritten and counted in {!dropped}; with a sampling
    interval above 1 ({!set_sampling}), deselected events are counted
    in {!sampled_out}.  Sequence numbers keep counting across both, so
    exported events reveal gaps — long traffic runs can keep tracing
    on without unbounded growth. *)

type crossing = Same_ring | Downward | Upward | Recovery
(** [Recovery] is not a control transfer: it brackets an injected
    fault's delivery to the kernel's recovery decision, so recovery
    latency rides the same span plumbing as ring crossings. *)

type t =
  | Instruction of { ring : int; segno : int; wordno : int; text : string }
      (** One instruction retired, with its disassembly. *)
  | Call of {
      crossing : crossing;
      from_ring : int;
      to_ring : int;
      segno : int;
      wordno : int;
    }
  | Return of {
      crossing : crossing;
      from_ring : int;
      to_ring : int;
      segno : int;
      wordno : int;
    }
  | Trap of { ring : int; cause : string }
  | Gatekeeper of { action : string }
  | Descriptor_switch of { from_ring : int; to_ring : int }
  | Note of string

type stamped = { seq : int; cycles : int; event : t }
(** An event as decoded from the log: [seq] is its position in the
    record order (monotonic, never reused; gaps reveal drops and
    sampling) and [cycles] the modeled cycle count at record time. *)

type log

val default_capacity : int
(** 65536 events. *)

val create_log : ?capacity:int -> unit -> log
(** Logs are created disabled, with an unallocated arena: a log that
    is never enabled costs nothing beyond the record.  Raises
    [Invalid_argument] if [capacity < 1]. *)

val enabled : log -> bool

val set_enabled : log -> bool -> unit
(** Logs are created disabled so that the common benchmarking path
    pays nothing for tracing. *)

val set_clock : log -> (unit -> int) -> unit
(** Replace the timestamp source, sampled at each record.  Without
    one, events are stamped with the cycle count of the {!set_stats}
    counters, read directly — the machine's modeled cycle counter, or
    0 for a log that never had counters wired. *)

val set_text_resolver : log -> (segno:int -> wordno:int -> string option) -> unit
(** The lazy disassembler: given the address an [Instruction] event
    was recorded at, return its disassembly text.  The machine points
    this at a silent re-decode of its segment image
    ({!Isa.Machine.disassemble_at}); events whose address no longer
    decodes (or with no resolver installed) export as ["?"].  Because
    resolution happens at export, the text reflects memory as of
    export time — the recorded address is authoritative, the text is a
    rendering convenience. *)

val set_stats : log -> Counters.t -> unit
(** Mirror this log's discard statistics (drops, sampled-out events)
    into a {!Counters.t} — the machine points this at its own
    counters, so trace-pipeline losses ride the ordinary counter
    surface into deltas, fleet aggregation and every exporter.  The
    same counters' cycle count stamps each event (see
    {!set_clock}). *)

val set_capacity : log -> int -> unit
(** Resize the ring buffer.  Clears the log.  Raises
    [Invalid_argument] if [capacity < 1]. *)

val capacity : log -> int

(** {1 Sampling} *)

val set_sampling : log -> interval:int -> seed:int -> unit
(** Keep (statistically) 1 in [interval] events, selected
    deterministically: whether a candidate is kept is a pure hash of
    its sequence number and [seed], so the same seeded workload keeps
    the same events on every run and every shard.  [interval = 1]
    (the default) keeps everything.  Raises [Invalid_argument] if
    [interval < 1]. *)

val sample_hit : interval:int -> seed:int -> int -> bool
(** [sample_hit ~interval ~seed seq] is the selection predicate
    itself, exposed so span sampling ({!Span.set_sampling}) and tests
    share the exact function. *)

val set_instr_sampling : log -> interval:int -> unit
(** Sample the {e instruction} stream at its own 1-in-[interval] rate,
    independent of the control-flow events: [record_instruction]
    candidates go through this interval while calls, returns, traps,
    gatekeeper actions, descriptor switches and notes keep following
    {!set_sampling}'s.  The selection predicate and seed are shared
    ({!sample_hit} over the one monotonic sequence), so the split
    changes which candidates are kept, never how they are chosen.
    [interval = 0] (the default) means "follow the control-flow
    interval" — the pre-split behaviour.  Raises [Invalid_argument] if
    [interval < 0]. *)

val sample_interval : log -> int

val sample_seed : log -> int

val instr_interval : log -> int
(** The instruction-stream interval as set ([0] = following
    {!sample_interval}). *)

(** {1 Recording}

    Each [record_*] is a no-op unless the log is enabled, and costs
    only integer stores when it is — callers on the hot path should
    still guard any argument computation behind {!enabled}. *)

val record_instruction : log -> ring:int -> segno:int -> wordno:int -> unit
(** The per-retired-instruction hot path: allocation-free; the
    disassembly text is resolved lazily at export. *)

val record_call :
  log ->
  crossing:crossing ->
  from_ring:int ->
  to_ring:int ->
  segno:int ->
  wordno:int ->
  unit

val record_return :
  log ->
  crossing:crossing ->
  from_ring:int ->
  to_ring:int ->
  segno:int ->
  wordno:int ->
  unit

val record_trap : log -> ring:int -> cause:string -> unit
val record_gatekeeper : log -> action:string -> unit
val record_descriptor_switch : log -> from_ring:int -> to_ring:int -> unit
val record_note : log -> string -> unit

val record : log -> t -> unit
(** Compatibility entry point over the variant view (tests, restore).
    An [Instruction] arriving with pre-formatted text keeps it. *)

(** {1 Reading} *)

val events : log -> t list
(** Retained events in the order they were recorded (oldest first; up
    to [capacity], earlier ones having been dropped), decoded from the
    arena — instruction text resolved through the resolver. *)

val stamped_events : log -> stamped list
(** Like {!events} but with stamps. *)

val fold_stamped : log -> init:'a -> f:('a -> stamped -> 'a) -> 'a
(** Fold over retained events oldest-first without building a list. *)

val dropped : log -> int
(** Events overwritten because the buffer was full. *)

val sampled_out : log -> int
(** Events deselected by the sampler (never entered the buffer). *)

val high_water : log -> int
(** Maximum retained count since the last {!clear} — how close the
    buffer came to wrapping. *)

val seen : log -> int
(** Total candidate events offered while enabled (recorded, dropped
    or sampled out).  Also the next sequence number. *)

val recorded : log -> int
(** Events accepted by the sampler ([seen - sampled_out]); of these,
    [dropped] were later overwritten. *)

val clear : log -> unit
(** Drop all events and reset the sequence and discard counters
    (sampling configuration and interned strings persist). *)

val reset : log -> unit
(** Return [log] to what [create_log ()] builds: disabled, empty,
    unsampled, {!default_capacity}, no interned strings.  The clock,
    text resolver and stats sink stay wired. *)

(** {1 Checkpoint support} *)

type dump = {
  d_entries : stamped list;
      (** Retained entries, instruction text resolved at dump time. *)
  d_next_seq : int;
  d_dropped : int;
  d_sampled_out : int;
  d_high_water : int;
  d_sample_interval : int;
  d_sample_seed : int;
  d_instr_interval : int;
}

val dump : log -> dump

val restore : log -> dump -> unit
(** Inverse of {!dump}: re-encode the entries into the arena without
    re-stamping or re-sampling, so sequence numbers, cycle stamps,
    sampler configuration and discard counters round-trip exactly.
    Restored instruction text is pinned (interned) rather than
    re-resolved.  Raises [Invalid_argument] if there are more entries
    than the log's capacity or the dumped interval is invalid. *)

val crossing_to_string : crossing -> string

val crossing_to_int : crossing -> int
val crossing_of_int : int -> crossing
(** Inverse of {!crossing_to_int}; raises [Invalid_argument] outside
    [0, 3]. *)

val pp : Format.formatter -> t -> unit

val pp_log : Format.formatter -> log -> unit
