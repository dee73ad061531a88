(** Cycle and event accounting for the simulated processor.

    The paper reports no absolute performance numbers; what matters for
    reproducing its claims is the {e relative} cost of the different
    reference and control-transfer kinds, and in particular how many
    supervisor interventions (traps) each ring-crossing flavour incurs.
    Every simulated machine carries one [t]; the CPU and the operating
    system substrate charge cycles and count events through this
    interface, and the benches read them back out.

    The counters are one table: [t] holds a value for every counter
    named in {!names}, and an {!id} picks one. *)

type t

type id
(** A counter.  Only this module makes ids, so {!incr} and {!get}
    index the table without a bounds check. *)

val names : string array
(** Every counter's name, in table order: the order of {!fields}, of
    {!values} and of a checkpoint image. *)

val ids : id array
(** Every counter, in table order: [ids.(i)] is named [names.(i)]. *)

val create : unit -> t
val reset : t -> unit

val incr : t -> id -> unit
(** [incr c id] adds one to counter [id]. *)

val get : t -> id -> int

(** {1 Cycles and instructions} *)

val charge : t -> int -> unit
(** [charge c n] adds [n] cycles to the running total. *)

val cycles : t -> int
val bump_instructions : t -> unit
val instructions : t -> int

(** {1 Event counters} *)

val memory_reads : id
val memory_writes : id
val sdw_fetches : id
val indirections : id
val traps : id
val calls_same_ring : id
val calls_downward : id
val calls_upward : id
val returns_same_ring : id
val returns_upward : id
val returns_downward : id
val gatekeeper_entries : id
val descriptor_switches : id
val access_violations : id
val ptw_fetches : id
val page_faults : id
val page_evictions : id

val channel_ops : id
(** One I/O channel operation started (SIOC/SIOT).  The arena bills
    these against a tenant's I/O quota; outside the arena they are
    plain observability. *)

(** {2 Host-side associative memories}

    Hit/miss/eviction rates of the simulator's caches (SDW cache, PTW
    TLB, decoded-instruction cache).  These observe the host-side
    memoization layer only: they move freely without affecting the
    modeled cycle accounting above. *)

val sdw_cache_hits : id
val sdw_cache_misses : id
val sdw_cache_evictions : id
val ptw_tlb_hits : id
val ptw_tlb_misses : id
val ptw_tlb_evictions : id
val icache_hits : id
val icache_misses : id
val icache_evictions : id

(** {2 Fault injection and recovery}

    What the injector ({!Hw.Inject}) did to the machine and what the
    kernel did about it.  [injected] counts delivered faults and
    stalls; [retried] transfers re-armed with backoff; [recovered]
    faults scrubbed and resumed; [quarantined] processes killed for
    exhausting their fault budget; [degraded] cache subsystems dropped
    to uncached operation after coherence damage. *)

val injected : id
val retried : id
val recovered : id
val quarantined : id
val degraded : id

(** {2 Checkpoint/restore and the dispatcher watchdog}

    [snapshots_written] images captured — full and delta alike
    (counted before serializing, so the count inside an image already
    includes it; rolled back if serialization fails, so a failed
    capture never inflates it); [restores] images
    applied; [restore_audit_rejections] images refused by the restore-
    time SDW audit; [journal_replays_skipped] device transfers found
    already journalled and not re-emitted; [watchdog_tripped] processes
    quarantined by the dispatcher's instruction-budget watchdog.
    [restores] and [journal_replays_skipped] are session-local — they
    differ between an uninterrupted run and a resumed one; everything
    else is checkpoint-deterministic. *)

val snapshots_written : id
val restores : id
val restore_audit_rejections : id
val journal_replays_skipped : id
val watchdog_tripped : id

(** {2 Trace-pipeline self-observation}

    What the tracing subsystem itself discarded: [events_dropped]
    events overwritten because the ring buffer was full,
    [events_sampled_out] and [spans_sampled_out] events/spans
    deselected by the deterministic 1-in-N sampler.  These move only
    while tracing is enabled, so untraced runs are unaffected. *)

val events_dropped : id
val events_sampled_out : id
val spans_sampled_out : id

(** {1 The whole table} *)

val values : t -> int array
(** A copy of every counter, in table order. *)

val load : t -> int array -> unit
(** Overwrite every counter from an array in table order, as restoring
    a checkpoint image does.
    @raise Invalid_argument unless the array holds one value per counter. *)

val copy : t -> into:t -> unit
(** [copy c ~into] overwrites every counter of [into] with [c]'s. *)

val accrue : t -> since:t -> into:t -> unit
(** [accrue c ~since ~into] adds to each counter of [into] what the
    same counter of [c] moved since [since] was copied from it. *)

(** {1 Snapshots}

    A snapshot is an immutable read of the table, one field per
    counter, named as in {!names}. *)

type snapshot = {
  cycles : int;
  instructions : int;
  memory_reads : int;
  memory_writes : int;
  sdw_fetches : int;
  indirections : int;
  traps : int;
  calls_same_ring : int;
  calls_downward : int;
  calls_upward : int;
  returns_same_ring : int;
  returns_upward : int;
  returns_downward : int;
  gatekeeper_entries : int;
  descriptor_switches : int;
  access_violations : int;
  ptw_fetches : int;
  page_faults : int;
  page_evictions : int;
  channel_ops : int;
  sdw_cache_hits : int;
  sdw_cache_misses : int;
  sdw_cache_evictions : int;
  ptw_tlb_hits : int;
  ptw_tlb_misses : int;
  ptw_tlb_evictions : int;
  icache_hits : int;
  icache_misses : int;
  icache_evictions : int;
  injected : int;
  retried : int;
  recovered : int;
  quarantined : int;
  degraded : int;
  snapshots_written : int;
  restores : int;
  restore_audit_rejections : int;
  journal_replays_skipped : int;
  watchdog_tripped : int;
  events_dropped : int;
  events_sampled_out : int;
  spans_sampled_out : int;
}

val snapshot : t -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** [diff ~before ~after] is the per-field difference, for measuring a
    region of execution. *)

val add : snapshot -> snapshot -> snapshot
(** [add a b] is the per-field (pointwise) sum.  Commutative and
    associative, so folding per-shard or per-run snapshots into one
    fleet total gives the same result in any order. *)

val fields : snapshot -> (string * int) list
(** Every snapshot field as [(name, value)], in table order.  The
    metrics exporters and their coverage test iterate this, so a new
    counter is exported everywhere by its entry in the table. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
