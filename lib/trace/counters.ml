type t = int array
type id = int

(* The table: an id is a position in [names].  Cycles and instructions
   are the first two entries and keep their own functions; the record
   below lists the same counters in the same order. *)
let names =
  [|
    "cycles"; "instructions"; "memory_reads"; "memory_writes";
    "sdw_fetches"; "indirections"; "traps"; "calls_same_ring";
    "calls_downward"; "calls_upward"; "returns_same_ring";
    "returns_upward"; "returns_downward"; "gatekeeper_entries";
    "descriptor_switches"; "access_violations"; "ptw_fetches";
    "page_faults"; "page_evictions"; "channel_ops"; "sdw_cache_hits";
    "sdw_cache_misses"; "sdw_cache_evictions"; "ptw_tlb_hits";
    "ptw_tlb_misses"; "ptw_tlb_evictions"; "icache_hits";
    "icache_misses"; "icache_evictions"; "injected"; "retried";
    "recovered"; "quarantined"; "degraded"; "snapshots_written";
    "restores"; "restore_audit_rejections"; "journal_replays_skipped";
    "watchdog_tripped"; "events_dropped"; "events_sampled_out";
    "spans_sampled_out";
  |]

let count = Array.length names
let ids = Array.init count Fun.id

let memory_reads = 2
let memory_writes = 3
let sdw_fetches = 4
let indirections = 5
let traps = 6
let calls_same_ring = 7
let calls_downward = 8
let calls_upward = 9
let returns_same_ring = 10
let returns_upward = 11
let returns_downward = 12
let gatekeeper_entries = 13
let descriptor_switches = 14
let access_violations = 15
let ptw_fetches = 16
let page_faults = 17
let page_evictions = 18
let channel_ops = 19
let sdw_cache_hits = 20
let sdw_cache_misses = 21
let sdw_cache_evictions = 22
let ptw_tlb_hits = 23
let ptw_tlb_misses = 24
let ptw_tlb_evictions = 25
let icache_hits = 26
let icache_misses = 27
let icache_evictions = 28
let injected = 29
let retried = 30
let recovered = 31
let quarantined = 32
let degraded = 33
let snapshots_written = 34
let restores = 35
let restore_audit_rejections = 36
let journal_replays_skipped = 37
let watchdog_tripped = 38
let events_dropped = 39
let events_sampled_out = 40
let spans_sampled_out = 41

let create () = Array.make count 0
let reset t = Array.fill t 0 count 0

(* Unchecked: every [t] comes from [create] and every id is below
   [count], so a count is one load, add and store. *)
let incr t id = Array.unsafe_set t id (Array.unsafe_get t id + 1)
let get (t : t) id = Array.unsafe_get t id
let charge t n = Array.unsafe_set t 0 (Array.unsafe_get t 0 + n)
let cycles t = get t 0
let bump_instructions t = incr t 1
let instructions t = get t 1
let values = Array.copy

let load t a =
  if Array.length a <> count then invalid_arg "Counters.load";
  Array.blit a 0 t 0 count

let copy t ~into = Array.blit t 0 into 0 count

let accrue t ~since ~into =
  for i = 0 to count - 1 do
    into.(i) <- into.(i) + t.(i) - since.(i)
  done

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

(* The one place that knows which field holds which counter. *)
let record_of (a : int array) : snapshot =
  {
    cycles = a.(0);
    instructions = a.(1);
    memory_reads = a.(memory_reads);
    memory_writes = a.(memory_writes);
    sdw_fetches = a.(sdw_fetches);
    indirections = a.(indirections);
    traps = a.(traps);
    calls_same_ring = a.(calls_same_ring);
    calls_downward = a.(calls_downward);
    calls_upward = a.(calls_upward);
    returns_same_ring = a.(returns_same_ring);
    returns_upward = a.(returns_upward);
    returns_downward = a.(returns_downward);
    gatekeeper_entries = a.(gatekeeper_entries);
    descriptor_switches = a.(descriptor_switches);
    access_violations = a.(access_violations);
    ptw_fetches = a.(ptw_fetches);
    page_faults = a.(page_faults);
    page_evictions = a.(page_evictions);
    channel_ops = a.(channel_ops);
    sdw_cache_hits = a.(sdw_cache_hits);
    sdw_cache_misses = a.(sdw_cache_misses);
    sdw_cache_evictions = a.(sdw_cache_evictions);
    ptw_tlb_hits = a.(ptw_tlb_hits);
    ptw_tlb_misses = a.(ptw_tlb_misses);
    ptw_tlb_evictions = a.(ptw_tlb_evictions);
    icache_hits = a.(icache_hits);
    icache_misses = a.(icache_misses);
    icache_evictions = a.(icache_evictions);
    injected = a.(injected);
    retried = a.(retried);
    recovered = a.(recovered);
    quarantined = a.(quarantined);
    degraded = a.(degraded);
    snapshots_written = a.(snapshots_written);
    restores = a.(restores);
    restore_audit_rejections = a.(restore_audit_rejections);
    journal_replays_skipped = a.(journal_replays_skipped);
    watchdog_tripped = a.(watchdog_tripped);
    events_dropped = a.(events_dropped);
    events_sampled_out = a.(events_sampled_out);
    spans_sampled_out = a.(spans_sampled_out);
  }

let values_of (s : snapshot) =
  [|
    s.cycles; s.instructions; s.memory_reads; s.memory_writes;
    s.sdw_fetches; s.indirections; s.traps; s.calls_same_ring;
    s.calls_downward; s.calls_upward; s.returns_same_ring;
    s.returns_upward; s.returns_downward; s.gatekeeper_entries;
    s.descriptor_switches; s.access_violations; s.ptw_fetches;
    s.page_faults; s.page_evictions; s.channel_ops; s.sdw_cache_hits;
    s.sdw_cache_misses; s.sdw_cache_evictions; s.ptw_tlb_hits;
    s.ptw_tlb_misses; s.ptw_tlb_evictions; s.icache_hits;
    s.icache_misses; s.icache_evictions; s.injected; s.retried;
    s.recovered; s.quarantined; s.degraded; s.snapshots_written;
    s.restores; s.restore_audit_rejections; s.journal_replays_skipped;
    s.watchdog_tripped; s.events_dropped; s.events_sampled_out;
    s.spans_sampled_out
  |]

let snapshot t = record_of t

let map2 f a b =
  let a = values_of a and b = values_of b in
  for i = 0 to count - 1 do
    a.(i) <- f a.(i) b.(i)
  done;
  record_of a

let diff ~before ~after = map2 ( - ) after before
let add = map2 ( + )

let fields s =
  let v = values_of s in
  List.init count (fun i -> (names.(i), v.(i)))


(* Channel operations print only when the program actually started
   one, so an I/O-free run's counter block is unchanged. *)
let pp_channel ppf (s : snapshot) =
  if s.channel_ops <> 0 then
    Format.fprintf ppf "@,channel ops         %8d" s.channel_ops

(* The robustness line appears only when injection was active, so an
   injector-off run prints exactly what it printed before the fault-
   injection subsystem existed. *)
let pp_robustness ppf (s : snapshot) =
  if
    s.injected <> 0 || s.retried <> 0 || s.recovered <> 0
    || s.quarantined <> 0 || s.degraded <> 0
  then
    Format.fprintf ppf
      "@,injected            %8d@,\
       retried             %8d@,\
       recovered           %8d@,\
       quarantined         %8d@,\
       degraded            %8d"
      s.injected s.retried s.recovered s.quarantined s.degraded

(* Likewise, the trace-pipeline line appears only when the sampler or
   the ring buffer actually discarded something, so a fully retained
   trace prints exactly what it printed before sampling existed. *)
let pp_trace_stats ppf (s : snapshot) =
  if s.events_dropped <> 0 || s.events_sampled_out <> 0 || s.spans_sampled_out <> 0
  then
    Format.fprintf ppf
      "@,events dropped      %8d@,\
       events sampled out  %8d@,\
       spans sampled out   %8d"
      s.events_dropped s.events_sampled_out s.spans_sampled_out

let pp_snapshot ppf (s : snapshot) =
  Format.fprintf ppf
    "@[<v>cycles              %8d@,\
     instructions        %8d@,\
     memory reads        %8d@,\
     memory writes       %8d@,\
     SDW fetches         %8d@,\
     indirections        %8d@,\
     traps               %8d@,\
     calls same-ring     %8d@,\
     calls downward      %8d@,\
     calls upward        %8d@,\
     returns same-ring   %8d@,\
     returns upward      %8d@,\
     returns downward    %8d@,\
     gatekeeper entries  %8d@,\
     descriptor switches %8d@,\
     access violations   %8d@,\
     PTW fetches         %8d@,\
     page faults         %8d@,\
     page evictions      %8d@,\
     SDW cache h/m/e     %8d %8d %8d@,\
     PTW TLB h/m/e       %8d %8d %8d@,\
     icache h/m/e        %8d %8d %8d%a%a%a@]"
    s.cycles s.instructions s.memory_reads s.memory_writes s.sdw_fetches
    s.indirections s.traps s.calls_same_ring s.calls_downward s.calls_upward
    s.returns_same_ring s.returns_upward s.returns_downward
    s.gatekeeper_entries s.descriptor_switches s.access_violations
    s.ptw_fetches s.page_faults s.page_evictions s.sdw_cache_hits
    s.sdw_cache_misses s.sdw_cache_evictions s.ptw_tlb_hits s.ptw_tlb_misses
    s.ptw_tlb_evictions s.icache_hits s.icache_misses s.icache_evictions
    pp_channel s pp_robustness s pp_trace_stats s
