(* Host-side simulator throughput: how many simulated instructions per
   host second the interpreter sustains on the standard scenario
   workloads.  This is the benchmark the associative-memory subsystem
   is meant to move; the modeled-cycle figures (fig1..fig9, c1, c2)
   must not move at all.

   Emits BENCH_throughput.json in the current directory so the
   trajectory is tracked across PRs. *)

type sample = {
  name : string;
  instructions : int;
  seconds : float;
  ips : float;
  cycles : int;
  snapshot : Trace.Counters.snapshot;
}

(* One timed kernel run of a freshly built workload.  [setup] switches
   on what the measurement needs (tracing, spans, an idle injector)
   before the clock starts; the machine comes back for whatever the
   caller reads after the run. *)
let timed_run ?(setup = ignore) ~name ~max_instructions build =
  match build () with
  | Error e -> failwith (Printf.sprintf "%s: build failed: %s" name e)
  | Ok p ->
      setup p;
      let m = p.Os.Process.machine in
      let c = m.Isa.Machine.counters in
      let i0 = Trace.Counters.instructions c in
      let t0 = Unix.gettimeofday () in
      let exit = Os.Kernel.run ~max_instructions p in
      let dt = Unix.gettimeofday () -. t0 in
      (match exit with
      | Os.Kernel.Exited -> ()
      | e ->
          failwith
            (Format.asprintf "%s: did not exit cleanly: %a" name
               Os.Kernel.pp_exit e));
      let instructions = Trace.Counters.instructions c - i0 in
      ( {
          name;
          instructions;
          seconds = dt;
          ips = float_of_int instructions /. dt;
          cycles = Trace.Counters.cycles c;
          snapshot = Trace.Counters.snapshot c;
        },
        m )

let run_workload ?setup ~name ~max_instructions build =
  fst (timed_run ?setup ~name ~max_instructions build)

let enable_spans (p : Os.Process.t) =
  Trace.Span.set_enabled p.Os.Process.machine.Isa.Machine.spans true

(* The full observability stack: event log, spans and profile.
   Modeled cycles must not move; host instr/sec pays the
   instrumentation cost, and the ratio is what we track. *)
let trace_everything (p : Os.Process.t) =
  let m = p.Os.Process.machine in
  Trace.Event.set_enabled m.Isa.Machine.log true;
  Trace.Span.set_enabled m.Isa.Machine.spans true;
  Trace.Profile.set_enabled m.Isa.Machine.profile true

(* The injector must be free when off: an attached injector with no
   rules is polled between instructions but may change neither the
   modeled cycles nor (measurably) the host throughput. *)
let attach_idle_injector (p : Os.Process.t) =
  ignore
    (Os.Process.attach_injector p.Os.Process.machine
       { (Hw.Inject.default_plan ~seed:0) with Hw.Inject.rules = [] }
       [ p ])

(* The standard workloads, scaled up far enough that per-run setup is
   noise and steady-state cache behaviour dominates. *)
let workloads =
  [
    ( "crossing-hw",
      4_000_000,
      fun () ->
        Os.Scenario.crossing ~config:Os.Scenario.default_config
          ~caller_ring:4 ~callee_ring:1 ~iterations:40_000 () );
    ( "crossing-645",
      4_000_000,
      fun () ->
        Os.Scenario.crossing ~config:Os.Scenario.software_config
          ~caller_ring:4 ~callee_ring:1 ~iterations:20_000 () );
    ( "same-ring",
      4_000_000,
      fun () ->
        Os.Scenario.same_ring_pair ~config:Os.Scenario.default_config
          ~ring:4 ~iterations:40_000 () );
    ( "audited",
      8_000_000,
      fun () -> Workloads.build_audited ~config:Os.Scenario.default_config
          40_000 );
    ( "paged-crossing",
      4_000_000,
      fun () ->
        Os.Scenario.crossing
          ~config:{ Os.Scenario.default_config with Os.Scenario.paged = true }
          ~caller_ring:4 ~callee_ring:1 ~with_argument:true
          ~iterations:20_000 () );
  ]

(* A cache that saw zero lookups has no hit rate, not a 0% one — emit
   null/- rather than a misleading 0.00. *)
let pct num den =
  if den = 0 then None
  else Some (100.0 *. float_of_int num /. float_of_int den)

let pct_json = function None -> "null" | Some p -> Printf.sprintf "%.2f" p
let pct_cell = function None -> "-" | Some p -> Printf.sprintf "%.1f" p

(* Span latency distributions per crossing kind.  These are modeled-
   cycle figures — fully deterministic — so unlike the instr/sec
   numbers they are comparable across hosts and PRs. *)
type span_sample = {
  sw_name : string;
  (* kind, count, p50, p90, p99, max — in modeled cycles. *)
  sw_kinds : (string * int * int * int * int * int) list;
}

(* Close the spans a run left open and read each crossing kind's count
   and percentiles; a kind never seen is left out. *)
let span_kinds m =
  Trace.Span.drain m.Isa.Machine.spans
    ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters);
  List.filter_map
    (fun kind ->
      let h = Trace.Span.histogram m.Isa.Machine.spans kind in
      if Trace.Histogram.count h = 0 then None
      else
        Some
          ( Trace.Event.crossing_to_string kind,
            Trace.Histogram.count h,
            Trace.Histogram.percentile h 50.0,
            Trace.Histogram.percentile h 90.0,
            Trace.Histogram.percentile h 99.0,
            Trace.Histogram.max_value h ))
    [ Trace.Event.Same_ring; Trace.Event.Downward; Trace.Event.Upward ]

let span_workloads =
  [
    ( "crossing-hw",
      fun () ->
        Os.Scenario.crossing ~config:Os.Scenario.default_config
          ~caller_ring:4 ~callee_ring:1 ~iterations:2_000 () );
    ( "crossing-645",
      fun () ->
        Os.Scenario.crossing ~config:Os.Scenario.software_config
          ~caller_ring:4 ~callee_ring:1 ~iterations:1_000 () );
    ( "same-ring",
      fun () ->
        Os.Scenario.same_ring_pair ~config:Os.Scenario.default_config
          ~ring:4 ~iterations:2_000 () );
    ( "outward-hw",
      fun () ->
        Os.Scenario.crossing ~config:Os.Scenario.default_config
          ~caller_ring:1 ~callee_ring:3 ~iterations:1_000 () );
  ]

let run_span_workload ~name build =
  let _, m =
    timed_run ~setup:enable_spans ~name ~max_instructions:4_000_000 build
  in
  { sw_name = name; sw_kinds = span_kinds m }

(* {1 Paired host-time gates}

   A host-time gate holds the cost ratio of two configurations of one
   workload to a budget.  On a shared host one ratio of two runs, or
   of the best of a few runs per side taken back to back, swings past
   any budget in both directions: at unchanged code the trace gate
   read 1.52x-1.89x as best-of-3 ratios.  So a gate runs [gate_pairs]
   pairs, alternating which side of a pair runs first so drift over
   the gate lands on both sides alike, and holds the median of the
   per-pair ratios to its budget.  The median and quartiles are
   recorded in BENCH_throughput.json.

   One run of a gate workload lasts ~40-60 ms on a 2-vCPU container,
   short enough that a single host hiccup moves a pair's ratio past
   the budget (6 of 25 pairs above 1.6x on unchanged code).  So each
   side of a pair repeats its unchanged workload back to back until it
   has run [gate_side_seconds] of timed host time, and stands for all
   its runs: their total instructions over their total time. *)
let gate_pairs = 5
let gate_side_seconds = 0.15

(* Back-to-back runs of [run] until their [seconds] add up to
   [gate_side_seconds]; at least one. *)
let repeat_side ~seconds run =
  let rec go runs total =
    let r = run () in
    let total = total +. seconds r in
    if total >= gate_side_seconds then List.rev (r :: runs)
    else go (r :: runs) total
  in
  go [] 0.0

(* Back-to-back runs of one workload as one sample: the modeled fields
   are every run's (they must agree), [seconds] is the mean per run
   and [ips] the total rate. *)
let merge_runs runs =
  let first = List.hd runs in
  if List.exists (fun s -> s.cycles <> first.cycles) runs then
    failwith (first.name ^ ": repeated runs disagree on modeled cycles");
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 runs in
  let seconds = sum (fun s -> s.seconds) in
  {
    first with
    seconds = seconds /. float_of_int (List.length runs);
    ips = sum (fun s -> float_of_int s.instructions) /. seconds;
  }

let repeated run = merge_runs (repeat_side ~seconds:(fun s -> s.seconds) run)

type ('a, 'b) paired = {
  pairs : ('a * 'b) list;  (* (base, variant), in run order *)
  ratios : float array;  (* per-pair cost ratios, ascending *)
  median_pair : 'a * 'b;  (* the pair whose ratio is the median *)
}

(* Linear interpolation between the closest ranks of [sorted]. *)
let quantile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let run_pairs ~base ~variant ~ratio =
  let pairs =
    List.init gate_pairs (fun i ->
        if i mod 2 = 0 then
          let b = base () in
          (b, variant ())
        else
          let v = variant () in
          (base (), v))
  in
  let by_ratio =
    List.sort
      (fun (x, _) (y, _) -> Float.compare x y)
      (List.map (fun (b, v) -> (ratio b v, (b, v))) pairs)
  in
  {
    pairs;
    ratios = Array.of_list (List.map fst by_ratio);
    median_pair = snd (List.nth by_ratio (gate_pairs / 2));
  }

let median p = quantile p.ratios 0.5

(* The gate: fail when the median ratio reaches [budget]. *)
let gate ~what ~budget p =
  if median p >= budget then
    failwith
      (Printf.sprintf "%s %.2fx (median of %d pairs) exceeds the %.1fx budget"
         what (median p) gate_pairs budget)

let json_of_gate ~budget p =
  Printf.sprintf
    "\"pairs\": %d, \"overhead_ratio\": %.3f, \"overhead_ratio_q1\": %.3f, \
     \"overhead_ratio_q3\": %.3f, \"overhead_budget\": %.1f"
    gate_pairs (median p) (quantile p.ratios 0.25) (quantile p.ratios 0.75)
    budget

(* Host-time budget for full tracing.  The event hot path is a packed
   integer-cell arena write (no variant, no string, no formatting —
   disassembly happens lazily at export); this is the regression gate
   the binary ring buffer bought, and [make bench] fails if it
   regresses toward the 8x of the variant-allocating log it replaced.
   Full tracing reads 1.29-1.46x on a 2-vCPU container over an untraced
   step that allocates nothing; the paired median removes the spread
   of single ratios, not the cost itself. *)
let trace_overhead_budget = 1.6

(* The record hot path must not allocate.  [Gc.minor_words] deltas
   over 10k records: a per-event allocation would cost >= 20k words,
   so the tolerance below (a few words for the [Gc.minor_words] float
   boxes themselves) is orders of magnitude away from a real leak. *)
let alloc_tolerance_words = 64.0

let run_alloc_smoke () =
  let log = Trace.Event.create_log ~capacity:256 () in
  let records = 10_000 in
  let measure () =
    let before = Gc.minor_words () in
    for i = 0 to records - 1 do
      if Trace.Event.enabled log then
        Trace.Event.record_instruction log ~ring:4 ~segno:1 ~wordno:i
    done;
    Gc.minor_words () -. before
  in
  let disabled_words = measure () in
  Trace.Event.set_enabled log true;
  (* Warm up: the first record allocates the arena lazily. *)
  Trace.Event.record_instruction log ~ring:4 ~segno:1 ~wordno:0;
  let enabled_words = measure () in
  Trace.Event.set_sampling log ~interval:8 ~seed:7;
  let sampled_words = measure () in
  List.iter
    (fun (name, words) ->
      if words > alloc_tolerance_words then
        failwith
          (Printf.sprintf
             "trace hot path allocates: %.0f minor words over %d %s records"
             words records name))
    [
      ("disabled", disabled_words);
      ("enabled", enabled_words);
      ("sampled", sampled_words);
    ];
  Printf.printf
    "alloc smoke - %d records: %.0f words disabled, %.0f enabled, %.0f \
     sampled (tolerance %.0f)\n"
    records disabled_words enabled_words sampled_words alloc_tolerance_words

(* Incremental capture: the same workload checkpointed on EVERY
   scheduler slice through the delta chain (Os.Snapshot.start_chain /
   capture_delta), a rate at which full captures would be hopeless.
   The deltas serialize only the nonzero words of pages dirtied since
   the previous image, so the whole-run slowdown against an identical
   plain run must stay under snap_incremental_budget (a paired gate);
   the chain must restore onto a fresh system with full validation.
   Both runs use the same scheduler quantum so their modeled cycles
   are comparable word for word. *)
type snap_inc_sample = {
  si_deltas : int;
  si_base_bytes : int;
  si_delta_bytes_total : int;
  si_delta_bytes_max : int;
  si_restore_ok : bool;
  si_capture_seconds : float;
  si_run : sample;
}

let snap_workload = "bump-pair"

let snap_incremental_budget = 1.5

let snap_bump_source ~n =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta pr6|5\n\
     loop:   aos cell,*\n\
    \        lda pr6|5\n\
    \        sba =1\n\
    \        sta pr6|5\n\
    \        tnz loop\n\
    \        mme =2\n\
     cell:   .its 0, counter$value\n"
    n

let build_snapshot_system () =
  let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ] in
  let proc4 =
    Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()
  in
  let store = Os.Store.create () in
  Os.Store.add_source store ~name:"bump_a" ~acl:(wildcard proc4)
    (snap_bump_source ~n:40_000);
  Os.Store.add_source store ~name:"bump_b" ~acl:(wildcard proc4)
    (snap_bump_source ~n:30_000);
  Os.Store.add_source store ~name:"counter"
    ~acl:
      (wildcard (Rings.Access.data_segment ~writable_to:4 ~readable_to:4 ()))
    "value:  .word 0\n";
  let sys = Os.System.create ~store () in
  (match
     Os.System.spawn sys ~pname:"pa" ~user:"alice"
       ~segments:[ "bump_a"; "counter" ]
       ~start:("bump_a", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  (match
     Os.System.spawn sys
       ~shared:[ ("counter", "pa") ]
       ~pname:"pb" ~user:"bob" ~segments:[ "bump_b" ]
       ~start:("bump_b", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  sys

(* The default 50-instruction quantum would mean a checkpoint every
   ~50 instructions — no checkpointing scheme amortizes that.  A
   2500-instruction slice keeps the rate extreme (a checkpoint every
   ~2.5k instructions) while staying a real scheduling granularity. *)
let snap_quantum = 2_500

(* One timed run to completion. *)
let run_snapshot_system ?on_slice sys =
  let c = (Os.System.machine sys).Isa.Machine.counters in
  let t0 = Unix.gettimeofday () in
  let (_ : (string * Os.Kernel.exit) list) =
    Os.System.run ~quantum:snap_quantum ~max_slices:100_000 ?on_slice sys
  in
  let dt = Unix.gettimeofday () -. t0 in
  let instructions = Trace.Counters.instructions c in
  {
    name = snap_workload;
    instructions;
    seconds = dt;
    ips = float_of_int instructions /. dt;
    cycles = Trace.Counters.cycles c;
    snapshot = Trace.Counters.snapshot c;
  }

(* The untraced instruction cycle must not allocate: no closure per
   [let*] bind, no fresh IPR, operand record or [Some] per timer tick
   (together ~50 minor words an instruction).  What may remain is the
   occasional pointer register or address a CALL, RETURN or EAP
   builds, and the scheduler's per-slice bookkeeping.  The gate reads
   [Gc.minor_words] over whole deterministic runs — crossing-hw under
   the kernel, and the snapshot gate's bump pair under [System.run],
   whose interval timer ticks every instruction — so the figure is
   exact and the gate cannot flake. *)
let step_alloc_budget_words = 5.0

let minor_words_per_instruction counters run =
  let i0 = Trace.Counters.instructions counters in
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int (Trace.Counters.instructions counters - i0)

let run_step_alloc_gate () =
  let name, max_instructions, build = List.hd workloads in
  let crossing =
    match build () with
    | Error e -> failwith (Printf.sprintf "%s: build failed: %s" name e)
    | Ok p ->
        minor_words_per_instruction p.Os.Process.machine.Isa.Machine.counters
          (fun () -> ignore (Os.Kernel.run ~max_instructions p))
  in
  let sys = build_snapshot_system () in
  let scheduled =
    minor_words_per_instruction
      (Os.System.machine sys).Isa.Machine.counters (fun () ->
        ignore (Os.System.run sys : (string * Os.Kernel.exit) list))
  in
  let scheduled_name = "bump-pair under System.run" in
  List.iter
    (fun (what, words) ->
      if words > step_alloc_budget_words then
        failwith
          (Printf.sprintf
             "untraced step allocates %.2f minor words per instruction on %s \
              (budget %.0f)"
             words what step_alloc_budget_words))
    [ (name, crossing); (scheduled_name, scheduled) ];
  Printf.printf
    "alloc gate - untraced step: %.2f minor words/instr on %s, %.2f on %s \
     (budget %.0f)\n"
    crossing name scheduled scheduled_name step_alloc_budget_words;
  (crossing, scheduled)

(* The plain side of the pair. *)
let run_snapshot_plain () = run_snapshot_system (build_snapshot_system ())

let run_snapshot_incremental () =
  let inc = build_snapshot_system () in
  let chain, base = Os.Snapshot.start_chain inc in
  let deltas = ref [] in
  let delta_bytes = ref 0 in
  let delta_max = ref 0 in
  let capture_seconds = ref 0.0 in
  let on_slice () =
    let t = Unix.gettimeofday () in
    let d = Os.Snapshot.capture_delta inc chain in
    capture_seconds := !capture_seconds +. (Unix.gettimeofday () -. t);
    let len = String.length d in
    delta_bytes := !delta_bytes + len;
    if len > !delta_max then delta_max := len;
    deltas := d :: !deltas
  in
  let run = run_snapshot_system ~on_slice inc in
  if Os.Snapshot.chain_length chain = 0 then
    failwith "snapshot incremental: no deltas captured";
  (* Restore on a fresh system exercises the whole transfer path:
     flatten (Stale_base/Broken_chain detection), decode, layered
     validation, self-check and audit. *)
  let fresh = build_snapshot_system () in
  let restore_ok =
    match Os.Snapshot.restore_chain fresh ~base (List.rev !deltas) with
    | Ok () -> true
    | Error _ -> false
  in
  {
    si_deltas = Os.Snapshot.chain_length chain;
    si_base_bytes = String.length base;
    si_delta_bytes_total = !delta_bytes;
    si_delta_bytes_max = !delta_max;
    si_restore_ok = restore_ok;
    si_capture_seconds = !capture_seconds;
    si_run = run;
  }

(* Back-to-back incremental runs as one, like [merge_runs]: capture
   time is the mean per run. *)
let merge_incremental runs =
  let capture = List.fold_left (fun a r -> a +. r.si_capture_seconds) 0.0 runs in
  {
    (List.hd runs) with
    si_restore_ok = List.for_all (fun r -> r.si_restore_ok) runs;
    si_capture_seconds = capture /. float_of_int (List.length runs);
    si_run = merge_runs (List.map (fun r -> r.si_run) runs);
  }

(* The serving fleet at 1, 2 and 4 shards on the same workload.
   Throughput is reported in MODELED time (fleet makespan: the sum
   over dispatch windows of the slowest shard's busy cycles), because
   that is what the sharding actually divides; host wall-clock rides
   along as auxiliary data — on a single-core host the domains
   time-slice and wall-clock shows no speedup. *)
type serving_sample = {
  sv_shards : int;
  sv_completed : int;
  sv_makespan : int;
  sv_rps : float;  (* requests per modeled second, 1 cycle = 1us *)
  sv_p50 : int;
  sv_p99 : int;
  sv_host_seconds : float;
}

(* 10k requests: large enough that per-request serving cost dominates
   pool startup, small enough to keep the bench interactive.  Arrivals
   pace with the virtual clock (mean gap 64 cycles), so scaling the
   request count adds windows rather than queue depth — queue_cap 256
   sheds nothing at any size. *)
let serving_requests = 10_000
let serving_seed = 7

let run_serving_fleet ~shards =
  let reqs =
    Serve.Workload.(
      generate ~mix:standard_mix ~seed:serving_seed ~requests:serving_requests)
  in
  (* queue_cap high enough that nothing is shed: shedding would make
     the completed set depend on the shard count and the scaling
     numbers incomparable. *)
  let cfg =
    { (Serve.Dispatcher.default_config ~shards) with queue_cap = 256 }
  in
  let t0 = Unix.gettimeofday () in
  let r = Serve.Dispatcher.run cfg reqs in
  let dt = Unix.gettimeofday () -. t0 in
  let stats = r.Serve.Dispatcher.stats in
  let agg =
    Serve.Aggregate.build r.Serve.Dispatcher.models r.Serve.Dispatcher.outcomes
      stats
  in
  if stats.Serve.Dispatcher.shed > 0 then
    failwith "serving bench: requests shed; raise queue_cap";
  let h = agg.Serve.Aggregate.fleet.Serve.Aggregate.latency in
  {
    sv_shards = shards;
    sv_completed = stats.Serve.Dispatcher.completed;
    sv_makespan = stats.Serve.Dispatcher.makespan;
    sv_rps = Serve.Aggregate.requests_per_modeled_sec agg;
    sv_p50 = Trace.Histogram.percentile h 50.0;
    sv_p99 = Trace.Histogram.percentile h 99.0;
    sv_host_seconds = dt;
  }

(* The arena gate: non-quarantined tenants in the standard adversarial
   mix must retire instructions at >= [arena_throughput_floor] times
   the instructions-per-cycle of a cooperative-only arena on the same
   seed.  Quarantine must contain the abusers' cost — the well-behaved
   majority may not be taxed for sharing the machine with them.  The
   ratio is computed over compute-bound tenants only: the io-heavy and
   paging-heavy kinds spend billed cycles on channel waits and page
   faults by design, which is workload shape, not quarantine tax. *)
let arena_tenants = 256
let arena_seed = 42
let arena_throughput_floor = 0.9

type arena_sample = {
  ar_profile : string;
  ar_completed : int;
  ar_contained : int;
  ar_quarantined : int;
  ar_audits : int;
  ar_violations : int;
  ar_nq_instructions : int;  (* retired by non-quarantined tenants *)
  ar_nq_cycles : int;  (* billed to non-quarantined tenants *)
  ar_ipc : float;  (* nq_instructions / nq_cycles *)
  ar_host_seconds : float;
}

let run_arena_profile ~profile =
  let tenants =
    Serve.Tenants.generate ~profile ~seed:arena_seed ~tenants:arena_tenants ()
  in
  let t0 = Unix.gettimeofday () in
  let r = Serve.Tenants.run_sharded ~shards:1 ~seed:arena_seed tenants in
  let dt = Unix.gettimeofday () -. t0 in
  let quarantined (b : Os.Arena.bill) =
    String.length b.Os.Arena.verdict >= 11
    && String.sub b.Os.Arena.verdict 0 11 = "quarantined"
  in
  let compute_bound (b : Os.Arena.bill) =
    b.Os.Arena.kind <> "io-heavy" && b.Os.Arena.kind <> "paging-heavy"
  in
  let nq =
    List.filter
      (fun b -> (not (quarantined b)) && compute_bound b)
      r.Os.Arena.bills
  in
  let instr =
    List.fold_left
      (fun a (b : Os.Arena.bill) ->
        a + b.Os.Arena.usage.Trace.Counters.instructions)
      0 nq
  in
  let cyc =
    List.fold_left
      (fun a (b : Os.Arena.bill) -> a + b.Os.Arena.usage.Trace.Counters.cycles)
      0 nq
  in
  {
    ar_profile = profile;
    ar_completed = r.Os.Arena.completed;
    ar_contained = r.Os.Arena.contained;
    ar_quarantined = r.Os.Arena.quarantined;
    ar_audits = r.Os.Arena.audits;
    ar_violations = List.length r.Os.Arena.violations;
    ar_nq_instructions = instr;
    ar_nq_cycles = cyc;
    ar_ipc = float_of_int instr /. float_of_int (max 1 cyc);
    ar_host_seconds = dt;
  }

(* Host cost of the machines themselves: building an [Os.System] at
   the default 2^21 words and at a serve shard's 2^18, and resetting a
   wave system an arena wave has just used.  Each figure is the best of
   [machine_samples] timed calls — the cost with the least host noise —
   and none is gated: they say where a machine's host time goes, the
   arena and serve sections say what it buys. *)
let machine_samples = 20
let machine_sizes = [ 1 lsl 21; 1 lsl 18 ]

type machine_sample = {
  mc_create_ms : (int * float) list;  (* memory words, best ms *)
  mc_reset_us : float;
}

(* Best of [n] timed calls of [f (prepare ())]; a full major
   collection and [prepare] run untimed before each, so a call does not
   pay for garbage the experiments before it left (in a full `make
   bench` run that debt made a create ~10x dearer). *)
let best_seconds n ~prepare f =
  let best = ref max_int in
  for _ = 1 to n do
    Gc.full_major ();
    let x = prepare () in
    let t0 = Perfbench.Calib.now_ns () in
    f x;
    best := min !best (Perfbench.Calib.now_ns () - t0)
  done;
  float_of_int !best *. 1e-9

(* The seed-[arena_seed] standard population's first wave. *)
let first_wave_tenants () =
  List.hd
    (Os.Arena.waves
       (Serve.Tenants.generate ~seed:arena_seed
          ~tenants:Os.Arena.wave_capacity ()))

let run_machine_costs () =
  let create words =
    1e3
    *. best_seconds machine_samples ~prepare:Os.Store.create (fun store ->
           ignore (Os.System.create ~mem_size:words ~store ()))
  in
  let wave, ts = first_wave_tenants () in
  let sys = Os.System.create ~store:(Os.Store.create ()) () in
  let used_store () =
    ignore (Os.Arena.run_wave ~sys ~quota:Os.Arena.default_quota ~wave ts);
    Os.Store.create ()
  in
  {
    mc_create_ms = List.map (fun words -> (words, create words)) machine_sizes;
    mc_reset_us =
      1e6
      *. best_seconds machine_samples ~prepare:used_store (fun store ->
             Os.System.reset sys ~store);
  }

(* Host cost of an arena tenant's fixed layers, on a wave system an
   arena wave has just used: loading the seed-[arena_seed] standard
   first wave (its store, [Os.System.reset] and the eight spawns), the
   assembly inside those spawns done as the loader does it (every
   segment of a tenant surveyed, then each linked against the
   tenant's surveys), and one slice of a wave of eight quota spinners
   under [Os.Arena.run_wave] (the wave's time over its
   [Os.System.slices]).  Best of [machine_samples] each; no gate — the
   layers under the arena section's tenants. *)
type tenant_sample = {
  tn_load_us : float;
  tn_assembly_us : float;
  tn_slice_us : float;
  tn_spinner_slices : int;
}

let wave_store (ts : Os.Arena.tenant list) =
  let store = Os.Store.create () in
  List.iter
    (fun (t : Os.Arena.tenant) ->
      List.iter
        (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
        t.segments)
    ts;
  store

let assemble_like_the_loader (t : Os.Arena.tenant) =
  let asm_fail name errs =
    failwith
      (Format.asprintf "tenant %s: %a" name
         (Format.pp_print_list Asm.Assemble.pp_error)
         errs)
  in
  let surveys =
    List.mapi
      (fun segno (name, _, src) ->
        match Asm.Assemble.survey src with
        | Ok s -> (name, segno, s)
        | Error errs -> asm_fail name errs)
      t.segments
  in
  let externals ~segment ~symbol =
    List.find_map
      (fun (name, segno, (s : Asm.Assemble.survey)) ->
        if String.equal name segment then
          List.assoc_opt symbol s.survey_symbols
          |> Option.map (fun wordno -> Hw.Addr.v ~segno ~wordno)
        else None)
      surveys
  in
  List.iter
    (fun (name, segno, s) ->
      match Asm.Assemble.link ~externals ~self_segno:segno s with
      | Ok _ -> ()
      | Error errs -> asm_fail name errs)
    surveys

let run_tenant_costs () =
  let quota = Os.Arena.default_quota in
  let wave, ts = first_wave_tenants () in
  let sys = Os.System.create ~store:(Os.Store.create ()) () in
  let used () = ignore (Os.Arena.run_wave ~sys ~quota ~wave ts) in
  let load () =
    Os.System.reset sys ~store:(wave_store ts);
    List.iter
      (fun (t : Os.Arena.tenant) ->
        match
          Os.System.spawn sys ~paged:t.paged ~pname:t.name ~user:t.name
            ~segments:(List.map (fun (n, _, _) -> n) t.segments)
            ~start:t.start ~ring:t.ring
        with
        | Ok _ -> ()
        | Error e -> failwith ("tenant: cannot spawn " ^ t.name ^ ": " ^ e))
      ts
  in
  let spinners =
    Serve.Tenants.generate ~seed:arena_seed ~tenants:512 ()
    |> List.filter (fun (t : Os.Arena.tenant) -> t.kind = "quota-spin")
    |> List.filteri (fun i _ -> i < Os.Arena.wave_capacity)
  in
  if List.length spinners < Os.Arena.wave_capacity then
    failwith "tenant: too few quota spinners drawn";
  let spin () = ignore (Os.Arena.run_wave ~sys ~quota ~wave:0 spinners) in
  let load_us = 1e6 *. best_seconds machine_samples ~prepare:used load in
  let assembly_us =
    1e6
    *. best_seconds machine_samples ~prepare:ignore (fun () ->
           List.iter assemble_like_the_loader ts)
  in
  let spin_s = best_seconds machine_samples ~prepare:ignore spin in
  let slices = Os.System.slices sys in
  {
    tn_load_us = load_us;
    tn_assembly_us = assembly_us;
    tn_slice_us = 1e6 *. spin_s /. float_of_int slices;
    tn_spinner_slices = slices;
  }

(* The three-way backend showdown: one downward-and-back crossing
   workload served under hardware rings, the 645 software fallback and
   the capability machine, plus a small chaos campaign per backend for
   the recovery-latency comparison.  Host instr/sec says what each
   backend costs the interpreter; the crossing-span percentiles and
   recovery latencies are modeled cycles and must be byte-deterministic
   per backend — {!backend_deterministic_fragment} renders the modeled
   half alone and a full rerun must reproduce it exactly. *)
type backend_sample = {
  bk_backend : string;
  bk_instructions : int;
  bk_seconds : float;
  bk_ips : float;
  bk_cycles : int;
  bk_kinds : (string * int * int * int * int * int) list;
      (* kind, count, p50, p90, p99, max — crossing spans. *)
  bk_recovery : int * int * int * int * int;
      (* count, p50, p90, p99, max — chaos recovery latency. *)
  bk_recovered : int;
  bk_quarantined : int;
  bk_violations : int;
}

let backend_configs =
  [
    ("hw", Os.Scenario.default_config, Isa.Machine.Ring_hardware);
    ("645", Os.Scenario.software_config, Isa.Machine.Ring_software_645);
    ("cap", Os.Scenario.capability_config, Isa.Machine.Ring_capability);
  ]

let run_backend ~name ~config ~mode =
  let s, m =
    timed_run ~setup:enable_spans ~name:("backend " ^ name)
      ~max_instructions:4_000_000 (fun () ->
        Os.Scenario.crossing ~config ~caller_ring:4 ~callee_ring:1
          ~iterations:2_000 ())
  in
  let kinds = span_kinds m in
  let chaos =
    Os.Chaos.run_campaigns ~mode ~campaigns:8 (Hw.Inject.default_plan ~seed:0)
  in
  let h = chaos.Os.Chaos.recovery_latency in
  {
    bk_backend = name;
    bk_instructions = s.instructions;
    bk_seconds = s.seconds;
    bk_ips = s.ips;
    bk_cycles = s.cycles;
    bk_kinds = kinds;
    bk_recovery =
      ( Trace.Histogram.count h,
        Trace.Histogram.percentile h 50.0,
        Trace.Histogram.percentile h 90.0,
        Trace.Histogram.percentile h 99.0,
        if Trace.Histogram.count h = 0 then 0 else Trace.Histogram.max_value h
      );
    bk_recovered = chaos.Os.Chaos.recovered;
    bk_quarantined = chaos.Os.Chaos.quarantined;
    bk_violations = List.length chaos.Os.Chaos.violations;
  }

(* Host cost of the serve rewind, per backend: a serve shard's system
   (2^18 words, one process running the crossing program, profile on)
   rewound by [Os.Snapshot.warm_boot] to its boot image right after
   one [Os.System.run], as between two requests.  The image was warm-booted once before the
   samples, as a shard's is from its second request on.  Best of
   [machine_samples] microseconds; no gate — the layer under the
   serve section's requests. *)
let rewind_mem = 1 lsl 18
let rewind_iterations = 20

let run_rewind_costs () =
  List.map
    (fun (name, _, mode) ->
      let sources =
        Os.Scenario.crossing_sources ~caller_ring:4 ~callee_ring:1
          rewind_iterations
      in
      let store = Os.Store.create () in
      List.iter
        (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
        sources;
      let sys = Os.System.create ~mode ~mem_size:rewind_mem ~store () in
      (match
         Os.System.spawn sys ~pname:"req" ~user:"alice"
           ~segments:(List.map (fun (n, _, _) -> n) sources)
           ~start:("caller", "start") ~ring:4
       with
      | Ok _ -> ()
      | Error e -> failwith ("rewind: cannot spawn: " ^ e));
      Trace.Profile.set_enabled (Os.System.machine sys).Isa.Machine.profile
        true;
      let image = Os.Snapshot.capture sys in
      let warm_boot () =
        match Os.Snapshot.warm_boot sys image with
        | Ok () -> ()
        | Error e ->
            failwith
              (Format.asprintf "rewind %s: %a" name Os.Snapshot.pp_error e)
      in
      warm_boot ();
      ( name,
        1e6
        *. best_seconds machine_samples
             ~prepare:(fun () -> ignore (Os.System.run sys))
             warm_boot ))
    backend_configs

(* The modeled half of a backend sample as JSON fields (no braces, no
   host timing): run the measurement twice, these bytes must match
   exactly — that is the per-backend determinism gate. *)
let backend_deterministic_fragment s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "\"backend\": %S, \"modeled_cycles\": %d, " s.bk_backend
       s.bk_cycles);
  Buffer.add_string buf "\"crossing_latency_cycles\": {";
  List.iteri
    (fun j (kind, count, p50, p90, p99, max) ->
      if j > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf
           "%S: {\"count\": %d, \"p50\": %d, \"p90\": %d, \"p99\": %d, \
            \"max\": %d}"
           kind count p50 p90 p99 max))
    s.bk_kinds;
  let (rc, rp50, rp90, rp99, rmax) = s.bk_recovery in
  Buffer.add_string buf
    (Printf.sprintf
       "}, \"recovery_latency_cycles\": {\"count\": %d, \"p50\": %d, \
        \"p90\": %d, \"p99\": %d, \"max\": %d}, \"recovered\": %d, \
        \"quarantined\": %d, \"violations\": %d"
       rc rp50 rp90 rp99 rmax s.bk_recovered s.bk_quarantined
       s.bk_violations);
  Buffer.contents buf

let json_of_samples samples span_samples ~kernel_ms ~trace ~step_alloc ~idle
    ~(chaos : Os.Chaos.report) ~snap ~serving ~arena ~machine ~rewind
    ~tenant ~backends =
  let untraced, traced = trace.median_pair in
  let buf = Buffer.create 1024 in
  (* Host self-description up front: every section below — not just
     serving — is a measurement on this core count and compiler, at the
     host speed the reference kernel read before and after them. *)
  let kernel_before, kernel_after = kernel_ms in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"cores\": %d,\n  \"ocaml_version\": %S,\n  \
        \"reference_kernel_ms\": {\"before\": %.3f, \"after\": %.3f, \
        \"nominal\": %.1f},\n"
       (Domain.recommended_domain_count ())
       Sys.ocaml_version kernel_before kernel_after Perfbench.Calib.nominal_ms);
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      let (hits, misses) = Throughput_stats.sdw_cache s.snapshot in
      let (phits, pmisses) = Throughput_stats.ptw_cache s.snapshot in
      let (ihits, imisses) = Throughput_stats.icache s.snapshot in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"instructions\": %d, \"seconds\": %.6f, \
            \"instructions_per_sec\": %.0f, \"modeled_cycles\": %d, \
            \"sdw_cache_hit_pct\": %s, \"ptw_cache_hit_pct\": %s, \
            \"icache_hit_pct\": %s}"
           s.name s.instructions s.seconds s.ips s.cycles
           (pct_json (pct hits (hits + misses)))
           (pct_json (pct phits (phits + pmisses)))
           (pct_json (pct ihits (ihits + imisses)))))
    samples;
  Buffer.add_string buf "\n  ],\n  \"spans\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": %S, \"latency_cycles\": {" s.sw_name);
      List.iteri
        (fun j (kind, count, p50, p90, p99, max) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf
               "%S: {\"count\": %d, \"p50\": %d, \"p90\": %d, \"p99\": %d, \
                \"max\": %d}"
               kind count p50 p90 p99 max))
        s.sw_kinds;
      Buffer.add_string buf "}}")
    span_samples;
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n  \"trace_overhead\": {\"workload\": %S, \
        \"instructions_per_sec_untraced\": %.0f, \
        \"instructions_per_sec_traced\": %.0f, %s},\n"
       untraced.name untraced.ips traced.ips
       (json_of_gate ~budget:trace_overhead_budget trace));
  let crossing_words, scheduled_words = step_alloc in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"step_alloc\": {\"minor_words_per_instr\": {%S: %.3f, \
        \"bump-pair-scheduled\": %.3f}, \"budget\": %.1f},\n"
       untraced.name crossing_words scheduled_words step_alloc_budget_words);
  let h = chaos.Os.Chaos.recovery_latency in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"robustness\": {\"injector_off\": {\"workload\": %S, \
        \"instructions_per_sec_detached\": %.0f, \
        \"instructions_per_sec_idle_injector\": %.0f, \"overhead_ratio\": \
        %.3f, \"modeled_cycles_identical\": %b}, \"campaigns\": \
        {\"count\": %d, \"injected\": %d, \"retried\": %d, \"recovered\": \
        %d, \"quarantined\": %d, \"degraded\": %d, \"violations\": %d, \
        \"recovery_latency_cycles\": {\"count\": %d, \"p50\": %d, \"p90\": \
        %d, \"p99\": %d, \"max\": %d}}},\n"
       untraced.name untraced.ips idle.ips (untraced.ips /. idle.ips)
       (idle.cycles = untraced.cycles)
       chaos.Os.Chaos.campaigns chaos.Os.Chaos.injected
       chaos.Os.Chaos.retried chaos.Os.Chaos.recovered
       chaos.Os.Chaos.quarantined chaos.Os.Chaos.degraded
       (List.length chaos.Os.Chaos.violations)
       (Trace.Histogram.count h)
       (Trace.Histogram.percentile h 50.0)
       (Trace.Histogram.percentile h 90.0)
       (Trace.Histogram.percentile h 99.0)
       (if Trace.Histogram.count h = 0 then 0
        else Trace.Histogram.max_value h));
  let plain, snap_inc = snap.median_pair in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"snapshot_incremental\": {\"workload\": %S, \"quantum\": %d, \
        \"base_bytes\": %d, \"deltas\": %d, \"delta_bytes_total\": %d, \
        \"delta_bytes_max\": %d, \"capture_seconds_total\": %.6f, \
        \"seconds_per_delta\": %.6f, \"modeled_cycles_identical\": true, \
        \"chain_restore_ok\": true, \"instructions_per_sec_plain\": %.0f, \
        \"instructions_per_sec_incremental\": %.0f, %s},\n"
       snap_workload snap_quantum snap_inc.si_base_bytes
       snap_inc.si_deltas snap_inc.si_delta_bytes_total
       snap_inc.si_delta_bytes_max snap_inc.si_capture_seconds
       (snap_inc.si_capture_seconds /. float_of_int snap_inc.si_deltas)
       plain.ips snap_inc.si_run.ips
       (json_of_gate ~budget:snap_incremental_budget snap));
  let base = List.find (fun s -> s.sv_shards = 1) serving in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"serving\": {\"mix\": \"standard\", \"requests\": %d, \"seed\": \
        %d, \"cores\": %d, \"samples\": [\n"
       serving_requests serving_seed
       (Domain.recommended_domain_count ()));
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"shards\": %d, \"completed\": %d, \"makespan_cycles\": %d, \
            \"requests_per_modeled_sec\": %.2f, \"p50_cycles\": %d, \
            \"p99_cycles\": %d, \"modeled_speedup\": %.2f, \
            \"host_seconds\": %.6f, \"host_speedup\": %.2f}"
           s.sv_shards s.sv_completed s.sv_makespan s.sv_rps s.sv_p50
           s.sv_p99
           (float_of_int base.sv_makespan /. float_of_int s.sv_makespan)
           s.sv_host_seconds
           (base.sv_host_seconds /. s.sv_host_seconds)))
    serving;
  Buffer.add_string buf "\n  ]},\n";
  let coop = List.find (fun a -> a.ar_profile = "cooperative") arena in
  let std = List.find (fun a -> a.ar_profile = "standard") arena in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"arena\": {\"tenants\": %d, \"seed\": %d, \"samples\": [\n"
       arena_tenants arena_seed);
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"profile\": %S, \"completed\": %d, \"contained\": %d, \
            \"quarantined\": %d, \"audits\": %d, \"violations\": %d, \
            \"nonquarantined_instructions\": %d, \"nonquarantined_cycles\": \
            %d, \"instructions_per_cycle\": %.4f, \"host_seconds\": %.6f}"
           a.ar_profile a.ar_completed a.ar_contained a.ar_quarantined
           a.ar_audits a.ar_violations a.ar_nq_instructions a.ar_nq_cycles
           a.ar_ipc a.ar_host_seconds))
    arena;
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ], \"throughput_ratio\": %.4f, \"throughput_floor\": %.1f},\n"
       (std.ar_ipc /. coop.ar_ipc)
       arena_throughput_floor);
  Buffer.add_string buf
    (Printf.sprintf "  \"machine\": {\"best_of\": %d, \"system_create_ms\": {%s}, \
                     \"system_reset_used_wave_us\": %.1f},\n"
       machine_samples
       (String.concat ", "
          (List.map
             (fun (words, ms) -> Printf.sprintf "\"%d\": %.3f" words ms)
             machine.mc_create_ms))
       machine.mc_reset_us);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"rewind\": {\"best_of\": %d, \"memory_words\": %d, \"program\": \
        \"crossing\", \"iterations\": %d, \"warm_boot_after_run_us\": {%s}},\n"
       machine_samples rewind_mem rewind_iterations
       (String.concat ", "
          (List.map
             (fun (name, us) -> Printf.sprintf "%S: %.2f" name us)
             rewind)));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"tenant\": {\"best_of\": %d, \"seed\": %d, \
        \"first_wave_load_us\": %.1f, \"first_wave_assembly_us\": %.1f, \
        \"spinner_wave_slices\": %d, \"spinner_slice_us\": %.3f},\n"
       machine_samples arena_seed tenant.tn_load_us tenant.tn_assembly_us
       tenant.tn_spinner_slices tenant.tn_slice_us);
  Buffer.add_string buf
    "  \"backends\": {\"workload\": \"crossing\", \"caller_ring\": 4, \
     \"callee_ring\": 1, \"samples\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {%s, \"instructions\": %d, \"seconds\": %.6f, \
            \"instructions_per_sec\": %.0f}"
           (backend_deterministic_fragment s)
           s.bk_instructions s.bk_seconds s.bk_ips))
    backends;
  Buffer.add_string buf "\n  ]}\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Host figures are wall time on a shared machine, where host speed
   drifts by tens of percent within minutes.  perfbench's reference
   kernel, timed before the first host figure and after the last,
   says how fast the host ran meanwhile, so one file can be judged
   on its own (a kernel time above [Calib.nominal_ms] means a slow
   host). *)
let reference_kernel_ms ~when_ =
  let ms = Perfbench.Calib.kernel_ms () in
  Printf.printf "reference kernel %s the host figures: %.3f ms (nominal %.1f)\n"
    when_ ms Perfbench.Calib.nominal_ms;
  ms

let throughput () =
  let kernel_before = reference_kernel_ms ~when_:"before" in
  let samples =
    List.map
      (fun (name, max_instructions, build) ->
        run_workload ~name ~max_instructions build)
      workloads
  in
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("workload", Trace.Tablefmt.Left);
          ("instructions", Trace.Tablefmt.Right);
          ("host seconds", Trace.Tablefmt.Right);
          ("instr/sec", Trace.Tablefmt.Right);
          ("SDW cache hit%", Trace.Tablefmt.Right);
          ("PTW cache hit%", Trace.Tablefmt.Right);
          ("icache hit%", Trace.Tablefmt.Right);
        ]
  in
  List.iter
    (fun s ->
      let (hits, misses) = Throughput_stats.sdw_cache s.snapshot in
      let (phits, pmisses) = Throughput_stats.ptw_cache s.snapshot in
      let (ihits, imisses) = Throughput_stats.icache s.snapshot in
      Trace.Tablefmt.add_row t
        [
          s.name;
          string_of_int s.instructions;
          Printf.sprintf "%.3f" s.seconds;
          Printf.sprintf "%.0f" s.ips;
          pct_cell (pct hits (hits + misses));
          pct_cell (pct phits (phits + pmisses));
          pct_cell (pct ihits (ihits + imisses));
        ])
    samples;
  Trace.Tablefmt.print
    ~title:"Throughput - host instructions/sec on the scenario workloads" t;
  print_newline ();
  let span_samples =
    List.map
      (fun (name, build) -> run_span_workload ~name build)
      span_workloads
  in
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("workload", Trace.Tablefmt.Left);
          ("crossing", Trace.Tablefmt.Left);
          ("count", Trace.Tablefmt.Right);
          ("p50", Trace.Tablefmt.Right);
          ("p90", Trace.Tablefmt.Right);
          ("p99", Trace.Tablefmt.Right);
          ("max", Trace.Tablefmt.Right);
        ]
  in
  List.iter
    (fun s ->
      List.iter
        (fun (kind, count, p50, p90, p99, max) ->
          Trace.Tablefmt.add_row t
            [
              s.sw_name;
              kind;
              string_of_int count;
              string_of_int p50;
              string_of_int p90;
              string_of_int p99;
              string_of_int max;
            ])
        s.sw_kinds)
    span_samples;
  Trace.Tablefmt.print
    ~title:"Spans - crossing latency percentiles (modeled cycles)" t;
  print_newline ();
  let trace =
    let name, max_instructions, build = List.hd workloads in
    run_pairs
      ~base:(fun () ->
        repeated (fun () -> run_workload ~name ~max_instructions build))
      ~variant:(fun () ->
        repeated (fun () ->
            run_workload ~setup:trace_everything ~name ~max_instructions build))
      ~ratio:(fun u t -> u.ips /. t.ips)
  in
  List.iter
    (fun (untraced, traced) ->
      if traced.cycles <> untraced.cycles then
        failwith
          (Printf.sprintf
             "tracing changed modeled cycles on %s: %d traced vs %d untraced"
             traced.name traced.cycles untraced.cycles))
    trace.pairs;
  let untraced, traced = trace.median_pair in
  Printf.printf
    "host time - trace overhead on %s: %.0f instr/sec untraced, %.0f \
     traced (median ratio %.2fx of %d pairs, quartiles %.2f-%.2f, budget \
     %.1fx)\n"
    untraced.name untraced.ips traced.ips (median trace) gate_pairs
    (quantile trace.ratios 0.25) (quantile trace.ratios 0.75)
    trace_overhead_budget;
  gate ~what:("trace overhead on " ^ untraced.name)
    ~budget:trace_overhead_budget trace;
  run_alloc_smoke ();
  let step_alloc = run_step_alloc_gate () in
  print_newline ();
  let idle =
    let (name, max_instructions, build) = List.hd workloads in
    run_workload ~setup:attach_idle_injector ~name ~max_instructions build
  in
  if idle.cycles <> untraced.cycles then
    failwith
      (Printf.sprintf
         "idle injector changed modeled cycles on %s: %d vs %d detached"
         idle.name idle.cycles untraced.cycles);
  Printf.printf
    "robustness - idle injector on %s: %.0f instr/sec detached, %.0f \
     attached (ratio %.2fx), modeled cycles identical\n"
    untraced.name untraced.ips idle.ips (untraced.ips /. idle.ips);
  let chaos = Os.Chaos.run_campaigns ~campaigns:20 (Hw.Inject.default_plan ~seed:0) in
  if chaos.Os.Chaos.violations <> [] then
    failwith
      (Printf.sprintf "chaos campaigns reported %d protection violations"
         (List.length chaos.Os.Chaos.violations));
  Format.printf "robustness - %a@." Os.Chaos.pp_report chaos;
  let snap =
    run_pairs
      ~base:(fun () -> repeated run_snapshot_plain)
      ~variant:(fun () ->
        merge_incremental
          (repeat_side
             ~seconds:(fun r -> r.si_run.seconds)
             run_snapshot_incremental))
      ~ratio:(fun plain inc -> plain.ips /. inc.si_run.ips)
  in
  List.iter
    (fun (plain, inc) ->
      if inc.si_run.cycles <> plain.cycles then
        failwith "incremental checkpointing changed the modeled cycle count";
      if not inc.si_restore_ok then
        failwith "snapshot delta chain failed to restore onto a fresh system")
    snap.pairs;
  let _, snap_inc = snap.median_pair in
  Printf.printf
    "host time - incremental snapshots on %s: %d deltas, one per \
     %d-instruction slice (base %d bytes, %d delta bytes total, max %d), \
     %.1f us/delta, median run ratio %.2fx of %d pairs (quartiles \
     %.2f-%.2f, budget %.1fx), chain restores clean\n"
    snap_workload snap_inc.si_deltas snap_quantum snap_inc.si_base_bytes
    snap_inc.si_delta_bytes_total snap_inc.si_delta_bytes_max
    (1e6 *. snap_inc.si_capture_seconds /. float_of_int snap_inc.si_deltas)
    (median snap) gate_pairs (quantile snap.ratios 0.25)
    (quantile snap.ratios 0.75) snap_incremental_budget;
  gate ~what:("incremental snapshot overhead on " ^ snap_workload)
    ~budget:snap_incremental_budget snap;
  let serving = List.map (fun shards -> run_serving_fleet ~shards) [ 1; 2; 4 ] in
  let sv_base = List.find (fun s -> s.sv_shards = 1) serving in
  let speedup s =
    float_of_int sv_base.sv_makespan /. float_of_int s.sv_makespan
  in
  let host_speedup s = sv_base.sv_host_seconds /. s.sv_host_seconds in
  let sv2 = List.find (fun s -> s.sv_shards = 2) serving in
  let sv4 = List.find (fun s -> s.sv_shards = 4) serving in
  if speedup sv4 < 2.0 then
    failwith
      (Printf.sprintf
         "serving fleet scaled %.2fx at 4 shards (expected >= 2.0x)"
         (speedup sv4));
  (* The host-time gate is core-aware.  On a multicore host the
     persistent pool must deliver real parallel speedup: >= 3x at 4
     shards and host_seconds strictly decreasing across 1/2/4.  A host
     with fewer than 4 cores cannot express that speedup no matter what
     the pool does (the domains time-slice one core), so there the gate
     pins down what the pool does fix: multi-shard serving must no
     longer cost more host time than single-shard (the old
     spawn-per-window dispatcher was 1.53x slower at 4 shards). *)
  let cores = Domain.recommended_domain_count () in
  if cores >= 4 then begin
    if host_speedup sv4 < 3.0 then
      failwith
        (Printf.sprintf
           "serving fleet host speedup %.2fx at 4 shards (expected >= 3.0x \
            on a %d-core host)"
           (host_speedup sv4) cores);
    if
      not
        (sv2.sv_host_seconds < sv_base.sv_host_seconds
        && sv4.sv_host_seconds < sv2.sv_host_seconds)
    then
      failwith
        (Printf.sprintf
           "serving host_seconds not monotonically decreasing across 1/2/4 \
            shards: %.3f / %.3f / %.3f"
           sv_base.sv_host_seconds sv2.sv_host_seconds sv4.sv_host_seconds)
  end
  else if
    sv4.sv_host_seconds > sv_base.sv_host_seconds *. 1.2
    || sv2.sv_host_seconds > sv_base.sv_host_seconds *. 1.2
  then
    failwith
      (Printf.sprintf
         "multi-shard serving regressed host time on a %d-core host: %.3f / \
          %.3f / %.3f s across 1/2/4 shards (expected within 1.2x of 1 \
          shard)"
         cores sv_base.sv_host_seconds sv2.sv_host_seconds
         sv4.sv_host_seconds);
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("shards", Trace.Tablefmt.Right);
          ("completed", Trace.Tablefmt.Right);
          ("makespan cycles", Trace.Tablefmt.Right);
          ("req/modeled-sec", Trace.Tablefmt.Right);
          ("p50", Trace.Tablefmt.Right);
          ("p99", Trace.Tablefmt.Right);
          ("speedup", Trace.Tablefmt.Right);
          ("host s", Trace.Tablefmt.Right);
          ("host speedup", Trace.Tablefmt.Right);
        ]
  in
  List.iter
    (fun s ->
      Trace.Tablefmt.add_row t
        [
          string_of_int s.sv_shards;
          string_of_int s.sv_completed;
          string_of_int s.sv_makespan;
          Printf.sprintf "%.0f" s.sv_rps;
          string_of_int s.sv_p50;
          string_of_int s.sv_p99;
          Printf.sprintf "%.2fx" (speedup s);
          Printf.sprintf "%.3f" s.sv_host_seconds;
          Printf.sprintf "%.2fx" (host_speedup s);
        ])
    serving;
  Trace.Tablefmt.print
    ~title:
      (Printf.sprintf
         "Serving - fleet throughput in modeled time (%d requests, standard \
          mix, seed %d)"
         serving_requests serving_seed)
    t;
  print_newline ();
  let arena =
    List.map (fun profile -> run_arena_profile ~profile)
      [ "cooperative"; "standard" ]
  in
  let coop = List.find (fun a -> a.ar_profile = "cooperative") arena in
  let std = List.find (fun a -> a.ar_profile = "standard") arena in
  List.iter
    (fun a ->
      if a.ar_violations > 0 then
        failwith
          (Printf.sprintf
             "arena bench: %d cross-tenant violations under the %s profile"
             a.ar_violations a.ar_profile))
    arena;
  if std.ar_quarantined = 0 then
    failwith "arena bench: standard profile quarantined no tenant";
  let arena_ratio = std.ar_ipc /. coop.ar_ipc in
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("profile", Trace.Tablefmt.Left);
          ("completed", Trace.Tablefmt.Right);
          ("contained", Trace.Tablefmt.Right);
          ("quarantined", Trace.Tablefmt.Right);
          ("audits", Trace.Tablefmt.Right);
          ("nq instr/cycle", Trace.Tablefmt.Right);
        ]
  in
  List.iter
    (fun a ->
      Trace.Tablefmt.add_row t
        [
          a.ar_profile;
          string_of_int a.ar_completed;
          string_of_int a.ar_contained;
          string_of_int a.ar_quarantined;
          string_of_int a.ar_audits;
          Printf.sprintf "%.4f" a.ar_ipc;
        ])
    arena;
  Trace.Tablefmt.print
    ~title:
      (Printf.sprintf
         "Arena - multi-tenant degradation (%d tenants, seed %d)"
         arena_tenants arena_seed)
    t;
  Printf.printf
    "arena - compute-bound non-quarantined tenants retire %.4f instr/cycle \
     under the standard adversarial mix vs %.4f cooperative-only (ratio \
     %.2fx, floor %.1fx)\n"
    std.ar_ipc coop.ar_ipc arena_ratio arena_throughput_floor;
  if arena_ratio < arena_throughput_floor then
    failwith
      (Printf.sprintf
         "arena throughput ratio %.3f below the %.1f floor: quarantine is \
          taxing the well-behaved tenants"
         arena_ratio arena_throughput_floor);
  print_newline ();
  let machine = run_machine_costs () in
  Printf.printf "host time - machines, best of %d: System.create %s; \
                 System.reset of a used wave system %.1f us\n"
    machine_samples
    (String.concat ", "
       (List.map
          (fun (words, ms) -> Printf.sprintf "%.3f ms at %d words" ms words)
          machine.mc_create_ms))
    machine.mc_reset_us;
  let rewind = run_rewind_costs () in
  Printf.printf "host time - rewind, best of %d: Snapshot.warm_boot after one \
                 System.run of a %d-word crossing system %s\n"
    machine_samples rewind_mem
    (String.concat ", "
       (List.map
          (fun (name, us) -> Printf.sprintf "%.2f us (%s)" us name)
          rewind));
  let tenant = run_tenant_costs () in
  Printf.printf "host time - tenant, best of %d: seed-%d first wave loaded \
                 onto a used wave system %.1f us (assembly %.1f us); a \
                 quota-spinner wave %.3f us per slice (%d slices)\n"
    machine_samples arena_seed tenant.tn_load_us tenant.tn_assembly_us
    tenant.tn_slice_us tenant.tn_spinner_slices;
  print_newline ();
  let backends =
    List.map
      (fun (name, config, mode) -> run_backend ~name ~config ~mode)
      backend_configs
  in
  (* Per-backend determinism gate: a second full run of the same
     measurement must reproduce the modeled fragment byte for byte. *)
  List.iter2
    (fun (name, config, mode) first ->
      let again = run_backend ~name ~config ~mode in
      let a = backend_deterministic_fragment first in
      let b = backend_deterministic_fragment again in
      if a <> b then
        failwith
          (Printf.sprintf
             "backend %s not deterministic across reruns:\n%s\nvs\n%s" name a
             b))
    backend_configs backends;
  List.iter
    (fun s ->
      if s.bk_violations > 0 then
        failwith
          (Printf.sprintf
             "backend %s: chaos campaigns reported %d protection violations"
             s.bk_backend s.bk_violations))
    backends;
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("backend", Trace.Tablefmt.Left);
          ("instr/sec", Trace.Tablefmt.Right);
          ("modeled cycles", Trace.Tablefmt.Right);
          ("down p50", Trace.Tablefmt.Right);
          ("down p99", Trace.Tablefmt.Right);
          ("up p50", Trace.Tablefmt.Right);
          ("up p99", Trace.Tablefmt.Right);
          ("recovery p50", Trace.Tablefmt.Right);
          ("recovery p99", Trace.Tablefmt.Right);
        ]
  in
  let kind_cell s kind pick =
    match List.find_opt (fun (k, _, _, _, _, _) -> k = kind) s.bk_kinds with
    | None -> "-"
    | Some (_, _, p50, _, p99, _) ->
        string_of_int (if pick = `P50 then p50 else p99)
  in
  List.iter
    (fun s ->
      let (_, rp50, _, rp99, _) = s.bk_recovery in
      Trace.Tablefmt.add_row t
        [
          s.bk_backend;
          Printf.sprintf "%.0f" s.bk_ips;
          string_of_int s.bk_cycles;
          kind_cell s "downward" `P50;
          kind_cell s "downward" `P99;
          kind_cell s "upward" `P50;
          kind_cell s "upward" `P99;
          string_of_int rp50;
          string_of_int rp99;
        ])
    backends;
  Trace.Tablefmt.print
    ~title:
      "Backends - crossing and recovery latency under hw / 645 / cap \
       (modeled cycles; determinism-gated)"
    t;
  print_newline ();
  let kernel_after = reference_kernel_ms ~when_:"after" in
  let oc = open_out "BENCH_throughput.json" in
  output_string oc
    (json_of_samples samples span_samples
       ~kernel_ms:(kernel_before, kernel_after) ~trace ~step_alloc ~idle
       ~chaos ~snap ~serving ~arena ~machine ~rewind ~tenant ~backends);
  close_out oc;
  Printf.printf "wrote BENCH_throughput.json\n"
