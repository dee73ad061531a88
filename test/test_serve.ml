(* The serving fleet: deterministic workload generation, consistent-hash
   routing, warm-boot shards, dispatch determinism and the
   shard-count-invariant fleet report. *)

let req_list =
  Alcotest.testable
    (Format.pp_print_list Serve.Workload.pp_request)
    (fun a b -> a = b)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_deterministic () =
  let gen () =
    Serve.Workload.(generate ~mix:standard_mix ~seed:11 ~requests:50)
  in
  Alcotest.check req_list "same (mix, seed, n) -> same stream" (gen ()) (gen ());
  let other =
    Serve.Workload.(generate ~mix:standard_mix ~seed:12 ~requests:50)
  in
  Alcotest.(check bool) "another seed -> another stream" false (gen () = other)

let test_workload_shape () =
  let reqs =
    Serve.Workload.(generate ~mix:standard_mix ~seed:3 ~requests:80)
  in
  Alcotest.(check int) "count" 80 (List.length reqs);
  List.iteri
    (fun i (r : Serve.Workload.request) ->
      Alcotest.(check int) "ids are stream positions" i r.Serve.Workload.id;
      Alcotest.(check bool)
        (Printf.sprintf "%s is a catalog program" r.Serve.Workload.program)
        true
        (Serve.Shard.known_program r.Serve.Workload.program))
    reqs;
  let arrivals = List.map (fun r -> r.Serve.Workload.arrival) reqs in
  Alcotest.(check bool) "arrivals strictly increase" true
    (List.for_all2 ( < ) (0 :: arrivals)
       (arrivals @ [ max_int ]));
  let classes = Serve.Workload.classes reqs in
  Alcotest.(check bool) "several service classes" true
    (List.length classes >= 3)

let test_workload_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty mix rejected" true
    (bad (fun () ->
         Serve.Workload.generate
           ~mix:{ Serve.Workload.mix_name = "x"; entries = []; mean_gap = 4 }
           ~seed:0 ~requests:1));
  Alcotest.(check bool) "nonpositive weight rejected" true
    (bad (fun () ->
         Serve.Workload.generate
           ~mix:
             {
               Serve.Workload.mix_name = "x";
               entries = [ ("crossing-hw", 4, 0) ];
               mean_gap = 4;
             }
           ~seed:0 ~requests:1));
  Alcotest.(check bool) "unknown mix reported" true
    (match Serve.Workload.find_mix "no-such-mix" with
    | Error msg ->
        (* The error must list the valid names. *)
        let has sub =
          let n = String.length msg and m = String.length sub in
          let rec go i =
            i + m <= n && (String.sub msg i m = sub || go (i + 1))
          in
          go 0
        in
        has "standard"
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Routing *)

let test_route_owner () =
  let ring = Serve.Dispatcher.Route.make ~shards:4 ~replicas:16 in
  let k = ("crossing-hw", 40) in
  let o = Serve.Dispatcher.Route.owner ring k in
  Alcotest.(check bool) "owner in range" true (o >= 0 && o < 4);
  Alcotest.(check int) "owner is stable" o
    (Serve.Dispatcher.Route.owner ring k);
  (* Enough distinct classes must spread over every shard, or the
     consistent hash is not doing its job. *)
  let owners =
    List.sort_uniq compare
      (List.init 64 (fun i ->
           Serve.Dispatcher.Route.owner ring ("crossing-hw", i)))
  in
  Alcotest.(check int) "64 classes cover all 4 shards" 4 (List.length owners)

let test_route_alive () =
  let ring = Serve.Dispatcher.Route.make ~shards:4 ~replicas:16 in
  let k = ("same-ring", 40) in
  let preferred = Serve.Dispatcher.Route.owner ring k in
  (match
     Serve.Dispatcher.Route.owner_alive ring
       ~alive:(fun s -> s <> preferred)
       k
   with
  | None -> Alcotest.fail "three live shards, still no owner"
  | Some s ->
      Alcotest.(check bool) "walks past the dead preferred shard" true
        (s <> preferred));
  Alcotest.(check (option int))
    "no live shard -> None" None
    (Serve.Dispatcher.Route.owner_alive ring ~alive:(fun _ -> false) k)

(* ------------------------------------------------------------------ *)
(* Shard *)

let req ~id ~program ~iterations ~arrival =
  { Serve.Workload.id; program; iterations; arrival }

let test_shard_warm_boot_equivalence () =
  let s = Serve.Shard.create ~id:0 () in
  let r0 = req ~id:0 ~program:"crossing-hw" ~iterations:8 ~arrival:10 in
  let r1 = req ~id:1 ~program:"crossing-hw" ~iterations:8 ~arrival:20 in
  let o0 = Serve.Shard.exec s r0 in
  let o1 = Serve.Shard.exec s r1 in
  Alcotest.(check int) "one cold boot" 1 (Serve.Shard.cold_boots s);
  Alcotest.(check int) "one warm boot" 1 (Serve.Shard.warm_boots s);
  Alcotest.(check bool) "both exited" true
    (o0.Serve.Shard.ok && o1.Serve.Shard.ok);
  Alcotest.(check int) "warm latency = cold latency" o0.Serve.Shard.latency
    o1.Serve.Shard.latency;
  Alcotest.(check bool) "identical counter deltas" true
    (o0.Serve.Shard.delta = o1.Serve.Shard.delta);
  Alcotest.(check bool) "identical ring attribution" true
    (o0.Serve.Shard.ring_cycles = o1.Serve.Shard.ring_cycles)

let test_shard_every_program () =
  let s = Serve.Shard.create ~id:0 () in
  List.iter
    (fun program ->
      let o = Serve.Shard.exec s (req ~id:0 ~program ~iterations:3 ~arrival:0) in
      Alcotest.(check string)
        (program ^ " exits cleanly")
        "exited" o.Serve.Shard.exit_label;
      Alcotest.(check bool)
        (program ^ " costs cycles")
        true (o.Serve.Shard.latency > 0))
    Serve.Shard.programs

let test_shard_cache_disabled () =
  let cached = Serve.Shard.create ~id:0 ~image_cap:8 () in
  let uncached = Serve.Shard.create ~id:1 ~image_cap:0 () in
  let reqs =
    List.init 4 (fun i ->
        req ~id:i ~program:"same-ring" ~iterations:5 ~arrival:(i * 10))
  in
  let oc = List.map (Serve.Shard.exec cached) reqs in
  let ou = List.map (Serve.Shard.exec uncached) reqs in
  Alcotest.(check int) "disabled cache cold-boots every request" 4
    (Serve.Shard.cold_boots uncached);
  Alcotest.(check int) "enabled cache cold-boots once" 1
    (Serve.Shard.cold_boots cached);
  Alcotest.(check bool) "same outcomes either way" true
    (List.map (fun (o : Serve.Shard.outcome) -> (o.Serve.Shard.latency, o.Serve.Shard.delta)) oc
    = List.map (fun (o : Serve.Shard.outcome) -> (o.Serve.Shard.latency, o.Serve.Shard.delta)) ou)

(* ------------------------------------------------------------------ *)
(* Dispatcher + Aggregate *)

let run_fleet ?(shards = 2) ?(queue_cap = 256) ?watchdog ?pool reqs =
  let cfg =
    { (Serve.Dispatcher.default_config ~shards) with queue_cap; watchdog; pool }
  in
  let r = Serve.Dispatcher.run cfg reqs in
  ( Serve.Aggregate.build r.Serve.Dispatcher.models r.Serve.Dispatcher.outcomes
      r.Serve.Dispatcher.stats,
    r.Serve.Dispatcher.outcomes,
    r.Serve.Dispatcher.stats )

let test_dispatch_deterministic () =
  let reqs =
    Serve.Workload.(generate ~mix:standard_mix ~seed:7 ~requests:30)
  in
  let report () =
    let agg, _, _ = run_fleet ~shards:2 reqs in
    Serve.Aggregate.report_json agg
  in
  Alcotest.(check string) "same fleet, same bytes" (report ()) (report ())

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let fleet_section json =
  match (find_sub json "\"fleet\"", find_sub json "\"dispatch\"") with
  | Some a, Some b -> String.sub json a (b - a)
  | _ -> Alcotest.fail "report lacks fleet/dispatch sections"

let test_fleet_shard_count_invariant () =
  let reqs =
    Serve.Workload.(generate ~mix:standard_mix ~seed:5 ~requests:30)
  in
  let fleet_of shards =
    let agg, _, stats = run_fleet ~shards reqs in
    Alcotest.(check int) "nothing shed" 0 stats.Serve.Dispatcher.shed;
    fleet_section (Serve.Aggregate.report_json agg)
  in
  let f1 = fleet_of 1 in
  Alcotest.(check string) "1 shard = 2 shards" f1 (fleet_of 2);
  Alcotest.(check string) "1 shard = 3 shards" f1 (fleet_of 3)

let test_dispatch_backpressure () =
  (* One service class, queue bound 1: a burst in one window cannot
     all fit, and the excess must be shed and counted — backpressure
     is loss, never blocking. *)
  let reqs =
    List.init 10 (fun i ->
        req ~id:i ~program:"same-ring" ~iterations:4 ~arrival:(10 + i))
  in
  let cfg =
    { (Serve.Dispatcher.default_config ~shards:2) with queue_cap = 1 }
  in
  let r = Serve.Dispatcher.run cfg reqs in
  let outcomes = r.Serve.Dispatcher.outcomes in
  let stats = r.Serve.Dispatcher.stats in
  Alcotest.(check bool) "some requests shed" true
    (stats.Serve.Dispatcher.shed > 0);
  Alcotest.(check int) "every request either served or shed" 10
    (stats.Serve.Dispatcher.completed + stats.Serve.Dispatcher.shed);
  Alcotest.(check int) "outcomes match completions"
    stats.Serve.Dispatcher.completed (List.length outcomes)

let test_quarantine_redistribution () =
  (* A spinning request trips the run watchdog; its shard must be
     quarantined and the rest of its queue served elsewhere. *)
  let spin = req ~id:0 ~program:"spin" ~iterations:4000 ~arrival:1 in
  let rest =
    List.init 6 (fun i ->
        req ~id:(i + 1)
          ~program:(if i mod 2 = 0 then "crossing-hw" else "same-ring")
          ~iterations:6
          ~arrival:(2 + i))
  in
  let cfg =
    {
      (Serve.Dispatcher.default_config ~shards:2) with
      queue_cap = 256;
      watchdog = Some 500;
    }
  in
  let r = Serve.Dispatcher.run cfg (spin :: rest) in
  let outcomes = r.Serve.Dispatcher.outcomes in
  let stats = r.Serve.Dispatcher.stats in
  Alcotest.(check int) "one shard quarantined" 1
    stats.Serve.Dispatcher.quarantined;
  let spin_out =
    List.find
      (fun (o : Serve.Shard.outcome) ->
        o.Serve.Shard.request.Serve.Workload.id = 0)
      outcomes
  in
  Alcotest.(check bool) "the spin tripped" true spin_out.Serve.Shard.tripped;
  Alcotest.(check string) "spin exit is quarantined" "quarantined"
    spin_out.Serve.Shard.exit_label;
  Alcotest.(check int) "every request still served" 7
    stats.Serve.Dispatcher.completed;
  let live =
    Array.to_list r.Serve.Dispatcher.models
    |> List.filter (fun m -> not m.Serve.Dispatcher.ms_quarantined)
  in
  Alcotest.(check int) "one shard survives" 1 (List.length live);
  List.iter
    (fun (o : Serve.Shard.outcome) ->
      if o.Serve.Shard.request.Serve.Workload.id > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "request %d ok"
             o.Serve.Shard.request.Serve.Workload.id)
          true o.Serve.Shard.ok)
    outcomes

let test_aggregate_merges () =
  let reqs =
    Serve.Workload.(generate ~mix:standard_mix ~seed:9 ~requests:20)
  in
  let agg, outcomes, _ = run_fleet ~shards:2 reqs in
  let f = agg.Serve.Aggregate.fleet in
  Alcotest.(check int) "fleet completed = outcomes"
    (List.length outcomes) f.Serve.Aggregate.completed;
  Alcotest.(check int) "latency histogram holds every request"
    (List.length outcomes)
    (Trace.Histogram.count f.Serve.Aggregate.latency);
  (* The fleet counter total must equal the hand-folded sum. *)
  (match (f.Serve.Aggregate.counters, outcomes) with
  | Some total, o :: rest ->
      let expect =
        List.fold_left
          (fun acc (o : Serve.Shard.outcome) ->
            Trace.Counters.add acc o.Serve.Shard.delta)
          o.Serve.Shard.delta rest
      in
      Alcotest.(check bool) "counters are the pointwise sum" true
        (total = expect)
  | _ -> Alcotest.fail "no requests completed");
  (* Per-shard served counts must add up to the fleet. *)
  let shard_sum =
    Array.fold_left
      (fun a s -> a + s.Serve.Aggregate.served)
      0 agg.Serve.Aggregate.shards
  in
  Alcotest.(check int) "shards account for every request"
    f.Serve.Aggregate.completed shard_sum;
  Alcotest.(check bool) "throughput positive" true
    (Serve.Aggregate.requests_per_modeled_sec agg > 0.0)

(* ------------------------------------------------------------------ *)
(* Pool *)

(* Every item runs exactly once (a shared counter sees each index
   once), results come back in input order, and the worker ids [f]
   sees stay below the resolved worker count. *)
let test_pool_map_order () =
  let seen = Array.init 100 (fun _ -> Atomic.make 0) in
  let out =
    Serve.Pool.map ~workers:4
      (fun w x ->
        Atomic.incr seen.(x);
        (w, x * 2))
      (List.init 100 Fun.id)
  in
  Alcotest.(check (list int)) "results in input order"
    (List.init 100 (fun i -> i * 2))
    (List.map snd out);
  Alcotest.(check bool) "every item ran exactly once" true
    (Array.for_all (fun c -> Atomic.get c = 1) seen);
  Alcotest.(check bool) "worker ids in [0, 4)" true
    (List.for_all (fun (w, _) -> w >= 0 && w < 4) out);
  Alcotest.(check bool) "workers < 1 rejected" true
    (try
       ignore (Serve.Pool.map ~workers:0 (fun _ x -> x) [ 1 ]);
       false
     with Invalid_argument _ -> true)

let test_pool_inline () =
  let caller = Domain.self () in
  let out =
    Serve.Pool.map ~workers:1
      (fun w x -> (w, Domain.self () = caller, x))
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "one worker runs on the calling domain" true
    (out = [ (0, true, 1); (0, true, 2); (0, true, 3) ])

let test_pool_few_items () =
  let out = Serve.Pool.map ~workers:8 (fun w x -> (w, x + 1)) [ 10; 20; 30 ] in
  Alcotest.(check (list int)) "results in input order" [ 11; 21; 31 ]
    (List.map snd out);
  Alcotest.(check bool) "worker ids below the item count" true
    (List.for_all (fun (w, _) -> w >= 0 && w < 3) out);
  Alcotest.(check (list int)) "no items, no results" []
    (Serve.Pool.map ~workers:8 (fun _ x -> x) [])

(* A failing item must surface as its own exception, and only once
   nothing is running any more: [live] counts the calls of [f] still
   in flight, and must read zero when the exception arrives. *)
let test_pool_failure () =
  let live = Atomic.make 0 in
  let f _ x =
    Atomic.incr live;
    Fun.protect
      ~finally:(fun () -> Atomic.decr live)
      (fun () ->
        if x = 3 then failwith "boom";
        (* Keep the other workers busy while the failure lands. *)
        let acc = ref 0 in
        for i = 1 to 200_000 do
          acc := !acc lxor i
        done;
        ignore (Sys.opaque_identity !acc);
        x)
  in
  Alcotest.(check bool) "map re-raises the item's failure" true
    (try
       ignore (Serve.Pool.map ~workers:3 f (List.init 40 Fun.id));
       false
     with Failure msg -> msg = "boom");
  Alcotest.(check int) "every call finished before the raise" 0
    (Atomic.get live);
  Alcotest.(check (list int)) "a later map still works"
    (List.init 10 Fun.id)
    (Serve.Pool.map ~workers:3 (fun _ x -> x) (List.init 10 Fun.id))

let test_config_validation () =
  let bad cfg =
    try
      ignore (Serve.Dispatcher.run cfg []);
      false
    with Invalid_argument _ -> true
  in
  let base = Serve.Dispatcher.default_config ~shards:2 in
  Alcotest.(check bool) "shards 0 rejected" true (bad { base with shards = 0 });
  Alcotest.(check bool) "queue_cap 0 rejected" true
    (bad { base with queue_cap = 0 });
  Alcotest.(check bool) "batch_window 0 rejected" true
    (bad { base with batch_window = 0 });
  Alcotest.(check bool) "negative image_cap rejected" true
    (bad { base with image_cap = -1 });
  Alcotest.(check bool) "pool 0 rejected" true
    (bad { base with pool = Some 0 });
  Alcotest.(check bool) "replicas 0 rejected" true
    (bad { base with replicas = 0 })

let test_pool_report_invariant () =
  (* One service class and a prohibitive imbalance threshold: every
     request routes to its hash-preferred shard, so one modeled shard
     holds all the work.  The full report (not just the fleet section)
     must be byte-identical whatever the pool size. *)
  let reqs =
    List.init 40 (fun i ->
        req ~id:i ~program:"crossing-hw" ~iterations:8 ~arrival:(1 + (i * 16)))
  in
  let report ~pool =
    let cfg =
      {
        (Serve.Dispatcher.default_config ~shards:4) with
        queue_cap = 256;
        imbalance = 1000;
        pool;
      }
    in
    let r = Serve.Dispatcher.run cfg reqs in
    let stats = r.Serve.Dispatcher.stats in
    Alcotest.(check int) "all requests complete" 40
      stats.Serve.Dispatcher.completed;
    Alcotest.(check int) "nothing rebalanced off the hot shard" 0
      stats.Serve.Dispatcher.routed_balanced;
    Serve.Aggregate.report_json
      (Serve.Aggregate.build r.Serve.Dispatcher.models
         r.Serve.Dispatcher.outcomes stats)
  in
  let reference = report ~pool:(Some 4) in
  Alcotest.(check string) "pool 4 = pool 1" reference (report ~pool:(Some 1));
  Alcotest.(check string) "pool 4 = pool 3" reference (report ~pool:(Some 3))

let test_quarantine_under_pool () =
  (* A tripping request under a multi-worker pool: the quarantined
     shard's queue must be redistributed in request order and the
     whole report must byte-match the serial (one worker) run. *)
  let spin = req ~id:0 ~program:"spin" ~iterations:4000 ~arrival:1 in
  let rest =
    List.init 6 (fun i ->
        req ~id:(i + 1)
          ~program:(if i mod 2 = 0 then "crossing-hw" else "same-ring")
          ~iterations:6
          ~arrival:(2 + i))
  in
  let run ~pool =
    let agg, outcomes, stats =
      run_fleet ~shards:2 ~watchdog:500 ~pool (spin :: rest)
    in
    Alcotest.(check int) "one shard quarantined" 1
      stats.Serve.Dispatcher.quarantined;
    Alcotest.(check int) "every request still served" 7
      stats.Serve.Dispatcher.completed;
    Alcotest.(check (list int))
      "outcomes cover every id in order"
      [ 0; 1; 2; 3; 4; 5; 6 ]
      (List.map
         (fun (o : Serve.Shard.outcome) ->
           o.Serve.Shard.request.Serve.Workload.id)
         outcomes);
    Serve.Aggregate.report_json agg
  in
  Alcotest.(check string) "pooled run = serial run" (run ~pool:4)
    (run ~pool:1)

(* ------------------------------------------------------------------ *)
(* Traced serving *)

let test_traced_fleet () =
  let reqs =
    Serve.Workload.(generate ~mix:standard_mix ~seed:7 ~requests:30)
  in
  let trace = Some { Serve.Shard.sample = 2; seed = 7; capacity = 512; instr = 0 } in
  let run shards =
    let cfg =
      {
        (Serve.Dispatcher.default_config ~shards) with
        queue_cap = 256;
        trace;
      }
    in
    let r = Serve.Dispatcher.run cfg reqs in
    ( Serve.Aggregate.build r.Serve.Dispatcher.models
        r.Serve.Dispatcher.outcomes r.Serve.Dispatcher.stats,
      r.Serve.Dispatcher.outcomes )
  in
  let agg2, out2 = run 2 in
  (* Every completed request carries a trace, and the fleet accounting
     closes: seen = retained + dropped + sampled out. *)
  (match agg2.Serve.Aggregate.fleet.Serve.Aggregate.trace with
  | None -> Alcotest.fail "traced fleet reports no trace section"
  | Some tr ->
      Alcotest.(check int) "every completed request traced"
        agg2.Serve.Aggregate.fleet.Serve.Aggregate.completed
        tr.Serve.Aggregate.tr_requests;
      Alcotest.(check bool) "events retained" true
        (tr.Serve.Aggregate.tr_events > 0);
      Alcotest.(check bool) "sampler deselected events" true
        (tr.Serve.Aggregate.tr_sampled_out > 0);
      Alcotest.(check int) "accounting closes" tr.Serve.Aggregate.tr_seen
        (tr.Serve.Aggregate.tr_events + tr.Serve.Aggregate.tr_dropped
       + tr.Serve.Aggregate.tr_sampled_out));
  (* Placement independence and rerun stability: the merged Chrome
     trace and the fleet section are byte-identical across shard
     counts and across reruns. *)
  let agg3, out3 = run 3 in
  let agg2', out2' = run 2 in
  Alcotest.(check string) "chrome trace shard-count invariant"
    (Serve.Aggregate.chrome_trace out2)
    (Serve.Aggregate.chrome_trace out3);
  Alcotest.(check string) "chrome trace rerun byte-identical"
    (Serve.Aggregate.chrome_trace out2)
    (Serve.Aggregate.chrome_trace out2');
  Alcotest.(check string) "traced report rerun byte-identical"
    (Serve.Aggregate.report_json agg2)
    (Serve.Aggregate.report_json agg2');
  Alcotest.(check string) "traced fleet section shard-count invariant"
    (fleet_section (Serve.Aggregate.report_json agg2))
    (fleet_section (Serve.Aggregate.report_json agg3));
  (* An untraced fleet reports no trace section and no per-request
     traces. *)
  let untraced, out_untraced, _ = run_fleet ~shards:2 reqs in
  Alcotest.(check bool) "untraced fleet has no trace section" true
    (untraced.Serve.Aggregate.fleet.Serve.Aggregate.trace = None);
  List.iter
    (fun (o : Serve.Shard.outcome) ->
      Alcotest.(check bool) "untraced outcome has no trace" true
        (o.Serve.Shard.trace = None))
    out_untraced

let test_trace_config_validation () =
  let bad cfg =
    try
      ignore (Serve.Dispatcher.run cfg []);
      false
    with Invalid_argument _ -> true
  in
  let base = Serve.Dispatcher.default_config ~shards:2 in
  Alcotest.(check bool) "trace sample 0 rejected" true
    (bad
       {
         base with
         trace = Some { Serve.Shard.sample = 0; seed = 0; capacity = 16; instr = 0 };
       });
  Alcotest.(check bool) "trace capacity 0 rejected" true
    (bad
       {
         base with
         trace = Some { Serve.Shard.sample = 1; seed = 0; capacity = 0; instr = 0 };
       });
  Alcotest.(check bool) "shard-level trace sample 0 rejected" true
    (try
       ignore
         (Serve.Shard.create ~id:0
            ~trace:{ Serve.Shard.sample = 0; seed = 0; capacity = 16; instr = 0 }
            ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Elastic fleet *)

(* A migration, a rolling restart, or autoscaling must be invisible in
   the fleet section: the drain moves (never drops) requests, restarts
   only cost cache warmth, and the active-set size is routing detail —
   outcomes are placement-independent either way. *)
let test_elastic_fleet_invariant () =
  (* One service class spread over many windows, with the least-loaded
     override disabled, so the hash-preferred shard's queue is known
     to be busy at the migration window. *)
  let reqs =
    List.init 40 (fun i ->
        req ~id:i ~program:"crossing-hw" ~iterations:8 ~arrival:(1 + (i * 16)))
  in
  let ring = Serve.Dispatcher.Route.make ~shards:3 ~replicas:16 in
  let from_shard = Serve.Dispatcher.Route.owner ring ("crossing-hw", 8) in
  let to_shard = (from_shard + 1) mod 3 in
  let base =
    {
      (Serve.Dispatcher.default_config ~shards:3) with
      queue_cap = 256;
      imbalance = 1000;
      batch_window = 64;
    }
  in
  let fleet_of cfg check_stats =
    let r = Serve.Dispatcher.run cfg reqs in
    let stats = r.Serve.Dispatcher.stats in
    Alcotest.(check int) "nothing shed" 0 stats.Serve.Dispatcher.shed;
    Alcotest.(check int) "every request served" 40
      stats.Serve.Dispatcher.completed;
    check_stats stats;
    fleet_section
      (Serve.Aggregate.report_json
         (Serve.Aggregate.build r.Serve.Dispatcher.models
            r.Serve.Dispatcher.outcomes stats))
  in
  let plain =
    fleet_of base (fun s ->
        Alcotest.(check int) "peak = shards when autoscale off" 3
          s.Serve.Dispatcher.peak_active)
  in
  Alcotest.(check string) "migration invisible in the fleet section" plain
    (fleet_of
       { base with migrate = Some (2, from_shard, to_shard) }
       (fun s ->
         Alcotest.(check bool) "drain moved requests" true
           (s.Serve.Dispatcher.migrated > 0)));
  Alcotest.(check string) "rolling restarts invisible" plain
    (fleet_of
       { base with restart_every = Some 2 }
       (fun s ->
         Alcotest.(check bool) "restart cycles taken" true
           (s.Serve.Dispatcher.restarts > 0)));
  Alcotest.(check string) "autoscaling invisible" plain
    (fleet_of { base with autoscale = true } (fun s ->
         Alcotest.(check bool) "peak within the ceiling" true
           (s.Serve.Dispatcher.peak_active >= 1
           && s.Serve.Dispatcher.peak_active <= 3)))

let test_elastic_config_validation () =
  let bad cfg =
    try
      ignore (Serve.Dispatcher.run cfg []);
      false
    with Invalid_argument _ -> true
  in
  let base = Serve.Dispatcher.default_config ~shards:2 in
  Alcotest.(check bool) "migrate target out of range rejected" true
    (bad { base with migrate = Some (0, 0, 2) });
  Alcotest.(check bool) "migrate source out of range rejected" true
    (bad { base with migrate = Some (0, -1, 1) });
  Alcotest.(check bool) "migrate source = target rejected" true
    (bad { base with migrate = Some (0, 1, 1) });
  Alcotest.(check bool) "negative migrate window rejected" true
    (bad { base with migrate = Some (-1, 0, 1) });
  Alcotest.(check bool) "restart_every 0 rejected" true
    (bad { base with restart_every = Some 0 })

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "workload: deterministic" `Quick
          test_workload_deterministic;
        Alcotest.test_case "workload: shape" `Quick test_workload_shape;
        Alcotest.test_case "workload: validation" `Quick
          test_workload_validation;
        Alcotest.test_case "route: owner" `Quick test_route_owner;
        Alcotest.test_case "route: liveness walk" `Quick test_route_alive;
        Alcotest.test_case "shard: warm boot equivalence" `Quick
          test_shard_warm_boot_equivalence;
        Alcotest.test_case "shard: every catalog program" `Quick
          test_shard_every_program;
        Alcotest.test_case "shard: cache disabled" `Quick
          test_shard_cache_disabled;
        Alcotest.test_case "dispatch: deterministic report" `Quick
          test_dispatch_deterministic;
        Alcotest.test_case "dispatch: fleet section shard-count invariant"
          `Quick test_fleet_shard_count_invariant;
        Alcotest.test_case "dispatch: backpressure sheds" `Quick
          test_dispatch_backpressure;
        Alcotest.test_case "dispatch: quarantine redistributes" `Quick
          test_quarantine_redistribution;
        Alcotest.test_case "aggregate: commutative merges" `Quick
          test_aggregate_merges;
        Alcotest.test_case "pool: map order and coverage" `Quick
          test_pool_map_order;
        Alcotest.test_case "pool: one worker runs inline" `Quick
          test_pool_inline;
        Alcotest.test_case "pool: more workers than items" `Quick
          test_pool_few_items;
        Alcotest.test_case "pool: failure after join" `Quick
          test_pool_failure;
        Alcotest.test_case "dispatch: config validation" `Quick
          test_config_validation;
        Alcotest.test_case "dispatch: pool size invisible" `Quick
          test_pool_report_invariant;
        Alcotest.test_case "dispatch: quarantine under the pool" `Quick
          test_quarantine_under_pool;
        Alcotest.test_case "trace: fleet placement-invariant" `Quick
          test_traced_fleet;
        Alcotest.test_case "trace: config validation" `Quick
          test_trace_config_validation;
        Alcotest.test_case "elastic: migration/restart/autoscale invisible"
          `Quick test_elastic_fleet_invariant;
        Alcotest.test_case "elastic: config validation" `Quick
          test_elastic_config_validation;
      ] );
  ]
