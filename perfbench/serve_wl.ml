(* serve: a standard-mix request stream served as back-to-back
   campaigns, each what `ringsim serve --report-json` does:
   Dispatcher.run over 4 modeled shards, Aggregate.build, report_json.
   One worker domain, so a 2-vCPU host measures the program rather
   than the scheduler (the report is the same for any pool size).
   Most host time is Os.Snapshot.warm_boot rewinding a class image
   before a short run, so this is where a cheaper rewind would show.
   An op is one request served. *)

let shards = 4
let requests = 200
let campaigns = 8

type expect = { digests : string array  (** Fleet report, per campaign. *) }

(* Fleet-report digests of the default seed's campaigns. *)
let expected =
  {
    digests =
      [|
        "169204447563352b1b96a726fc2582ed";
        "6bc571bea99ff660f651965025fcb2ff";
        "b9c792d499223391b6b50545a988d887";
        "baad391ba9b5edb34c9996db173775b3";
        "8ad69f9eb524c0f65e7d06eacac096f9";
        "a97af29d693b5e4b54d4a35fd5977b00";
        "0e1f5cff8f54e46c9f1306fce3783d9c";
        "0a38156e9b3c815539e7cbccf5022916";
      |];
  }

let config =
  { (Serve.Dispatcher.default_config ~shards) with Serve.Dispatcher.pool = Some 1 }

let report_config ~cseed =
  [
    ("mode", "\"serve\"");
    ("shards", string_of_int shards);
    ("requests", string_of_int requests);
    ("seed", string_of_int cseed);
    ("mix", "\"standard\"");
    ("pool", "1");
  ]

(* ------------------------------------------------------------------ *)
(* Rebuilding a service class from public calls, for the traced
   replay.  These are the shard catalog's programs; the replay proves
   them faithful by comparing every rebuilt image with the one the
   campaign's own worker booted from. *)

let crossing_sources ~caller_ring ~callee_ring ?callable_from ~with_argument
    iterations =
  let callable_from =
    Option.value callable_from ~default:(max caller_ring callee_ring)
  in
  let r_data = max caller_ring callee_ring in
  let arg_symbol = if with_argument then Some "data$word0" else None in
  [
    ( "caller",
      Wl.wildcard
        (Rings.Access.procedure_segment ~execute_in:caller_ring
           ~callable_from:caller_ring ()),
      Os.Scenario.caller_source ?arg_symbol ~callee_link:"service$entry"
        ~iterations () );
    ( "service",
      Wl.wildcard
        (Rings.Access.procedure_segment ~execute_in:callee_ring ~callable_from
           ()),
      Os.Scenario.callee_source ~touch_argument:with_argument () );
  ]
  @
  if with_argument then
    [
      ( "data",
        Wl.wildcard
          (Rings.Access.data_segment ~writable_to:r_data ~readable_to:r_data
             ()),
        "word0:  .word 7\n" );
    ]
  else []

(* (mode, paged, ring, sources) of each program the standard mix draws. *)
let catalog program iterations =
  let hw = Isa.Machine.Ring_hardware in
  let cross ?callable_from ?(with_argument = false) caller_ring callee_ring =
    crossing_sources ~caller_ring ~callee_ring ?callable_from ~with_argument
      iterations
  in
  match program with
  | "crossing-hw" -> (hw, false, 4, cross 4 1)
  | "crossing-645" -> (Isa.Machine.Ring_software_645, false, 4, cross 4 1)
  | "same-ring" -> (hw, false, 4, cross ~callable_from:4 4 4)
  | "outward" -> (hw, false, 1, cross 1 3)
  | "argcross" -> (hw, false, 4, cross ~with_argument:true 4 1)
  | "paged" -> (hw, true, 4, cross ~with_argument:true 4 1)
  | p -> Wl.fail "serve replay: program %s is not in the standard mix" p

type replica = {
  sys : Os.System.t;
  image : string;
  boot : Trace.Counters.snapshot;
}

let rebuild tr (program, iterations) =
  let mode, paged, ring, sources = catalog program iterations in
  let store = Os.Store.create () in
  List.iter
    (fun (name, acl, src) ->
      Tracer.span tr "os.store.add_source" (fun () ->
          Os.Store.add_source store ~name ~acl src))
    sources;
  let sys =
    Tracer.span tr "os.system.create" (fun () ->
        Os.System.create ~mode ~mem_size:(1 lsl 18) ~store ())
  in
  (match
     Tracer.span tr "os.system.spawn" (fun () ->
         Os.System.spawn sys ~paged ~pname:"req" ~user:"alice"
           ~segments:(List.map (fun (n, _, _) -> n) sources)
           ~start:("caller", "start") ~ring)
   with
  | Ok _ -> ()
  | Error e -> Wl.fail "serve replay: cannot spawn %s: %s" program e);
  let m = Os.System.machine sys in
  Trace.Profile.set_enabled m.Isa.Machine.profile true;
  let image =
    Tracer.span tr "os.snapshot.capture" (fun () -> Os.Snapshot.capture sys)
  in
  { sys; image; boot = Trace.Counters.snapshot m.Isa.Machine.counters }

(* Requests that did not exit cleanly or did not reproduce their
   class's first outcome (exit, latency, counter delta) exactly.
   [first] maps each class to its first outcome and grows as new
   classes appear. *)
let failed_outcomes first outcomes =
  List.fold_left
    (fun n (o : Serve.Shard.outcome) ->
      let k = (o.request.Serve.Workload.program, o.request.iterations) in
      let v = (o.exit_label, o.latency, o.delta) in
      let same =
        match Hashtbl.find_opt first k with
        | None ->
            Hashtbl.add first k v;
            true
        | Some v0 -> v0 = v
      in
      if same && o.ok then n else n + 1)
    0 outcomes

(* ------------------------------------------------------------------ *)

type last = {
  index : int;
  result : Serve.Dispatcher.result;
  run_ns : int;  (** Host time of Dispatcher.run. *)
  agg : Serve.Aggregate.t;
  json : string;
}

let setup ?(expect = expected) ~seed tr =
  let streams =
    Array.init campaigns (fun c ->
        let cseed = (seed * campaigns) + c in
        ( cseed,
          Tracer.span tr "serve.workload.generate" (fun () ->
              Serve.Workload.generate ~mix:Serve.Workload.standard_mix
                ~seed:cseed ~requests) ))
  in
  let next = ref 0 in
  let last = ref None in
  let first = Hashtbl.create 16 in
  let seen = Array.make campaigns None in
  (* Traced-run accumulators. *)
  let cold_ms = ref [] and warm_us = ref [] and worker_cold = ref [] in
  let image_hits = ref 0 and image_lookups = ref 0 in
  let overheads = ref [] in
  let sdw = ref (0, 0) and ptw = ref (0, 0) and icache = ref (0, 0) in
  let add r (h, m) = r := (fst !r + h, snd !r + m) in
  let chunk tr =
    let index = !next mod campaigns in
    incr next;
    let cseed, reqs = streams.(index) in
    let t0 = Calib.now_ns () in
    let result =
      Tracer.span tr "serve.dispatcher.run" (fun () ->
          Serve.Dispatcher.run config reqs)
    in
    let run_ns = Calib.now_ns () - t0 in
    let agg =
      Tracer.span tr "serve.aggregate.build" (fun () ->
          Serve.Aggregate.build result.Serve.Dispatcher.models
            result.Serve.Dispatcher.outcomes result.Serve.Dispatcher.stats)
    in
    let json =
      Tracer.span tr "serve.aggregate.report_json" (fun () ->
          Serve.Aggregate.report_json ~config:(report_config ~cseed) agg)
    in
    last := Some { index; result; run_ns; agg; json }
  in
  let get_last () =
    match !last with Some l -> l | None -> Wl.fail "serve: no chunk ran"
  in
  let verify () =
    let l = get_last () in
    let r = l.result in
    let failed =
      ref
        (r.Serve.Dispatcher.stats.Serve.Dispatcher.shed
        + failed_outcomes first r.Serve.Dispatcher.outcomes)
    in
    let missing =
      requests - r.Serve.Dispatcher.stats.Serve.Dispatcher.shed
      - List.length r.Serve.Dispatcher.outcomes
    in
    failed := !failed + abs missing;
    let d = Wl.digest l.json in
    let reproduced =
      match seen.(l.index) with
      | None ->
          seen.(l.index) <- Some d;
          true
      | Some d0 -> d = d0
    in
    let recorded = seed <> Wl.default_seed || d = expect.digests.(l.index) in
    if not (reproduced && recorded) then failed := requests;
    { Wl.ops = float_of_int requests;
      failed = float_of_int (min requests !failed) }
  in
  let drill tr =
    let l = get_last () in
    let r = l.result in
    let _, reqs = streams.(l.index) in
    let failed = ref 0 in
    let latency = Hashtbl.create requests in
    List.iter
      (fun (o : Serve.Shard.outcome) ->
        Hashtbl.replace latency o.request.Serve.Workload.id o.latency)
      r.Serve.Dispatcher.outcomes;
    (* Shard.exec request by request, as the pool worker ran them. *)
    let shard = Serve.Shard.create ~id:0 () in
    let exec_ns = ref 0 in
    List.iter
      (fun (q : Serve.Workload.request) ->
        let cold = Serve.Shard.cold_boots shard in
        let t0 = Calib.now_ns () in
        let o =
          Tracer.span tr "serve.shard.exec" (fun () -> Serve.Shard.exec shard q)
        in
        let dt = Calib.now_ns () - t0 in
        exec_ns := !exec_ns + dt;
        if Serve.Shard.cold_boots shard > cold then
          cold_ms := (float_of_int dt /. 1e6) :: !cold_ms
        else warm_us := (float_of_int dt /. 1e3) :: !warm_us;
        if Hashtbl.find_opt latency q.id <> Some o.latency then incr failed)
      reqs;
    overheads := (float_of_int (l.run_ns - !exec_ns) /. 1e6) :: !overheads;
    worker_cold :=
      float_of_int
        (Array.fold_left
           (fun a w -> a + Serve.Shard.cold_boots w)
           0 r.Serve.Dispatcher.workers)
      :: !worker_cold;
    Array.iter
      (fun w ->
        let st = Serve.Shard.image_stats w in
        image_hits := !image_hits + st.Hw.Assoc.hits;
        image_lookups := !image_lookups + st.Hw.Assoc.hits + st.Hw.Assoc.misses)
      r.Serve.Dispatcher.workers;
    (* Rebuild every class and replay the campaign through the public
       layers: warm_boot -> System.run -> Counters.diff. *)
    let images =
      Array.to_list r.Serve.Dispatcher.workers
      |> List.concat_map Serve.Shard.images
    in
    let replicas = Hashtbl.create 8 in
    List.iter
      (fun k ->
        let rep = rebuild tr k in
        if List.assoc_opt k images <> Some rep.image then
          failed := requests;
        Hashtbl.replace replicas k rep)
      (Serve.Workload.classes reqs);
    List.iter
      (fun (q : Serve.Workload.request) ->
        let rep = Hashtbl.find replicas (q.program, q.iterations) in
        let m = Os.System.machine rep.sys in
        let counters = m.Isa.Machine.counters in
        (match
           Tracer.span tr "os.snapshot.warm_boot" (fun () ->
               Os.Snapshot.warm_boot rep.sys rep.image)
         with
        | Ok () -> ()
        | Error _ -> incr failed);
        ignore
          (Tracer.span tr ~counters "os.system.run" (fun () ->
               Os.System.run rep.sys));
        let delta =
          Tracer.span tr "trace.counters.diff" (fun () ->
              Trace.Counters.diff ~before:rep.boot
                ~after:(Trace.Counters.snapshot counters))
        in
        if Hashtbl.find_opt latency q.id <> Some delta.Trace.Counters.cycles
        then incr failed)
      reqs;
    (match l.agg.Serve.Aggregate.fleet.Serve.Aggregate.counters with
    | Some c ->
        add sdw (c.sdw_cache_hits, c.sdw_cache_misses);
        add ptw (c.ptw_tlb_hits, c.ptw_tlb_misses);
        add icache (c.icache_hits, c.icache_misses)
    | None -> ());
    { Wl.ops = 0.0; failed = float_of_int (min requests !failed) }
  in
  let layers tr =
    let us name = Tracer.durations_us tr name in
    let ms name = List.map (fun x -> x /. 1e3) (us name) in
    let runs = Tracer.named tr "os.system.run" in
    let run_ns = List.fold_left (fun a s -> a + Tracer.duration_ns s) 0 runs in
    let run_instr = List.fold_left (fun a s -> a + Tracer.instrs s) 0 runs in
    let hit (h, m) = Wl.ratio h (h + m) in
    let warm_boot = us "os.snapshot.warm_boot" in
    [
      ("os.snapshot.warm_boot_us.p50", Wl.median warm_boot, "us");
      ("os.snapshot.warm_boot_us.p99", Wl.percentile 99.0 warm_boot, "us");
      ("os.system.run_us.p50", Wl.median (us "os.system.run"), "us");
      ("isa.ns_per_instr.serve", Wl.ratio run_ns run_instr, "ns/instr");
      ("trace.counters.diff_us", Wl.median (us "trace.counters.diff"), "us");
      ("serve.shard.exec_us.p50", Wl.median !warm_us, "us");
      ("serve.shard.exec_us.p99", Wl.percentile 99.0 !warm_us, "us");
      ("serve.shard.cold_boot_ms.p50", Wl.median !cold_ms, "ms");
      ("serve.shard.cold_boots", Wl.mean !worker_cold, "count");
      ( "serve.shard.image_hit_ratio",
        Wl.ratio !image_hits !image_lookups,
        "ratio" );
      ("serve.dispatcher.run_ms", Wl.median (ms "serve.dispatcher.run"), "ms");
      ("serve.dispatch_overhead_ms", Wl.median !overheads, "ms");
      ("serve.aggregate.build_ms", Wl.median (ms "serve.aggregate.build"), "ms");
      ( "serve.aggregate.report_json_ms",
        Wl.median (ms "serve.aggregate.report_json"),
        "ms" );
      ( "serve.workload.generate_ms",
        Wl.median (ms "serve.workload.generate"),
        "ms" );
      ("hw.assoc.sdw_hit_ratio.serve", hit !sdw, "ratio");
      ("hw.assoc.ptw_hit_ratio.serve", hit !ptw, "ratio");
      ("hw.assoc.icache_hit_ratio.serve", hit !icache, "ratio");
    ]
  in
  { Wl.prepare = (fun _ -> ()); chunk; verify; drill; layers }

let workload = { Wl.name = "serve"; setup = (fun ~seed tr -> setup ~seed tr) }
