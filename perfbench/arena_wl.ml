(* arena: a standard-profile tenant population run as back-to-back
   campaigns of Serve.Tenants.run_sharded ~shards:1, then
   Os.Arena.report_json.  Each tenant retires only ~100 simulated
   instructions; most host time is Os.System.create allocating a fresh
   machine for every 8-tenant wave, so this is the workload where
   cheaper wave machines would show and interpreter work barely
   matters.  An op is one tenant billed. *)

let tenants = 128
let campaigns = 4
let quota = Os.Arena.default_quota

type expect = { digests : string array  (** Arena report, per campaign. *) }

(* Arena-report digests of the default seed's campaigns. *)
let expected =
  {
    digests =
      [|
        "89227c20a1fcd48fef7901abb8411912";
        "14f609208772aa5dceb898e4cbccb4b6";
        "9251e3cbea06cbb58806f349cb7bfc0f";
        "9a9b4bc441c5b9c6dfb75506cc02fb97";
      |];
  }

(* Tenants not billed, or every tenant when an auditor found a
   violation. *)
let failed_tenants ~tenants (r : Os.Arena.report) =
  if r.violations <> [] then tenants
  else
    tenants
    - List.length
        (List.sort_uniq compare
           (List.map (fun (b : Os.Arena.bill) -> b.tenant) r.bills))

type last = { index : int; report : Os.Arena.report; json : string }

let setup ?(expect = expected) ~seed tr =
  let streams =
    Array.init campaigns (fun c ->
        let cseed = (seed * campaigns) + c in
        ( cseed,
          Tracer.span tr "serve.tenants.generate" (fun () ->
              Serve.Tenants.generate ~profile:"standard" ~seed:cseed ~tenants
                ()) ))
  in
  let next = ref 0 in
  let last = ref None in
  let seen = Array.make campaigns None in
  let waves_ms = ref [] and rest_ms = ref [] and audits = ref [] in
  let chunk tr =
    let index = !next mod campaigns in
    incr next;
    let cseed, ts = streams.(index) in
    let report =
      Tracer.span tr "serve.tenants.run_sharded" (fun () ->
          Serve.Tenants.run_sharded ~quota ~shards:1 ~seed:cseed ts)
    in
    let json =
      Tracer.span tr "os.arena.report_json" (fun () ->
          Os.Arena.report_json report)
    in
    last := Some { index; report; json }
  in
  let get_last () =
    match !last with Some l -> l | None -> Wl.fail "arena: no chunk ran"
  in
  let verify () =
    let l = get_last () in
    let d = Wl.digest l.json in
    let reproduced =
      match seen.(l.index) with
      | None ->
          seen.(l.index) <- Some d;
          true
      | Some d0 -> d = d0
    in
    let recorded = seed <> Wl.default_seed || d = expect.digests.(l.index) in
    let failed =
      if reproduced && recorded then failed_tenants ~tenants l.report
      else tenants
    in
    { Wl.ops = float_of_int tenants; failed = float_of_int failed }
  in
  (* Each wave again through Os.Arena.run_wave, then the calls it makes
     — store, machine, spawns, the two auditors — timed one by one on a
     rebuilt wave system.  The re-run wave must bill exactly as the
     campaign did. *)
  let drill tr =
    let l = get_last () in
    let _, ts = streams.(l.index) in
    let failed = ref 0 in
    List.iter
      (fun (wave, (wts : Os.Arena.tenant list)) ->
        let t0 = Calib.now_ns () in
        let w =
          Tracer.span tr "os.arena.run_wave" (fun () ->
              Os.Arena.run_wave ~quota ~wave wts)
        in
        let wave_ns = Calib.now_ns () - t0 in
        let campaign_bills =
          List.filter
            (fun (b : Os.Arena.bill) ->
              List.exists (fun (t : Os.Arena.tenant) -> t.id = b.tenant) wts)
            l.report.bills
        in
        if w.bills <> campaign_bills || w.violations <> [] then
          failed := !failed + List.length wts;
        let t1 = Calib.now_ns () in
        let store = Os.Store.create () in
        List.iter
          (fun (t : Os.Arena.tenant) ->
            List.iter
              (fun (name, acl, src) ->
                Tracer.span tr "os.store.add_source" (fun () ->
                    Os.Store.add_source store ~name ~acl src))
              t.segments)
          wts;
        let sys =
          Tracer.span tr "os.system.create" (fun () ->
              Os.System.create ~store ())
        in
        List.iter
          (fun (t : Os.Arena.tenant) ->
            match
              Tracer.span tr "os.system.spawn" (fun () ->
                  Os.System.spawn sys ~paged:t.paged ~pname:t.name
                    ~user:t.name
                    ~segments:(List.map (fun (n, _, _) -> n) t.segments)
                    ~start:t.start ~ring:t.ring)
            with
            | Ok _ -> ()
            | Error _ -> incr failed)
          wts;
        let t2 = Calib.now_ns () in
        let found =
          Tracer.span tr "os.chaos.audit" (fun () ->
              Os.Chaos.check_invariants ~campaign:wave sys
              @ Os.Chaos.check_cross_tenant sys)
        in
        let audit_ns = Calib.now_ns () - t2 in
        if found <> [] then failed := !failed + List.length wts;
        let build_ns = t2 - t1 in
        audits := float_of_int w.audits :: !audits;
        waves_ms := (float_of_int wave_ns /. 1e6) :: !waves_ms;
        rest_ms :=
          (float_of_int (wave_ns - build_ns - (w.audits * audit_ns)) /. 1e6)
          :: !rest_ms)
      (Os.Arena.waves ts);
    { Wl.ops = 0.0; failed = float_of_int (min tenants !failed) }
  in
  let layers tr =
    let us name = Tracer.durations_us tr name in
    let ms name = List.map (fun x -> x /. 1e3) (us name) in
    [
      ("os.system.create_ms", Wl.median (ms "os.system.create"), "ms");
      ("os.store.add_source_us", Wl.median (us "os.store.add_source"), "us");
      ("os.system.spawn_us", Wl.median (us "os.system.spawn"), "us");
      ("os.chaos.audit_ms", Wl.median (ms "os.chaos.audit"), "ms");
      ("os.arena.audits_per_wave", Wl.mean !audits, "count");
      ("os.arena.run_wave_ms.p50", Wl.median !waves_ms, "ms");
      ("os.arena.run_wave_ms.p99", Wl.percentile 99.0 !waves_ms, "ms");
      ("os.arena.wave_rest_ms", Wl.median !rest_ms, "ms");
      ("os.arena.report_json_ms", Wl.median (ms "os.arena.report_json"), "ms");
      ( "serve.tenants.generate_ms",
        Wl.median (ms "serve.tenants.generate"),
        "ms" );
    ]
  in
  { Wl.prepare = (fun _ -> ()); chunk; verify; drill; layers }

let workload = { Wl.name = "arena"; setup = (fun ~seed tr -> setup ~seed tr) }
