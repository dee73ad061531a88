(* Security-under-fault campaigns: the chaos harness itself. *)

let test_clean_run_has_no_violations () =
  (* No rules: the campaign machinery runs with the injector attached
     but silent — everything exits normally, nothing fires. *)
  let plan =
    { (Hw.Inject.default_plan ~seed:1) with Hw.Inject.rules = [] }
  in
  let r = Os.Chaos.run_campaigns ~campaigns:2 plan in
  Alcotest.(check int) "no injections" 0 r.Os.Chaos.injected;
  Alcotest.(check int) "no violations" 0 (List.length r.Os.Chaos.violations);
  Alcotest.(check int) "all exits documented" 6
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Os.Chaos.exits);
  Alcotest.(check (list (pair string int)))
    "everything exited" [ ("exited", 6) ] r.Os.Chaos.exits

let test_default_plan_campaigns_hold_invariants () =
  let r = Os.Chaos.run_campaigns ~campaigns:5 (Hw.Inject.default_plan ~seed:7) in
  Alcotest.(check bool) "faults were injected" true (r.Os.Chaos.injected > 0);
  (match r.Os.Chaos.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%d violations, first: campaign %d: %s"
        (List.length r.Os.Chaos.violations) v.Os.Chaos.campaign
        v.Os.Chaos.detail);
  (* Every recovery decision was bracketed by a Recovery span. *)
  Alcotest.(check bool) "recovery latency observed" true
    (Trace.Histogram.count r.Os.Chaos.recovery_latency > 0)

let test_campaigns_are_deterministic () =
  let run () =
    let r =
      Os.Chaos.run_campaigns ~campaigns:3 (Hw.Inject.default_plan ~seed:42)
    in
    Os.Chaos.report_json r
  in
  Alcotest.(check string) "byte-identical reports" (run ()) (run ())

(* What the seed drives is where the injector's damage lands: two
   seeds deliver their parity faults at different addresses, and one
   seed replays its own addresses exactly.  (A chaos report embeds the
   seed itself, so comparing reports would pass whatever it did.) *)
let test_seed_changes_the_campaign () =
  let parity_addrs seed =
    let inj = Hw.Inject.create (Hw.Inject.default_plan ~seed) in
    let mem = Hw.Memory.create ~size:(1 lsl 16) (Trace.Counters.create ()) in
    let addrs = ref [] in
    for cycles = 0 to 20_000 do
      match Hw.Inject.poll inj ~mem ~cycles with
      | Some (Hw.Inject.Deliver_parity { addr; _ }) -> addrs := addr :: !addrs
      | _ -> ()
    done;
    List.rev !addrs
  in
  let a13 = parity_addrs 13 and a14 = parity_addrs 14 in
  Alcotest.(check bool) "seed 13 delivers parity faults" true (a13 <> []);
  Alcotest.(check bool) "seed 14 delivers parity faults" true (a14 <> []);
  Alcotest.(check bool) "different seeds, different addresses" true
    (a13 <> a14);
  Alcotest.(check (list int)) "same seed, same addresses" a13
    (parity_addrs 13)

let test_invariant_checker_detects_planted_damage () =
  (* Corrupt an SDW behind the kernel's back and leave it unscrubbed:
     the audit must notice.  This validates the checker itself — a
     checker that can't fail proves nothing. *)
  let store = Os.Store.create () in
  Os.Store.add_source store ~name:"worker"
    ~acl:
      [
        {
          Os.Acl.user = Os.Acl.wildcard;
          access =
            Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ();
        };
      ]
    "start:  mme =2\n";
  let sys = Os.System.create ~store () in
  (match
     Os.System.spawn sys ~pname:"worker" ~user:"alice"
       ~segments:[ "worker" ] ~start:("worker", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  Alcotest.(check (list string))
    "intact before damage" []
    (Os.Chaos.check_invariants ~campaign:0 sys);
  let e = List.hd (Os.System.entries sys) in
  let p = e.Os.System.process in
  let m = Os.System.machine sys in
  let dbr = p.Os.Process.descsegs.(0) in
  (* Widen the worker segment's write flag in the in-memory SDW. *)
  let segno =
    match Os.Process.segno_of p "worker" with
    | Some s -> s
    | None -> Alcotest.fail "worker segment not loaded"
  in
  let sdw =
    match
      Hw.Descriptor.fetch_sdw_silent m.Isa.Machine.mem dbr ~segno
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "SDW unreadable"
  in
  let widened =
    Hw.Sdw.v ~paged:sdw.Hw.Sdw.paged ~base:sdw.Hw.Sdw.base
      ~bound:sdw.Hw.Sdw.bound
      {
        sdw.Hw.Sdw.access with
        Rings.Access.write = true;
        Rings.Access.read = true;
      }
  in
  Hw.Descriptor.store_sdw m.Isa.Machine.mem dbr ~segno widened;
  match Os.Chaos.check_invariants ~campaign:0 sys with
  | [] -> Alcotest.fail "planted SDW damage went undetected"
  | _ :: _ -> ()

let test_report_json_is_valid_shape () =
  let r =
    Os.Chaos.run_campaigns ~campaigns:1 (Hw.Inject.default_plan ~seed:3)
  in
  let j = Os.Chaos.report_json r in
  Alcotest.(check bool) "object" true
    (String.length j > 2 && j.[0] = '{');
  List.iter
    (fun key ->
      let needle = Printf.sprintf "\"%s\"" key in
      let found =
        let n = String.length j and m = String.length needle in
        let rec scan i =
          i + m <= n && (String.sub j i m = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (key ^ " present") true found)
    [
      "campaigns";
      "seed";
      "exits";
      "counters";
      "recovery_latency";
      "violations";
    ]

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "clean run has no violations" `Quick
          test_clean_run_has_no_violations;
        Alcotest.test_case "default plan holds invariants" `Slow
          test_default_plan_campaigns_hold_invariants;
        Alcotest.test_case "campaigns are deterministic" `Slow
          test_campaigns_are_deterministic;
        Alcotest.test_case "seed changes the campaign" `Slow
          test_seed_changes_the_campaign;
        Alcotest.test_case "checker detects planted damage" `Quick
          test_invariant_checker_detects_planted_damage;
        Alcotest.test_case "report JSON shape" `Quick
          test_report_json_is_valid_shape;
      ] );
  ]
