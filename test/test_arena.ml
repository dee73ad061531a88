(* The multi-tenant arena: quotas bill exactly, breaches quarantine
   exactly one tenant, billing is byte-identical across reruns and
   shard counts, and the cross-tenant auditor stays silent. *)

let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]
let proc4 = Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()

let one_tenant ?(ring = 4) ?(access = proc4) ~kind source =
  [
    {
      Os.Arena.id = 0;
      name = "t0000";
      kind;
      adversarial = true;
      ring;
      paged = false;
      start = ("t0000main", "start");
      segments = [ ("t0000main", wildcard access, source) ];
    };
  ]

let spinner = one_tenant ~kind:"quota-spin" "start:  tra start\n"

let run_spinner ~cycles =
  let quota = { Os.Arena.default_quota with cycles } in
  Serve.Tenants.run_sharded ~shards:1 ~quota ~seed:1 spinner

let the_bill (r : Os.Arena.report) =
  match r.Os.Arena.bills with
  | [ b ] -> b
  | bs -> Alcotest.failf "expected one bill, got %d" (List.length bs)

(* The cycle quota is exact to the instruction.  The fault is raised
   at the first between-instruction point where the tenant's billed
   cycles reach the quota, and the bill then adds a constant
   quarantine overhead (fault delivery + kernel service).  Calibrate
   the spinner's cycles-per-instruction step [s] from two probes, then
   predict: quota q+s quarantines exactly one instruction later (both
   in instructions retired and in cycles billed), and q+s+1 exactly
   two — never early, never late. *)
let test_cycle_quota_exact () =
  let measure cycles =
    let b = the_bill (run_spinner ~cycles) in
    Alcotest.(check string)
      "verdict" "quarantined: cycles quota" b.Os.Arena.verdict;
    ( b.Os.Arena.usage.Trace.Counters.cycles,
      b.Os.Arena.usage.Trace.Counters.instructions )
  in
  let c1, i1 = measure 1_000 in
  Alcotest.(check bool) "never quarantined early" true (c1 >= 1_000);
  let c2, i2 = measure 1_001 in
  Alcotest.(check int) "quota + 1: exactly one more instruction" (i1 + 1) i2;
  let s = c2 - c1 in
  Alcotest.(check bool) "spinner step is positive" true (s > 0);
  let c3, i3 = measure (1_000 + s) in
  Alcotest.(check (pair int int))
    "quota + step lands exactly one instruction later"
    (c1 + s, i1 + 1)
    (c3, i3);
  let c4, i4 = measure (1_000 + s + 1) in
  Alcotest.(check (pair int int))
    "quota + step + 1 lands exactly two instructions later"
    (c1 + (2 * s), i1 + 2)
    (c4, i4)

(* A tenant whose virtual memory exceeds the quota is refused at
   admission: quarantined before its first instruction. *)
let test_mem_quota_admission () =
  let hog =
    one_tenant ~kind:"mem-hog" "start:  mme =2\nbig:    .zero 600\n"
  in
  let quota = { Os.Arena.default_quota with mem = 512 } in
  let b = the_bill (Serve.Tenants.run_sharded ~shards:1 ~quota ~seed:1 hog) in
  Alcotest.(check string)
    "verdict" "quarantined: memory quota" b.Os.Arena.verdict;
  Alcotest.(check int)
    "never ran" 0 b.Os.Arena.usage.Trace.Counters.instructions;
  (* The same program under a roomier quota completes. *)
  let quota = { Os.Arena.default_quota with mem = 2_048 } in
  let b = the_bill (Serve.Tenants.run_sharded ~shards:1 ~quota ~seed:1 hog) in
  Alcotest.(check string) "fits and completes" "ok" b.Os.Arena.verdict

(* A ring-0 tenant hammering the channel trips the io quota. *)
let test_io_quota () =
  let access =
    Rings.Access.procedure_segment ~execute_in:0 ~callable_from:0 ()
  in
  let churner =
    one_tenant ~ring:0 ~access ~kind:"io-churn"
      "start:  sioc\n        tra start\n"
  in
  let quota = { Os.Arena.default_quota with io = 8 } in
  let b =
    the_bill (Serve.Tenants.run_sharded ~shards:1 ~quota ~seed:1 churner)
  in
  Alcotest.(check string) "verdict" "quarantined: io quota" b.Os.Arena.verdict;
  Alcotest.(check bool)
    "billed more channel ops than the quota" true
    (b.Os.Arena.usage.Trace.Counters.channel_ops > 8)

(* One breach quarantines one tenant: the honest co-tenants of a
   spinner's wave still complete, and the wave audits stay clean. *)
let test_survivors_degrade_gracefully () =
  let tenants = Serve.Tenants.generate ~seed:42 ~tenants:16 () in
  let r = Serve.Tenants.run_sharded ~shards:1 ~seed:42 tenants in
  Alcotest.(check (list string)) "no violations" [] r.Os.Arena.violations;
  Alcotest.(check int) "all billed" 16 r.Os.Arena.tenants;
  Alcotest.(check bool) "some tenant quarantined" true
    (r.Os.Arena.quarantined > 0);
  Alcotest.(check bool) "audits ran" true (r.Os.Arena.audits > 0);
  List.iter
    (fun (b : Os.Arena.bill) ->
      match b.Os.Arena.kind with
      | "compute" | "crossing" ->
          Alcotest.(check string) (b.Os.Arena.name ^ " honest verdict") "ok"
            b.Os.Arena.verdict
      | "quota-spin" ->
          Alcotest.(check string)
            (b.Os.Arena.name ^ " spinner verdict")
            "quarantined: cycles quota" b.Os.Arena.verdict
      | "mem-hog" ->
          Alcotest.(check string)
            (b.Os.Arena.name ^ " hog verdict")
            "quarantined: memory quota" b.Os.Arena.verdict
      | "gate-squeeze" | "ring-max" | "stack-bracket" ->
          Alcotest.(check string)
            (b.Os.Arena.name ^ " attack verdict")
            "contained" b.Os.Arena.verdict
      | _ -> ())
    r.Os.Arena.bills

(* Billing is byte-identical across reruns and across shard counts:
   the full JSON report, not just totals. *)
let test_billing_deterministic () =
  let tenants = Serve.Tenants.generate ~seed:7 ~tenants:24 () in
  let one = Serve.Tenants.run_sharded ~shards:1 ~seed:7 tenants in
  let again = Serve.Tenants.run_sharded ~shards:1 ~seed:7 tenants in
  let two = Serve.Tenants.run_sharded ~shards:2 ~seed:7 tenants in
  let four = Serve.Tenants.run_sharded ~shards:4 ~seed:7 tenants in
  let json = Os.Arena.report_json one in
  Alcotest.(check string) "rerun" json (Os.Arena.report_json again);
  Alcotest.(check string) "2 shards" json (Os.Arena.report_json two);
  Alcotest.(check string) "4 shards" json (Os.Arena.report_json four)

(* The population generator is deterministic and honours its
   guarantee of at least one spinner per standard campaign. *)
let test_generator () =
  let a = Serve.Tenants.generate ~seed:3 ~tenants:40 () in
  let b = Serve.Tenants.generate ~seed:3 ~tenants:40 () in
  Alcotest.(check bool) "same population" true (a = b);
  List.iter
    (fun seed ->
      let p = Serve.Tenants.generate ~seed ~tenants:9 () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d has a spinner" seed)
        true
        (List.exists
           (fun (t : Os.Arena.tenant) -> t.Os.Arena.kind = "quota-spin")
           p))
    [ 1; 2; 3; 4; 5 ];
  let coop = Serve.Tenants.generate ~profile:"cooperative" ~seed:3 ~tenants:40 () in
  Alcotest.(check bool) "cooperative draws no adversaries" false
    (List.exists (fun (t : Os.Arena.tenant) -> t.Os.Arena.adversarial) coop)

(* Composing an injection plan with the arena: faults land, recovery
   audits run, and the gate still reports zero violations. *)
let test_with_injection () =
  let tenants = Serve.Tenants.generate ~seed:11 ~tenants:8 () in
  let inject = Hw.Inject.default_plan ~seed:11 in
  let r = Serve.Tenants.run_sharded ~shards:1 ~inject ~seed:11 tenants in
  let again = Serve.Tenants.run_sharded ~shards:1 ~inject ~seed:11 tenants in
  Alcotest.(check (list string)) "no violations" [] r.Os.Arena.violations;
  Alcotest.(check string) "deterministic under injection"
    (Os.Arena.report_json r)
    (Os.Arena.report_json again)

(* A report carrying a violation is still valid JSON.  The
   cross-tenant auditor's detail contains an em dash; quotes, a
   backslash and a newline exercise the rest of the escaper.  Every
   string comes back from the reader unchanged. *)
let test_report_json_escapes () =
  let r = run_spinner ~cycles:Os.Arena.default_quota.Os.Arena.cycles in
  let detail =
    "t0000: \"stack\" at [0,4) escapes its region [4,8) \xe2\x80\x94 \
     reachable\\\nfrom a co-tenant's ring context"
  in
  let b = the_bill r in
  let r =
    {
      r with
      Os.Arena.violations = [ detail ];
      bills = [ { b with Os.Arena.name = "t\"0\"" } ];
    }
  in
  match Trace.Json.parse (Os.Arena.report_json r) with
  | Error e -> Alcotest.failf "report does not parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "violation round-trips" true
        (Trace.Json.member "violations" j
        = Some (Trace.Json.Array [ Trace.Json.String detail ]));
      Alcotest.(check bool) "bill name round-trips" true
        (match Trace.Json.member "bills" j with
        | Some (Trace.Json.Array [ bill ]) ->
            Trace.Json.member "name" bill = Some (Trace.Json.String "t\"0\"")
        | _ -> false)

let suite =
  [
    ( "arena",
      [
        Alcotest.test_case "cycle quota is exact" `Quick
          test_cycle_quota_exact;
        Alcotest.test_case "memory quota refuses at admission" `Quick
          test_mem_quota_admission;
        Alcotest.test_case "io quota trips on channel churn" `Quick
          test_io_quota;
        Alcotest.test_case "survivors degrade gracefully" `Quick
          test_survivors_degrade_gracefully;
        Alcotest.test_case "billing byte-identical across shards" `Quick
          test_billing_deterministic;
        Alcotest.test_case "generator deterministic with spinner floor"
          `Quick test_generator;
        Alcotest.test_case "zero-leak gate holds under injection" `Quick
          test_with_injection;
        Alcotest.test_case "report JSON escapes violations" `Quick
          test_report_json_escapes;
      ] );
  ]
