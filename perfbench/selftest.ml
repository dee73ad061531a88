(* Each workload's correctness check passes on the recorded modeled
   outputs and fails an op when an expected value or an output is
   perturbed. *)

open Perfbench

let off = Tracer.create ~on:false
let seed = Wl.default_seed

(* Set up, run one chunk, and return its (ops, failed). *)
let one_chunk (inst : Wl.instance) =
  inst.prepare off;
  inst.chunk off;
  let t = inst.verify () in
  (t.Wl.ops, t.Wl.failed)

let expect_pass name inst () =
  let ops, failed = one_chunk inst in
  Alcotest.(check bool) (name ^ " ran ops") true (ops > 0.0);
  Alcotest.(check (float 0.0)) (name ^ " no failed op") 0.0 failed

let expect_fail name inst () =
  let ops, failed = one_chunk inst in
  Alcotest.(check (float 0.0)) (name ^ " every op failed") ops failed

let flip s = String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) s

let serve_digest () =
  expect_pass "serve" (Serve_wl.setup ~seed off) ();
  let digests = Array.map flip Serve_wl.expected.digests in
  expect_fail "serve" (Serve_wl.setup ~expect:{ digests } ~seed off) ();
  (* Digests are recorded for the default seed only. *)
  expect_pass "serve, other seed"
    (Serve_wl.setup ~expect:{ digests } ~seed:(seed + 1) off)
    ()

let serve_outcomes () =
  let reqs =
    Serve.Workload.generate ~mix:Serve.Workload.standard_mix ~seed
      ~requests:60
  in
  let r = Serve.Dispatcher.run Serve_wl.config reqs in
  let outcomes = r.Serve.Dispatcher.outcomes in
  Alcotest.(check int) "faithful outcomes" 0
    (Serve_wl.failed_outcomes (Hashtbl.create 8) outcomes);
  (* The last request of a class seen before, with one more cycle. *)
  let tampered =
    List.mapi
      (fun i (o : Serve.Shard.outcome) ->
        if i = List.length outcomes - 1 then { o with latency = o.latency + 1 }
        else o)
      outcomes
  in
  Alcotest.(check int) "one tampered latency" 1
    (Serve_wl.failed_outcomes (Hashtbl.create 8) tampered)

let arena_digest () =
  expect_pass "arena" (Arena_wl.setup ~seed off) ();
  let digests = Array.map flip Arena_wl.expected.digests in
  expect_fail "arena" (Arena_wl.setup ~expect:{ digests } ~seed off) ()

let arena_report () =
  let tenants = 16 in
  let ts = Serve.Tenants.generate ~profile:"standard" ~seed ~tenants () in
  let r = Serve.Tenants.run_sharded ~shards:1 ~seed ts in
  Alcotest.(check int) "every tenant billed" 0 (Arena_wl.failed_tenants ~tenants r);
  Alcotest.(check int) "one bill missing" 1
    (Arena_wl.failed_tenants ~tenants { r with bills = List.tl r.bills });
  Alcotest.(check int) "a violation fails the campaign" tenants
    (Arena_wl.failed_tenants ~tenants { r with violations = [ "planted" ] })

let catalog () =
  expect_pass "catalog" (Catalog_wl.setup ~seed off) ();
  let runs =
    List.map
      (fun (name, (c, i)) -> if name = "audited" then (name, (c + 1, i)) else (name, (c, i)))
      Catalog_wl.expected.runs
  in
  let inst = Catalog_wl.setup ~expect:{ runs } ~seed off in
  let ops, failed = one_chunk inst in
  Alcotest.(check bool) "only the audited run failed" true
    (failed > 0.0 && failed < ops)

let checkpoint () =
  expect_pass "checkpoint" (Checkpoint_wl.setup ~seed off) ();
  let cycles = Checkpoint_wl.expected.cycles + 1 in
  expect_fail "checkpoint" (Checkpoint_wl.setup ~expect:{ cycles } ~seed off) ()

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "serve fleet-report digest" `Quick serve_digest;
          Alcotest.test_case "serve class outcomes" `Quick serve_outcomes;
          Alcotest.test_case "arena report digest" `Quick arena_digest;
          Alcotest.test_case "arena billing and audits" `Quick arena_report;
          Alcotest.test_case "catalog modeled cycles" `Quick catalog;
          Alcotest.test_case "checkpoint modeled cycles" `Quick checkpoint;
        ] );
    ]
