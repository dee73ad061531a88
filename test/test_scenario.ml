(* The Scenario workload builders themselves: every knob must produce
   a program that assembles and runs. *)

let run_exited ?(max = 500_000) build =
  match build with
  | Error e -> Alcotest.failf "build: %s" e
  | Ok p -> (
      match Os.Kernel.run ~max_instructions:max p with
      | Os.Kernel.Exited -> p
      | e -> Alcotest.failf "run: %a" Os.Kernel.pp_exit e)

let test_iterations_scale () =
  List.iter
    (fun n ->
      let p = run_exited (Os.Scenario.crossing ~iterations:n ()) in
      Alcotest.(check int)
        (Printf.sprintf "%d crossings" n)
        n
        Trace.Counters.(
      get p.Os.Process.machine.Isa.Machine.counters calls_downward))
    [ 1; 2; 17; 64 ]

let test_all_ring_pairs_legal () =
  (* Every ordered pair with callable_from covering the caller. *)
  List.iter
    (fun caller_ring ->
      List.iter
        (fun callee_ring ->
          let p =
            run_exited
              (Os.Scenario.crossing ~caller_ring ~callee_ring
                 ~callable_from:(max caller_ring callee_ring)
                 ())
          in
          Alcotest.(check int)
            (Printf.sprintf "r%d -> r%d result" caller_ring callee_ring)
            42
            p.Os.Process.machine.Isa.Machine.regs.Hw.Registers.a)
        [ 0; 1; 4; 7 ])
    [ 0; 2; 5 ]

let test_sources_assemble_standalone () =
  (* The generated sources are valid assembly in isolation (externals
     aside). *)
  (match
     Asm.Assemble.survey
       (Os.Scenario.caller_source ~callee_link:"x$y" ~iterations:3 ())
   with
  | Ok s ->
      Alcotest.(check bool) "caller has start" true
        (List.mem_assoc "start" s.Asm.Assemble.survey_symbols)
  | Error _ -> Alcotest.fail "caller source does not survey");
  match Asm.Assemble.survey (Os.Scenario.callee_source ()) with
  | Ok s ->
      Alcotest.(check int) "callee has one gate" 1
        s.Asm.Assemble.survey_gates
  | Error _ -> Alcotest.fail "callee source does not survey"

let test_configs_compose () =
  (* Software + paged + DBR-relative stacks together. *)
  let config =
    {
      Os.Scenario.software_config with
      Os.Scenario.paged = true;
      stack_rule = Rings.Stack_rule.Dbr_stack_relative;
    }
  in
  let p = run_exited (Os.Scenario.crossing ~config ~with_argument:true ()) in
  let s = Trace.Counters.snapshot p.Os.Process.machine.Isa.Machine.counters in
  Alcotest.(check bool) "gatekeeper ran" true
    (s.Trace.Counters.gatekeeper_entries > 0);
  Alcotest.(check bool) "pages moved" true (s.Trace.Counters.page_faults > 0)

let suite =
  [
    ( "scenario",
      [
        Alcotest.test_case "iterations scale" `Quick test_iterations_scale;
        Alcotest.test_case "all ring pairs legal" `Quick
          test_all_ring_pairs_legal;
        Alcotest.test_case "sources assemble standalone" `Quick
          test_sources_assemble_standalone;
        Alcotest.test_case "configs compose" `Quick test_configs_compose;
      ] );
  ]
