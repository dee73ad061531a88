(* The interval timer and preemption. *)

let spin_machine () =
  let m =
    Fixtures.build
      ~segments:
        [ (1, [| Fixtures.enc (Fixtures.i ~offset:0 Isa.Opcode.TRA) |],
           Fixtures.code_ring 4) ]
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:1 ~wordno:0;
  m

let test_timer_fires () =
  let m = spin_machine () in
  m.Isa.Machine.timer <- 5;
  let rec run n =
    match Isa.Cpu.step m with
    | Isa.Cpu.Running -> run (n + 1)
    | Isa.Cpu.Faulted Rings.Fault.Timer_runout -> n + 1
    | _ -> Alcotest.fail "unexpected outcome"
  in
  Alcotest.(check int) "fired after five instructions" 5 (run 0);
  Alcotest.(check bool) "timer disarmed" true (m.Isa.Machine.timer = Isa.Machine.disarmed)

let test_timer_saved_state_resumes () =
  let m = spin_machine () in
  m.Isa.Machine.timer <- 1;
  (match Isa.Cpu.step m with
  | Isa.Cpu.Faulted Rings.Fault.Timer_runout -> ()
  | _ -> Alcotest.fail "expected timer runout");
  (* The saved state addresses the next instruction: restoring it and
     stepping continues the loop seamlessly. *)
  Isa.Machine.restore_saved m;
  Fixtures.expect_running "resumed" (Isa.Cpu.step m);
  Alcotest.(check int) "still in the loop" 0
    m.Isa.Machine.regs.Hw.Registers.ipr_wordno

let test_timer_not_counted_as_violation () =
  let m = spin_machine () in
  m.Isa.Machine.timer <- 3;
  let rec run () =
    match Isa.Cpu.step m with
    | Isa.Cpu.Running -> run ()
    | _ -> ()
  in
  run ();
  Alcotest.(check int) "no access violation" 0
    (Trace.Counters.access_violations m.Isa.Machine.counters);
  Alcotest.(check int) "one trap" 1
    (Trace.Counters.traps m.Isa.Machine.counters)

let test_disabled_timer_never_fires () =
  let m = spin_machine () in
  (match Isa.Cpu.run ~max_instructions:500 m with
  | Isa.Cpu.Running -> ()
  | _ -> Alcotest.fail "loop should still run");
  Alcotest.(check int) "500 instructions retired" 500
    (Trace.Counters.instructions m.Isa.Machine.counters)

let test_kernel_reports_preemption () =
  let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ] in
  let store = Os.Store.create () in
  Os.Store.add_source store ~name:"spin"
    ~acl:
      (wildcard
         (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()))
    "start: tra start\n";
  let p = Os.Process.create ~store ~user:"alice" () in
  (match Os.Process.add_segment p "spin" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Os.Process.start p ~segment:"spin" ~entry:"start" ~ring:4 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  p.Os.Process.machine.Isa.Machine.timer <- 10;
  match Os.Kernel.run ~max_instructions:1000 p with
  | Os.Kernel.Preempted -> ()
  | e -> Alcotest.failf "expected preemption, got %a" Os.Kernel.pp_exit e

(* Injected faults are asynchronous like the timer and must honour the
   same inhibit discipline: a fault due while a trap handler runs (IPR
   between trap and RTRAP, inhibit set) defers instead of nesting. *)
let eager_flip_plan =
  {
    Hw.Inject.seed = 1;
    fault_budget = 4;
    io_retry_limit = 3;
    rules =
      [
        {
          Hw.Inject.start = 0;
          every = Some 1;
          count = 1000;
          action = Hw.Inject.Flip_bit;
        };
      ];
  }

let test_injection_defers_under_inhibit () =
  let m = spin_machine () in
  Isa.Machine.attach_injector m (Hw.Inject.create eager_flip_plan);
  m.Isa.Machine.inhibit <- true;
  for _ = 1 to 20 do
    Fixtures.expect_running "inhibited" (Isa.Cpu.step m)
  done;
  Alcotest.(check int) "nothing injected while inhibited" 0
    (Trace.Counters.injected m.Isa.Machine.counters);
  m.Isa.Machine.inhibit <- false;
  (match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Parity_error _) -> ()
  | _ -> Alcotest.fail "expected the deferred fault right after release");
  Alcotest.(check int) "delivered exactly once" 1
    (Trace.Counters.injected m.Isa.Machine.counters)

let test_injection_delivered_before_pending_timer () =
  (* Both an injection and the timer are due when the inhibit lifts:
     the injection is polled first and the timer stays armed — two
     asynchronous events never collapse into a nested double fault. *)
  let m = spin_machine () in
  Isa.Machine.attach_injector m (Hw.Inject.create eager_flip_plan);
  m.Isa.Machine.inhibit <- true;
  Fixtures.expect_running "inhibited" (Isa.Cpu.step m);
  m.Isa.Machine.timer <- 1;
  m.Isa.Machine.inhibit <- false;
  (match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Parity_error _) -> ()
  | _ -> Alcotest.fail "expected the injected fault first");
  Alcotest.(check bool) "timer still armed" true
    (m.Isa.Machine.timer = 1)

let suite =
  [
    ( "timer",
      [
        Alcotest.test_case "fires after quantum" `Quick test_timer_fires;
        Alcotest.test_case "saved state resumes" `Quick
          test_timer_saved_state_resumes;
        Alcotest.test_case "not an access violation" `Quick
          test_timer_not_counted_as_violation;
        Alcotest.test_case "disabled timer" `Quick
          test_disabled_timer_never_fires;
        Alcotest.test_case "kernel reports preemption" `Quick
          test_kernel_reports_preemption;
        Alcotest.test_case "injection defers under inhibit" `Quick
          test_injection_defers_under_inhibit;
        Alcotest.test_case "injection precedes pending timer" `Quick
          test_injection_delivered_before_pending_timer;
      ] );
  ]
