(* Kernel-level behaviour: nested crossings, recursion through gates,
   budget handling, and the dynamic return-gate stack. *)

let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]

let build ?(mode = Isa.Machine.Ring_hardware) segs ~start ~ring =
  let store = Os.Store.create () in
  List.iter
    (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
    segs;
  let p = Os.Process.create ~mode ~store ~user:"alice" () in
  (match Os.Process.add_segments p (List.map (fun (n, _, _) -> n) segs) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" e);
  (match Os.Process.start p ~segment:start ~entry:"start" ~ring with
  | Ok () -> ()
  | Error e -> Alcotest.failf "start: %s" e);
  p

let expect_exit name p expected =
  let got = Os.Kernel.run ~max_instructions:200_000 p in
  Alcotest.check (Alcotest.testable Os.Kernel.pp_exit ( = )) name expected got

(* A chain of three rings: 4 -> 2 -> 0, each layer a gated procedure
   that calls the next and adds to A on the way back. *)
let chain_segments =
  [
    ( "top",
      wildcard (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()),
      "start:  eap pr1, ret\n\
      \        spr pr1, pr6|1\n\
      \        lda =0\n\
      \        sta pr6|2\n\
      \        eap pr2, pr6|2\n\
      \        call mid,*\n\
       ret:    mme =2\n\
       mid:    .its 0, middle$entry\n" );
    ( "middle",
      wildcard
        (Rings.Access.procedure_segment ~gates:1 ~execute_in:2
           ~callable_from:5 ()),
      "entry:  .gate impl\n\
       impl:   eap pr5, pr0|0,*\n\
      \        spr pr6, pr5|0\n\
      \        eap pr6, pr5|0\n\
      \        spr pr0, pr6|2\n\
      \        eap pr1, pr6|8\n\
      \        spr pr1, pr0|0\n\
      \        eap pr1, ret1\n\
      \        spr pr1, pr6|1\n\
      \        lda =0\n\
      \        sta pr6|3\n\
      \        eap pr2, pr6|3\n\
      \        call core,*\n\
       ret1:   ada =10           ; middle's contribution\n\
      \        eap pr0, pr6|2,*\n\
      \        spr pr6, pr0|0\n\
      \        eap pr6, pr6|0,*\n\
      \        retn pr6|1,*\n\
       core:   .its 0, bottom$entry\n" );
    ( "bottom",
      wildcard
        (Rings.Access.procedure_segment ~gates:1 ~execute_in:0
           ~callable_from:3 ()),
      "entry:  .gate impl\n\
       impl:   eap pr5, pr0|0,*\n\
      \        spr pr6, pr5|0\n\
      \        eap pr6, pr5|0\n\
      \        eap pr1, pr6|8\n\
      \        spr pr1, pr0|0\n\
      \        lda =100          ; bottom's value\n\
      \        spr pr6, pr0|0\n\
      \        eap pr6, pr6|0,*\n\
      \        retn pr6|1,*\n" );
  ]

let test_nested_downward_chain () =
  List.iter
    (fun mode ->
      let p = build ~mode chain_segments ~start:"top" ~ring:4 in
      expect_exit "chain exits" p Os.Kernel.Exited;
      Alcotest.(check int)
        "A accumulated through the chain" 110
        p.Os.Process.machine.Isa.Machine.regs.Hw.Registers.a;
      let s =
        Trace.Counters.snapshot p.Os.Process.machine.Isa.Machine.counters
      in
      Alcotest.(check int) "two downward calls" 2
        s.Trace.Counters.calls_downward;
      Alcotest.(check int) "two upward returns" 2
        s.Trace.Counters.returns_upward)
    [ Isa.Machine.Ring_hardware; Isa.Machine.Ring_software_645 ]

(* Recursion through a gate: the service calls itself through its own
   gate (same ring, via gate) until a counter in its ring-local data
   runs out. *)
let test_recursion_through_gate () =
  let p =
    build
      [
        ( "top",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()),
          "start:  eap pr1, ret\n\
          \        spr pr1, pr6|1\n\
          \        lda =0\n\
          \        sta pr6|2\n\
          \        eap pr2, pr6|2\n\
          \        call svc,*\n\
           ret:    mme =2\n\
           svc:    .its 0, recur$entry\n" );
        ( "recur",
          wildcard
            (Rings.Access.procedure_segment ~gates:1 ~execute_in:1
               ~callable_from:5 ()),
          (* Decrement the counter; if nonzero call self through the
             gate again. *)
          "entry:  .gate impl\n\
           impl:   eap pr5, pr0|0,*\n\
          \        spr pr6, pr5|0\n\
          \        eap pr6, pr5|0\n\
          \        spr pr0, pr6|2\n\
          \        eap pr1, pr6|8\n\
          \        spr pr1, pr0|0\n\
          \        lda ctr,*\n\
          \        sba =1\n\
          \        sta ctr,*\n\
          \        tze done\n\
          \        eap pr1, ret1\n\
          \        spr pr1, pr6|1\n\
          \        lda =0\n\
          \        sta pr6|3\n\
          \        eap pr2, pr6|3\n\
          \        call self,*\n\
           ret1:   nop\n\
           done:   lda ctr,*\n\
          \        eap pr0, pr6|2,*\n\
          \        spr pr6, pr0|0\n\
          \        eap pr6, pr6|0,*\n\
          \        retn pr6|1,*\n\
           self:   .its 0, recur$entry\n\
           ctr:    .its 0, counter$value\n" );
        ( "counter",
          wildcard
            (Rings.Access.data_segment ~writable_to:1 ~readable_to:1 ()),
          "value:  .word 5\n" );
      ]
      ~start:"top" ~ring:4
  in
  expect_exit "recursion exits" p Os.Kernel.Exited;
  let s = Trace.Counters.snapshot p.Os.Process.machine.Isa.Machine.counters in
  Alcotest.(check int) "one downward call" 1 s.Trace.Counters.calls_downward;
  Alcotest.(check int) "four recursive same-ring gate calls" 4
    s.Trace.Counters.calls_same_ring

let test_budget_exhaustion () =
  let p =
    build
      [
        ( "spin",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()),
          "start:  tra start\n" );
      ]
      ~start:"spin" ~ring:4
  in
  match Os.Kernel.run ~max_instructions:1000 p with
  | Os.Kernel.Out_of_budget -> ()
  | e -> Alcotest.failf "expected Out_of_budget, got %a" Os.Kernel.pp_exit e

let test_unknown_service_code () =
  let p =
    build
      [
        ( "svc",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()),
          "start:  mme =99\n" );
      ]
      ~start:"svc" ~ring:4
  in
  match Os.Kernel.run ~max_instructions:1000 p with
  | Os.Kernel.Terminated (Rings.Fault.Service_call { code = 99 }) -> ()
  | e -> Alcotest.failf "expected termination, got %a" Os.Kernel.pp_exit e

(* The return-gate trampoline must not be usable out of thin air: a
   program jumping into it without an outstanding outward call is
   killed by the gatekeeper. *)
let test_retgate_without_outward_call () =
  let p =
    build
      [
        ( "cheat",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()),
          "start:  tra gate,*\n\
           gate:   .its 0, 9, 0\n" );
      ]
      ~start:"cheat" ~ring:4
  in
  match Os.Kernel.run ~max_instructions:1000 p with
  | Os.Kernel.Gatekeeper_error _ -> ()
  | e -> Alcotest.failf "expected gatekeeper error, got %a" Os.Kernel.pp_exit e

(* Per-user gate availability: the registration gate of "Use of
   Rings", reachable only by the administrator's process. *)
let test_admin_only_gate () =
  let registration_acl =
    [
      {
        Os.Acl.user = "admin";
        access =
          Rings.Access.procedure_segment ~gates:1 ~execute_in:1
            ~callable_from:5 ();
      };
      (* Other users may know of the segment but hold no gate
         capability above the execute bracket. *)
      {
        Os.Acl.user = Os.Acl.wildcard;
        access =
          Rings.Access.procedure_segment ~gates:1 ~execute_in:1
            ~callable_from:1 ();
      };
    ]
  in
  let caller_src =
    "start:  eap pr1, ret\n\
    \        spr pr1, pr6|1\n\
    \        lda =0\n\
    \        sta pr6|2\n\
    \        eap pr2, pr6|2\n\
    \        call reg,*\n\
     ret:    mme =2\n\
     reg:    .its 0, register$entry\n"
  in
  let run_as user =
    let store = Os.Store.create () in
    Os.Store.add_source store ~name:"caller"
      ~acl:
        (wildcard
           (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()))
      caller_src;
    Os.Store.add_source store ~name:"register" ~acl:registration_acl
      (Os.Scenario.callee_source ());
    let p = Os.Process.create ~store ~user () in
    (match Os.Process.add_segments p [ "caller"; "register" ] with
    | Ok () -> ()
    | Error e -> Alcotest.failf "load: %s" e);
    (match Os.Process.start p ~segment:"caller" ~entry:"start" ~ring:4 with
    | Ok () -> ()
    | Error e -> Alcotest.failf "start: %s" e);
    Os.Kernel.run ~max_instructions:10_000 p
  in
  (match run_as "admin" with
  | Os.Kernel.Exited -> ()
  | e -> Alcotest.failf "admin refused: %a" Os.Kernel.pp_exit e);
  match run_as "mallory" with
  | Os.Kernel.Terminated (Rings.Fault.Outside_gate_extension _) -> ()
  | e -> Alcotest.failf "mallory not refused: %a" Os.Kernel.pp_exit e

(* "They may, however, be given permission to call user-provided gates
   into rings 4 or 5": ring 6 cannot reach the supervisor, but a user
   gate with a wide enough extension serves it fine. *)
let test_ring6_calls_user_gate () =
  let p =
    build
      [
        ( "student",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:6 ~callable_from:6 ()),
          "start:  eap pr1, ret\n\
          \        spr pr1, pr6|1\n\
          \        lda =0\n\
          \        sta pr6|2\n\
          \        eap pr2, pr6|2\n\
          \        call svc,*\n\
           ret:    mme =2\n\
           svc:    .its 0, usergate$entry\n" );
        ( "usergate",
          (* A ring-4 service that rings 5-7 may call. *)
          wildcard
            (Rings.Access.procedure_segment ~gates:1 ~execute_in:4
               ~callable_from:7 ()),
          Os.Scenario.callee_source () );
      ]
      ~start:"student" ~ring:6
  in
  expect_exit "ring 6 used the user gate" p Os.Kernel.Exited;
  Alcotest.(check int) "service result" 42
    p.Os.Process.machine.Isa.Machine.regs.Hw.Registers.a;
  Alcotest.(check int) "one downward call" 1
    Trace.Counters.(
      get p.Os.Process.machine.Isa.Machine.counters calls_downward)

(* {1 Recovery from injected faults} *)

let attach plan p = Os.Process.attach_injector p.Os.Process.machine plan [ p ]

let counting_worker =
  ( "worker",
    wildcard (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()),
    "start:  lda =200\n\
    \        sta pr6|5\n\
     loop:   lda pr6|5\n\
    \        sba =1\n\
    \        sta pr6|5\n\
    \        tnz loop\n\
    \        lda =7\n\
    \        mme =2\n" )

let flip_plan ~start ~every ~count ~budget =
  {
    Hw.Inject.seed = 3;
    fault_budget = budget;
    io_retry_limit = 3;
    rules =
      [
        {
          Hw.Inject.start;
          every = Some every;
          count;
          action = Hw.Inject.Flip_bit;
        };
      ];
  }

let test_parity_recovered_within_budget () =
  let p = build [ counting_worker ] ~start:"worker" ~ring:4 in
  let inj = attach (flip_plan ~start:50 ~every:150 ~count:3 ~budget:10) p in
  expect_exit "recovered and finished" p Os.Kernel.Exited;
  let c = p.Os.Process.machine.Isa.Machine.counters in
  Alcotest.(check int)
    "three faults delivered" 3 Trace.Counters.(get c injected);
  Alcotest.(check int) "three recoveries" 3 Trace.Counters.(get c recovered);
  Alcotest.(check int) "no quarantine" 0 Trace.Counters.(get c quarantined);
  Alcotest.(check int) "program result unaffected" 7
    p.Os.Process.machine.Isa.Machine.regs.Hw.Registers.a;
  Alcotest.(check int) "all damage scrubbed" 0 (Hw.Inject.poisoned inj)

let test_fault_budget_quarantines () =
  let p = build [ counting_worker ] ~start:"worker" ~ring:4 in
  let _inj = attach (flip_plan ~start:10 ~every:10 ~count:50 ~budget:2) p in
  (match Os.Kernel.run ~max_instructions:200_000 p with
  | Os.Kernel.Quarantined (Rings.Fault.Parity_error _) -> ()
  | e -> Alcotest.failf "expected quarantine, got %a" Os.Kernel.pp_exit e);
  let c = p.Os.Process.machine.Isa.Machine.counters in
  Alcotest.(check int) "budget's worth recovered" 2
    Trace.Counters.(get c recovered);
  Alcotest.(check int) "then quarantined" 1 Trace.Counters.(get c quarantined)

let test_descriptor_damage_degrades_and_recovers () =
  let p = build [ counting_worker ] ~start:"worker" ~ring:4 in
  let plan =
    {
      Hw.Inject.seed = 5;
      fault_budget = 10;
      io_retry_limit = 3;
      rules =
        [
          {
            Hw.Inject.start = 40;
            every = Some 100;
            count = 2;
            action = Hw.Inject.Corrupt_descriptor;
          };
        ];
    }
  in
  let inj = attach plan p in
  expect_exit "survived descriptor damage" p Os.Kernel.Exited;
  let m = p.Os.Process.machine in
  Alcotest.(check bool) "dropped to uncached operation" true
    m.Isa.Machine.degraded;
  Alcotest.(check int) "degradation counted once" 1
    Trace.Counters.(get m.Isa.Machine.counters degraded);
  Alcotest.(check int) "program result unaffected" 7
    m.Isa.Machine.regs.Hw.Registers.a;
  Alcotest.(check int) "all damage scrubbed" 0 (Hw.Inject.poisoned inj)

let suite =
  [
    ( "kernel",
      [
        Alcotest.test_case "nested downward chain" `Quick
          test_nested_downward_chain;
        Alcotest.test_case "recursion through gate" `Quick
          test_recursion_through_gate;
        Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
        Alcotest.test_case "unknown service code" `Quick
          test_unknown_service_code;
        Alcotest.test_case "return gate without outward call" `Quick
          test_retgate_without_outward_call;
        Alcotest.test_case "admin-only gate" `Quick test_admin_only_gate;
        Alcotest.test_case "ring 6 calls a user gate" `Quick
          test_ring6_calls_user_gate;
        Alcotest.test_case "parity recovered within budget" `Quick
          test_parity_recovered_within_budget;
        Alcotest.test_case "fault budget quarantines" `Quick
          test_fault_budget_quarantines;
        Alcotest.test_case "descriptor damage degrades and recovers" `Quick
          test_descriptor_damage_degrades_and_recovers;
      ] );
  ]

