(* Machine-level CALL and RETURN (Figs. 8 and 9): PR0 stack pointer
   generation, ring switching, PR-ring maximization, and the 645-mode
   fault behaviour — all via single stepped instructions. *)

(* Code at segment 10 executes in ring 4 and CALLs through PR5; the
   gate segment 11 executes in ring 1 with gates callable from 5.
   Segments 0-7 exist as stacks so PR0 generation can be observed. *)
let gate_access =
  Rings.Access.procedure_segment ~gates:1 ~execute_in:1 ~callable_from:5 ()

let stacks = List.init 8 (fun r -> (r, [||], Fixtures.data_ring r))

let machine ~code ~gate_words () =
  let m =
    Fixtures.build
      ~segments:
        (stacks
        @ [
            (10, Array.map Fixtures.enc code, Fixtures.code_ring 4);
            (11, Array.map Fixtures.enc gate_words, gate_access);
          ])
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:10 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:4 ~segno:11 ~wordno:0);
  Hw.Registers.set_pr m.Isa.Machine.regs Hw.Registers.pr_stack
    (Hw.Registers.ptr ~ring:4 ~segno:4 ~wordno:8);
  m

let test_downward_call_mechanics () =
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0 Isa.Opcode.CALL |]
      ~gate_words:[| Fixtures.i Isa.Opcode.NOP |] ()
  in
  Fixtures.expect_running "call" (Isa.Cpu.step m);
  let regs = m.Isa.Machine.regs in
  Alcotest.(check int) "ring switched to 1" 1
    (Rings.Ring.to_int regs.Hw.Registers.ipr_ring);
  Alcotest.(check int) "at gate word" 0
    regs.Hw.Registers.ipr_wordno;
  let pr0 = Hw.Registers.get_pr regs 0 in
  Alcotest.(check int) "PR0 names ring-1 stack" 1
    pr0.Hw.Registers.addr.Hw.Addr.segno;
  Alcotest.(check int) "PR0 at word 0" 0 pr0.Hw.Registers.addr.Hw.Addr.wordno;
  Alcotest.(check int) "PR0 ring" 1 (Rings.Ring.to_int pr0.Hw.Registers.ring);
  Alcotest.(check int) "counted" 1
    Trace.Counters.(get m.Isa.Machine.counters calls_downward);
  (* PR5 still carries the caller's ring: the callee can trust it. *)
  Alcotest.(check int) "PR5 ring intact" 4
    (Rings.Ring.to_int (Hw.Registers.get_pr regs 5).Hw.Registers.ring)

let test_call_to_non_gate_word () =
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:1 Isa.Opcode.CALL |]
      ~gate_words:[| Fixtures.i Isa.Opcode.NOP; Fixtures.i Isa.Opcode.NOP |]
      ()
  in
  match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Gate_violation { wordno = 1; gates = 1 }) ->
      ()
  | _ -> Alcotest.fail "expected Gate_violation"

let test_upward_return_maximizes_pr_rings () =
  (* Execute a RETN in ring 1 whose operand carries ring 4. *)
  let m =
    machine ~code:[| Fixtures.i Isa.Opcode.NOP |]
      ~gate_words:[| Fixtures.i ~base:(Isa.Instr.Pr 3) Isa.Opcode.RETN |] ()
  in
  Fixtures.set_ipr m ~ring:1 ~segno:11 ~wordno:0;
  (* PR3 addresses the ring-4 code with validation ring 4. *)
  Hw.Registers.set_pr m.Isa.Machine.regs 3
    (Hw.Registers.ptr ~ring:4 ~segno:10 ~wordno:0);
  Hw.Registers.set_pr m.Isa.Machine.regs 1
    (Hw.Registers.ptr ~ring:1 ~segno:1 ~wordno:0);
  Fixtures.expect_running "retn" (Isa.Cpu.step m);
  let regs = m.Isa.Machine.regs in
  Alcotest.(check int) "ring raised to 4" 4
    (Rings.Ring.to_int regs.Hw.Registers.ipr_ring);
  Alcotest.(check int) "PR1 ring maximized" 4
    (Rings.Ring.to_int (Hw.Registers.get_pr regs 1).Hw.Registers.ring);
  Alcotest.(check int) "one upward return" 1
    Trace.Counters.(get m.Isa.Machine.counters returns_upward)

let test_same_ring_return_keeps_pr_rings () =
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 3) Isa.Opcode.RETN |]
      ~gate_words:[| Fixtures.i Isa.Opcode.NOP |] ()
  in
  Hw.Registers.set_pr m.Isa.Machine.regs 3
    (Hw.Registers.ptr ~ring:4 ~segno:10 ~wordno:0);
  Hw.Registers.set_pr m.Isa.Machine.regs 1
    (Hw.Registers.ptr ~ring:2 ~segno:1 ~wordno:0);
  Fixtures.expect_running "retn" (Isa.Cpu.step m);
  Alcotest.(check int) "PR1 ring unchanged" 2
    (Rings.Ring.to_int
       (Hw.Registers.get_pr m.Isa.Machine.regs 1).Hw.Registers.ring)

let test_upward_call_fault_carries_target () =
  (* Ring-4 code calling a ring-1 caller's segment?  Build the
     inverse: executing in ring 0 calls the ring-1 gate — below its
     execute bracket bottom, a genuine upward call. *)
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0 Isa.Opcode.CALL |]
      ~gate_words:[| Fixtures.i Isa.Opcode.NOP |] ()
  in
  Fixtures.set_ipr m ~ring:0 ~segno:10 ~wordno:0;
  (* Ring-0 needs the caller code executable: widen via a direct IPR
     placement into the gate segment instead.  Simpler: call from
     ring 0 out of a ring-0 segment. *)
  let m2 =
    Fixtures.build
      ~segments:
        (stacks
        @ [
            ( 10,
              [| Fixtures.enc (Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0
                                 Isa.Opcode.CALL) |],
              Fixtures.code_ring 0 );
            (11, [| Fixtures.enc (Fixtures.i Isa.Opcode.NOP) |], gate_access);
          ])
      ()
  in
  ignore m;
  Fixtures.set_ipr m2 ~ring:0 ~segno:10 ~wordno:0;
  Hw.Registers.set_pr m2.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:0 ~segno:11 ~wordno:0);
  match Isa.Cpu.step m2 with
  | Isa.Cpu.Faulted
      (Rings.Fault.Upward_call { from_ring; to_ring; segno; wordno }) ->
      Alcotest.(check int) "from" 0 (Rings.Ring.to_int from_ring);
      Alcotest.(check int) "to" 1 (Rings.Ring.to_int to_ring);
      Alcotest.(check int) "segno" 11 segno;
      Alcotest.(check int) "wordno" 0 wordno;
      Alcotest.(check int) "counted" 1
        Trace.Counters.(get m2.Isa.Machine.counters calls_upward)
  | _ -> Alcotest.fail "expected Upward_call"

let test_645_cross_ring_call_faults () =
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0 Isa.Opcode.CALL |]
      ~gate_words:[| Fixtures.i Isa.Opcode.NOP |] ()
  in
  ignore m;
  (* Rebuild in 645 mode: the gate segment's flags-only SDW makes the
     target non-executable.  Fixtures.build stores full-bracket SDWs,
     which in 645 mode read as plain flags, so mimic the per-ring
     descriptor segment by marking the gate segment E-off. *)
  let gate_645 =
    Rings.Access.v ~read:true (Rings.Brackets.of_ints 1 1 5)
  in
  let m =
    Fixtures.build ~mode:Isa.Machine.Ring_software_645
      ~segments:
        (stacks
        @ [
            ( 10,
              [| Fixtures.enc (Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0
                                 Isa.Opcode.CALL) |],
              Fixtures.code_ring 4 );
            (11, [| Fixtures.enc (Fixtures.i Isa.Opcode.NOP) |], gate_645);
          ])
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:10 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:4 ~segno:11 ~wordno:0);
  match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Cross_ring_transfer { segno = 11; wordno = 0 })
    ->
      ()
  | _ -> Alcotest.fail "expected Cross_ring_transfer"

let test_645_same_ring_call_no_fault () =
  let m =
    Fixtures.build ~mode:Isa.Machine.Ring_software_645
      ~segments:
        (stacks
        @ [
            ( 10,
              [| Fixtures.enc (Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0
                                 Isa.Opcode.CALL) |],
              Fixtures.code_ring 4 );
            ( 11,
              [| Fixtures.enc (Fixtures.i Isa.Opcode.NOP) |],
              Fixtures.code_ring 4 );
          ])
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:10 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:4 ~segno:11 ~wordno:0);
  Hw.Registers.set_pr m.Isa.Machine.regs Hw.Registers.pr_stack
    (Hw.Registers.ptr ~ring:4 ~segno:4 ~wordno:8);
  Fixtures.expect_running "call" (Isa.Cpu.step m);
  let regs = m.Isa.Machine.regs in
  Alcotest.(check int) "transferred" 11
    regs.Hw.Registers.ipr_segno;
  (* PR0 was generated from the current stack pointer segment. *)
  Alcotest.(check int) "PR0 from PR6's stack" 4
    (Hw.Registers.get_pr regs 0).Hw.Registers.addr.Hw.Addr.segno;
  Alcotest.(check int) "counted same-ring" 1
    Trace.Counters.(get m.Isa.Machine.counters calls_same_ring)

(* Property: after any successful hardware CALL or RETURN, every PR
   ring is >= IPR.RING (the paper's invariant). *)
let prop_pr_ring_invariant =
  QCheck.Test.make ~name:"PRn.RING >= IPR.RING after CALL/RETURN" ~count:300
    (QCheck.pair (QCheck.int_range 0 7) (QCheck.int_range 0 7))
    (fun (caller_ring, pr_seed) ->
      let gate =
        Rings.Access.procedure_segment ~gates:1 ~execute_in:1
          ~callable_from:7 ()
      in
      let m =
        Fixtures.build
          ~segments:
            (stacks
            @ [
                ( 10,
                  [| Fixtures.enc (Fixtures.i ~base:(Isa.Instr.Pr 5)
                                     ~offset:0 Isa.Opcode.CALL) |],
                  Rings.Access.v ~execute:true
                    (Rings.Brackets.of_ints 0 7 7) );
                (11, [| Fixtures.enc (Fixtures.i Isa.Opcode.NOP) |], gate);
              ])
          ()
      in
      Fixtures.set_ipr m ~ring:caller_ring ~segno:10 ~wordno:0;
      Hw.Registers.set_pr m.Isa.Machine.regs 5
        (Hw.Registers.ptr
           ~ring:(max caller_ring pr_seed)
           ~segno:11 ~wordno:0);
      Hw.Registers.set_pr m.Isa.Machine.regs Hw.Registers.pr_stack
        (Hw.Registers.ptr ~ring:caller_ring ~segno:caller_ring ~wordno:8);
      match Isa.Cpu.step m with
      | Isa.Cpu.Running ->
          let regs = m.Isa.Machine.regs in
          let ipr_ring =
            Rings.Ring.to_int regs.Hw.Registers.ipr_ring
          in
          List.for_all
            (fun n ->
              (* PR0 is rewritten by CALL to the new ring; others must
                 dominate the caller's ring, hence the new one. *)
              Rings.Ring.to_int
                (Hw.Registers.get_pr regs n).Hw.Registers.ring
              >= ipr_ring)
            [ 0; 5; 6 ]
      | Isa.Cpu.Faulted _ | Isa.Cpu.Halted -> true)

(* The Fig. 8 footnote's first subtle feature: under the DBR-relative
   stack rule, a same-ring CALL takes the stack segment number from
   the stack pointer register, so a procedure running on a nonstandard
   stack keeps it across calls. *)
let test_footnote_nonstandard_stack_preserved () =
  let nonstandard = 25 in
  let m =
    Fixtures.build ~stack_rule:Rings.Stack_rule.Dbr_stack_relative
      ~segments:
        (stacks
        @ [
            (nonstandard, [||], Fixtures.data_ring 4);
            ( 10,
              [| Fixtures.enc (Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0
                                 Isa.Opcode.CALL) |],
              Fixtures.code_ring 4 );
            ( 11,
              [| Fixtures.enc (Fixtures.i Isa.Opcode.NOP) |],
              Rings.Access.procedure_segment ~gates:1 ~execute_in:4
                ~callable_from:4 () );
          ])
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:10 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:4 ~segno:11 ~wordno:0);
  Hw.Registers.set_pr m.Isa.Machine.regs Hw.Registers.pr_stack
    (Hw.Registers.ptr ~ring:4 ~segno:nonstandard ~wordno:8);
  Fixtures.expect_running "same-ring call" (Isa.Cpu.step m);
  Alcotest.(check int) "PR0 keeps the nonstandard stack" nonstandard
    (Hw.Registers.get_pr m.Isa.Machine.regs 0).Hw.Registers.addr
      .Hw.Addr.segno;
  (* The same call under the simple rule would have selected stack
     segment 4. *)
  let m2 =
    Fixtures.build ~stack_rule:Rings.Stack_rule.Segno_equals_ring
      ~segments:
        (stacks
        @ [
            ( 10,
              [| Fixtures.enc (Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0
                                 Isa.Opcode.CALL) |],
              Fixtures.code_ring 4 );
            ( 11,
              [| Fixtures.enc (Fixtures.i Isa.Opcode.NOP) |],
              Rings.Access.procedure_segment ~gates:1 ~execute_in:4
                ~callable_from:4 () );
          ])
      ()
  in
  Fixtures.set_ipr m2 ~ring:4 ~segno:10 ~wordno:0;
  Hw.Registers.set_pr m2.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:4 ~segno:11 ~wordno:0);
  Hw.Registers.set_pr m2.Isa.Machine.regs Hw.Registers.pr_stack
    (Hw.Registers.ptr ~ring:4 ~segno:nonstandard ~wordno:8);
  Fixtures.expect_running "same-ring call" (Isa.Cpu.step m2);
  Alcotest.(check int) "simple rule: segno = ring" 4
    (Hw.Registers.get_pr m2.Isa.Machine.regs 0).Hw.Registers.addr
      .Hw.Addr.segno

let suite =
  [
    ( "call-return-machine",
      [
        Alcotest.test_case "downward call mechanics" `Quick
          test_downward_call_mechanics;
        Alcotest.test_case "call to non-gate word" `Quick
          test_call_to_non_gate_word;
        Alcotest.test_case "upward return maximizes PR rings" `Quick
          test_upward_return_maximizes_pr_rings;
        Alcotest.test_case "same-ring return keeps PR rings" `Quick
          test_same_ring_return_keeps_pr_rings;
        Alcotest.test_case "upward call fault carries target" `Quick
          test_upward_call_fault_carries_target;
        Alcotest.test_case "645 cross-ring call faults" `Quick
          test_645_cross_ring_call_faults;
        Alcotest.test_case "645 same-ring call" `Quick
          test_645_same_ring_call_no_fault;
        Alcotest.test_case "footnote: nonstandard stack preserved" `Quick
          test_footnote_nonstandard_stack_preserved;
        QCheck_alcotest.to_alcotest prop_pr_ring_invariant;
      ] );
  ]

