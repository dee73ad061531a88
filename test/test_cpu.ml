(* The instruction cycle: Fig. 4 fetch validation, trap capture and
   RTRAP resume. *)

let test_fetch_validates_execute_bracket () =
  (* IPR in a segment whose execute bracket excludes the ring. *)
  let m =
    Fixtures.build
      ~segments:[ (1, [| Fixtures.enc (Fixtures.i Isa.Opcode.NOP) |],
                   Fixtures.code_ring 1) ]
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:1 ~wordno:0;
  match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Execute_bracket_violation _) -> ()
  | _ -> Alcotest.fail "expected Execute_bracket_violation on fetch"

let test_fetch_needs_execute_flag () =
  let m =
    Fixtures.build ~segments:[ (1, [| 0 |], Fixtures.data_ring 4) ] ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:1 ~wordno:0;
  match Isa.Cpu.step m with
  | Isa.Cpu.Faulted Rings.Fault.No_execute_permission -> ()
  | _ -> Alcotest.fail "expected No_execute_permission on fetch"

let test_fetch_missing_segment () =
  let m = Fixtures.build ~segments:[] () in
  Fixtures.set_ipr m ~ring:4 ~segno:9 ~wordno:0;
  match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Missing_segment { segno }) ->
      Alcotest.(check int) "segno" 9 segno
  | _ -> Alcotest.fail "expected Missing_segment"

let test_fetch_bound_violation () =
  let m =
    Fixtures.build ~segments:[ (1, [||], Fixtures.code_ring 4) ] ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:1 ~wordno:100;
  match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Bound_violation _) -> ()
  | _ -> Alcotest.fail "expected Bound_violation"

let test_trap_saves_state_at_faulting_instruction () =
  let m =
    Fixtures.build
      ~segments:
        [
          ( 1,
            [|
              Fixtures.enc (Fixtures.i Isa.Opcode.NOP);
              Fixtures.enc (Fixtures.i Isa.Opcode.HALT);
            |],
            Fixtures.code_ring 4 );
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:1 ~wordno:0;
  Fixtures.expect_running "nop" (Isa.Cpu.step m);
  (match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Privileged_instruction _) -> ()
  | _ -> Alcotest.fail "expected privileged fault");
  match m.Isa.Machine.saved with
  | Some { Isa.Machine.regs; fault } ->
      Alcotest.(check int) "saved IPR at the HALT" 1
        regs.Hw.Registers.ipr_wordno;
      Alcotest.(check bool)
        "fault recorded" true
        (match fault with Rings.Fault.Privileged_instruction _ -> true | _ -> false)
  | None -> Alcotest.fail "no state saved"

let test_rtrap_resumes () =
  (* Ring-0 supervisor executes RTRAP after a trap; the disrupted
     instruction is resumed.  Build: ring-4 code faults with MME; we
     simulate the supervisor by patching the saved state to skip the
     MME, then pointing IPR at a ring-0 RTRAP. *)
  let m =
    Fixtures.build
      ~segments:
        [
          ( 1,
            [|
              Fixtures.enc
                (Fixtures.i ~base:Isa.Instr.Immediate ~offset:3
                   Isa.Opcode.MME);
              Fixtures.enc
                (Fixtures.i ~base:Isa.Instr.Immediate ~offset:55
                   Isa.Opcode.LDA);
            |],
            Fixtures.code_ring 4 );
          ( 2,
            [| Fixtures.enc (Fixtures.i Isa.Opcode.RTRAP) |],
            Fixtures.code_ring 0 );
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:1 ~wordno:0;
  (match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Service_call { code }) ->
      Alcotest.(check int) "code" 3 code
  | _ -> Alcotest.fail "expected service call");
  (* Supervisor: advance the saved IPR past the MME, then RTRAP. *)
  (match m.Isa.Machine.saved with
  | Some { Isa.Machine.regs; _ } ->
      Hw.Registers.advance_ipr regs
  | None -> Alcotest.fail "no saved state");
  Fixtures.set_ipr m ~ring:0 ~segno:2 ~wordno:0;
  Fixtures.expect_running "rtrap" (Isa.Cpu.step m);
  Alcotest.(check int) "back in ring 4" 4
    (Rings.Ring.to_int m.Isa.Machine.regs.Hw.Registers.ipr_ring);
  Fixtures.expect_running "resumed" (Isa.Cpu.step m);
  Alcotest.(check int) "LDA executed" 55 m.Isa.Machine.regs.Hw.Registers.a

let test_trap_counters () =
  let m =
    Fixtures.build
      ~segments:[ (1, [| Fixtures.enc (Fixtures.i Isa.Opcode.HALT) |],
                   Fixtures.code_ring 4) ]
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:1 ~wordno:0;
  ignore (Isa.Cpu.step m);
  let c = m.Isa.Machine.counters in
  Alcotest.(check int) "one trap" 1 Trace.Counters.(get c traps);
  Alcotest.(check int) "one access violation" 1
    Trace.Counters.(get c access_violations);
  Alcotest.(check bool)
    "trap entry charged" true
    (Trace.Counters.cycles c >= Hw.Costs.trap_entry)

let test_run_until_halt () =
  let m =
    Fixtures.build
      ~segments:
        [
          ( 1,
            Array.map Fixtures.enc
              [|
                Fixtures.i ~base:Isa.Instr.Immediate ~offset:1 Isa.Opcode.LDA;
                Fixtures.i ~base:Isa.Instr.Immediate ~offset:1 Isa.Opcode.ADA;
                Fixtures.i Isa.Opcode.HALT;
              |],
            Fixtures.code_ring 0 );
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:0 ~segno:1 ~wordno:0;
  (match Isa.Cpu.run m with
  | Isa.Cpu.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  Alcotest.(check int) "computed" 2 m.Isa.Machine.regs.Hw.Registers.a;
  Alcotest.(check int) "three instructions" 3
    (Trace.Counters.instructions m.Isa.Machine.counters)

let test_run_budget () =
  (* An infinite loop exhausts the budget and reports Running. *)
  let m =
    Fixtures.build
      ~segments:
        [ (1, [| Fixtures.enc (Fixtures.i ~offset:0 Isa.Opcode.TRA) |],
           Fixtures.code_ring 0) ]
      ()
  in
  Fixtures.set_ipr m ~ring:0 ~segno:1 ~wordno:0;
  match Isa.Cpu.run ~max_instructions:100 m with
  | Isa.Cpu.Running ->
      Alcotest.(check int) "exactly the budget" 100
        (Trace.Counters.instructions m.Isa.Machine.counters)
  | _ -> Alcotest.fail "expected Running at budget"

let test_instruction_trace () =
  let m =
    Fixtures.build
      ~segments:
        [ (1, [| Fixtures.enc (Fixtures.i Isa.Opcode.NOP) |],
           Fixtures.code_ring 0) ]
      ()
  in
  Trace.Event.set_enabled m.Isa.Machine.log true;
  Fixtures.set_ipr m ~ring:0 ~segno:1 ~wordno:0;
  ignore (Isa.Cpu.step m);
  match Trace.Event.events m.Isa.Machine.log with
  | [ Trace.Event.Instruction { ring = 0; segno = 1; wordno = 0; text } ] ->
      Alcotest.(check bool) "disassembly mentions NOP" true
        (String.length text >= 3 && String.sub text 0 3 = "NOP")
  | _ -> Alcotest.fail "expected one instruction event"

let suite =
  [
    ( "cpu",
      [
        Alcotest.test_case "fetch validates execute bracket" `Quick
          test_fetch_validates_execute_bracket;
        Alcotest.test_case "fetch needs execute flag" `Quick
          test_fetch_needs_execute_flag;
        Alcotest.test_case "fetch missing segment" `Quick
          test_fetch_missing_segment;
        Alcotest.test_case "fetch bound violation" `Quick
          test_fetch_bound_violation;
        Alcotest.test_case "trap saves state" `Quick
          test_trap_saves_state_at_faulting_instruction;
        Alcotest.test_case "rtrap resumes" `Quick test_rtrap_resumes;
        Alcotest.test_case "trap counters" `Quick test_trap_counters;
        Alcotest.test_case "run until halt" `Quick test_run_until_halt;
        Alcotest.test_case "run budget" `Quick test_run_budget;
        Alcotest.test_case "instruction trace" `Quick test_instruction_trace;
      ] );
  ]
