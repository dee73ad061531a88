(* Instruction semantics via single CPU steps (Figs. 6 and 7). *)

(* Build a machine whose segment 1 is code (ring 2) assembled from
   raw instructions, segment 2 is ring-2 data, segment 3 is data
   writable only below (read bracket 2, write bracket 0). *)
let machine ?(code = [||]) ?(data = [||]) () =
  let protected_data =
    Rings.Access.v ~read:true ~write:true (Rings.Brackets.of_ints 0 2 2)
  in
  let m =
    Fixtures.build
      ~segments:
        [
          (1, Array.map Fixtures.enc code, Fixtures.code_ring 2);
          (2, data, Fixtures.data_ring 2);
          (3, [||], protected_data);
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:2 ~segno:1 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 1
    (Hw.Registers.ptr ~ring:2 ~segno:2 ~wordno:0);
  m

let step = Isa.Cpu.step
let regs m = m.Isa.Machine.regs

let test_lda_sta () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:(Isa.Instr.Pr 1) ~offset:0 Isa.Opcode.LDA;
          Fixtures.i ~base:(Isa.Instr.Pr 1) ~offset:1 Isa.Opcode.STA;
        |]
      ~data:[| 123; 0 |] ()
  in
  Fixtures.expect_running "lda" (step m);
  Alcotest.(check int) "A loaded" 123 (regs m).Hw.Registers.a;
  Fixtures.expect_running "sta" (step m);
  let sdw, abs =
    match Isa.Machine.resolve m (Hw.Addr.v ~segno:2 ~wordno:1) with
    | Ok x -> x
    | Error _ -> Alcotest.fail "resolve"
  in
  ignore sdw;
  Alcotest.(check int) "stored" 123 (Hw.Memory.read_silent m.Isa.Machine.mem abs)

let test_arithmetic_and_indicators () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:10 Isa.Opcode.LDA;
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:10 Isa.Opcode.SBA;
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:3 Isa.Opcode.SBA;
        |]
      ()
  in
  Fixtures.expect_running "lda" (step m);
  Fixtures.expect_running "sba" (step m);
  Alcotest.(check bool) "zero indicator" true (regs m).Hw.Registers.ind_zero;
  Fixtures.expect_running "sba 2" (step m);
  Alcotest.(check bool) "negative indicator" true
    (regs m).Hw.Registers.ind_negative;
  Alcotest.(check int) "A = -3" (-3) (Hw.Word.to_signed (regs m).Hw.Registers.a)

let test_mul_div () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:6 Isa.Opcode.LDA;
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:7 Isa.Opcode.MPA;
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:2 Isa.Opcode.DVA;
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:0 Isa.Opcode.DVA;
        |]
      ()
  in
  Fixtures.expect_running "lda" (step m);
  Fixtures.expect_running "mpa" (step m);
  Alcotest.(check int) "6*7" 42 (regs m).Hw.Registers.a;
  Fixtures.expect_running "dva" (step m);
  Alcotest.(check int) "42/2" 21 (regs m).Hw.Registers.a;
  Fixtures.expect_fault "divide by zero" Rings.Fault.Divide_by_zero (step m)

let test_logic () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:0o14 Isa.Opcode.LDA;
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:0o6 Isa.Opcode.ANA;
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:0o21 Isa.Opcode.ORA;
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:0o25 Isa.Opcode.XRA;
        |]
      ()
  in
  Fixtures.expect_running "lda" (step m);
  Fixtures.expect_running "ana" (step m);
  Alcotest.(check int) "and" 0o4 (regs m).Hw.Registers.a;
  Fixtures.expect_running "ora" (step m);
  Alcotest.(check int) "or" 0o25 (regs m).Hw.Registers.a;
  Fixtures.expect_running "xra" (step m);
  Alcotest.(check int) "xor" 0 (regs m).Hw.Registers.a

let test_aos_read_modify_write () =
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 1) ~offset:0 Isa.Opcode.AOS |]
      ~data:[| 9 |] ()
  in
  Fixtures.expect_running "aos" (step m);
  let _, abs =
    Result.get_ok (Isa.Machine.resolve m (Hw.Addr.v ~segno:2 ~wordno:0))
  in
  Alcotest.(check int) "incremented" 10
    (Hw.Memory.read_silent m.Isa.Machine.mem abs)

let test_aos_needs_write_bracket () =
  (* Segment 3 is readable at ring 2 but writable only in ring 0: AOS
     must fault on the write half. *)
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0 Isa.Opcode.AOS |]
      ()
  in
  Hw.Registers.set_pr m.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:2 ~segno:3 ~wordno:0);
  match step m with
  | Isa.Cpu.Faulted (Rings.Fault.Write_bracket_violation _) -> ()
  | o ->
      Alcotest.failf "expected write bracket violation, got %s"
        (match o with
        | Isa.Cpu.Running -> "running"
        | Isa.Cpu.Halted -> "halted"
        | Isa.Cpu.Faulted f -> Rings.Fault.to_string f)

let test_ldx_stx () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:Isa.Instr.Immediate ~xr:3 ~offset:77
            Isa.Opcode.LDX;
          Fixtures.i ~base:(Isa.Instr.Pr 1) ~xr:3 ~offset:0 Isa.Opcode.STX;
        |]
      ~data:[| 0 |] ()
  in
  Fixtures.expect_running "ldx" (step m);
  Alcotest.(check int) "X3" 77 (regs m).Hw.Registers.xs.(3);
  Fixtures.expect_running "stx" (step m);
  let _, abs =
    Result.get_ok (Isa.Machine.resolve m (Hw.Addr.v ~segno:2 ~wordno:0))
  in
  Alcotest.(check int) "stored" 77
    (Hw.Memory.read_silent m.Isa.Machine.mem abs)

let test_transfers () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:0 Isa.Opcode.LDA;
          Fixtures.i ~offset:3 Isa.Opcode.TZE;
          Fixtures.i Isa.Opcode.NOP;
          Fixtures.i ~offset:0o10 Isa.Opcode.TRA;
        |]
      ()
  in
  Fixtures.expect_running "lda" (step m);
  Fixtures.expect_running "tze taken" (step m);
  Alcotest.(check int) "IPR at 3" 3
    (regs m).Hw.Registers.ipr_wordno;
  Fixtures.expect_running "tra" (step m);
  Alcotest.(check int) "IPR at 0o10" 0o10
    (regs m).Hw.Registers.ipr_wordno

let test_conditional_not_taken () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:1 Isa.Opcode.LDA;
          Fixtures.i ~offset:7 Isa.Opcode.TZE;
        |]
      ()
  in
  Fixtures.expect_running "lda" (step m);
  Fixtures.expect_running "tze not taken" (step m);
  Alcotest.(check int) "fell through" 2
    (regs m).Hw.Registers.ipr_wordno

let test_tsx () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~xr:1 ~offset:5 Isa.Opcode.TSX;
        |]
      ()
  in
  Fixtures.expect_running "tsx" (step m);
  Alcotest.(check int) "X1 = return wordno" 1 (regs m).Hw.Registers.xs.(1);
  Alcotest.(check int) "transferred" 5
    (regs m).Hw.Registers.ipr_wordno

let test_transfer_out_of_bracket_faults () =
  (* A TRA into a segment not executable at ring 2. *)
  let ring0_code = Fixtures.code_ring 0 in
  let m =
    Fixtures.build
      ~segments:
        [
          (1, [| Fixtures.enc (Fixtures.i ~base:(Isa.Instr.Pr 5) Isa.Opcode.TRA) |],
            Fixtures.code_ring 2);
          (4, [||], ring0_code);
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:2 ~segno:1 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:2 ~segno:4 ~wordno:0);
  match step m with
  | Isa.Cpu.Faulted (Rings.Fault.Execute_bracket_violation _) -> ()
  | _ -> Alcotest.fail "expected Execute_bracket_violation"

let test_transfer_ring_change_refused () =
  (* The effective ring was raised via PR5.RING: an ordinary transfer
     may not change the ring. *)
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0 Isa.Opcode.TRA |]
      ()
  in
  Hw.Registers.set_pr m.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:6 ~segno:1 ~wordno:0);
  match step m with
  | Isa.Cpu.Faulted (Rings.Fault.Transfer_ring_change _) -> ()
  | _ -> Alcotest.fail "expected Transfer_ring_change"

let test_eap_spr () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:(Isa.Instr.Pr 1) ~xr:4 ~offset:9 Isa.Opcode.EAP;
          Fixtures.i ~base:(Isa.Instr.Pr 1) ~xr:4 ~offset:0 Isa.Opcode.SPR;
        |]
      ~data:[| 0 |] ()
  in
  Fixtures.expect_running "eap" (step m);
  let p4 = Hw.Registers.get_pr (regs m) 4 in
  Alcotest.(check int) "PR4 segno" 2 p4.Hw.Registers.addr.Hw.Addr.segno;
  Alcotest.(check int) "PR4 wordno" 9 p4.Hw.Registers.addr.Hw.Addr.wordno;
  Alcotest.(check int) "PR4 ring" 2 (Rings.Ring.to_int p4.Hw.Registers.ring);
  Fixtures.expect_running "spr" (step m);
  let _, abs =
    Result.get_ok (Isa.Machine.resolve m (Hw.Addr.v ~segno:2 ~wordno:0))
  in
  let ind = Isa.Indword.decode (Hw.Memory.read_silent m.Isa.Machine.mem abs) in
  Alcotest.(check int) "stored wordno" 9 ind.Isa.Indword.addr.Hw.Addr.wordno;
  Alcotest.(check int) "stored ring" 2 (Rings.Ring.to_int ind.Isa.Indword.ring)

let test_eaa () =
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 1) ~offset:5 Isa.Opcode.EAA |]
      ()
  in
  Fixtures.expect_running "eaa" (step m);
  Alcotest.(check int) "A = wordno" 5 (regs m).Hw.Registers.a

let test_privileged_in_user_ring () =
  let m = machine ~code:[| Fixtures.i Isa.Opcode.HALT |] () in
  match step m with
  | Isa.Cpu.Faulted (Rings.Fault.Privileged_instruction { ring }) ->
      Alcotest.(check int) "ring" 2 (Rings.Ring.to_int ring)
  | _ -> Alcotest.fail "expected Privileged_instruction"

let test_privileged_in_ring0 () =
  let m =
    Fixtures.build
      ~segments:[ (1, [| Fixtures.enc (Fixtures.i Isa.Opcode.HALT) |],
                   Fixtures.code_ring 0) ]
      ()
  in
  Fixtures.set_ipr m ~ring:0 ~segno:1 ~wordno:0;
  (match step m with
  | Isa.Cpu.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  Alcotest.(check bool) "machine halted" true m.Isa.Machine.halted;
  match step m with
  | Isa.Cpu.Halted -> ()
  | _ -> Alcotest.fail "stepping a halted machine stays halted"

let test_mme_service_call () =
  let m =
    machine
      ~code:[| Fixtures.i ~base:Isa.Instr.Immediate ~offset:7 Isa.Opcode.MME |]
      ()
  in
  match step m with
  | Isa.Cpu.Faulted (Rings.Fault.Service_call { code }) ->
      Alcotest.(check int) "code" 7 code
  | _ -> Alcotest.fail "expected Service_call"

let test_store_to_immediate_is_illegal () =
  let m =
    machine
      ~code:[| Fixtures.i ~base:Isa.Instr.Immediate ~offset:5 Isa.Opcode.STA |]
      ()
  in
  match step m with
  | Isa.Cpu.Faulted (Rings.Fault.Illegal_opcode _) -> ()
  | _ -> Alcotest.fail "expected Illegal_opcode"

let test_stz () =
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 1) ~offset:0 Isa.Opcode.STZ |]
      ~data:[| 55 |] ()
  in
  Fixtures.expect_running "stz" (step m);
  let _, abs =
    Result.get_ok (Isa.Machine.resolve m (Hw.Addr.v ~segno:2 ~wordno:0))
  in
  Alcotest.(check int) "zeroed" 0
    (Hw.Memory.read_silent m.Isa.Machine.mem abs)

let test_stz_validated () =
  (* STZ is a write: refused outside the write bracket. *)
  let m =
    machine
      ~code:[| Fixtures.i ~base:(Isa.Instr.Pr 5) ~offset:0 Isa.Opcode.STZ |]
      ()
  in
  Hw.Registers.set_pr m.Isa.Machine.regs 5
    (Hw.Registers.ptr ~ring:2 ~segno:3 ~wordno:0);
  match step m with
  | Isa.Cpu.Faulted (Rings.Fault.Write_bracket_violation _) -> ()
  | _ -> Alcotest.fail "expected write bracket violation"

let test_shifts () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:Isa.Instr.Immediate ~offset:3 Isa.Opcode.LDA;
          Fixtures.i ~offset:4 Isa.Opcode.ALS;
          Fixtures.i ~offset:2 Isa.Opcode.ARS;
        |]
      ()
  in
  Fixtures.expect_running "lda" (step m);
  Fixtures.expect_running "als" (step m);
  Alcotest.(check int) "3 << 4" 48 (regs m).Hw.Registers.a;
  Fixtures.expect_running "ars" (step m);
  Alcotest.(check int) "48 >> 2" 12 (regs m).Hw.Registers.a

let test_ars_sign_extends () =
  let m =
    machine
      ~code:
        [|
          Fixtures.i ~base:Isa.Instr.Immediate
            ~offset:((1 lsl 18) - 8)
            Isa.Opcode.LDA;
          Fixtures.i ~offset:2 Isa.Opcode.ARS;
        |]
      ()
  in
  Fixtures.expect_running "lda -8" (step m);
  Fixtures.expect_running "ars" (step m);
  Alcotest.(check int) "-8 >> 2 = -2" (-2)
    (Hw.Word.to_signed (regs m).Hw.Registers.a)

let test_io_completion_trap () =
  (* SIOC in ring 0 arms the channel; the completion trap arrives
     while an unrelated loop runs. *)
  let m =
    Fixtures.build
      ~segments:
        [
          ( 1,
            Array.map Fixtures.enc
              [|
                Fixtures.i Isa.Opcode.SIOC;
                Fixtures.i ~offset:1 Isa.Opcode.TRA;
              |],
            Fixtures.code_ring 0 );
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:0 ~segno:1 ~wordno:0;
  let rec run n =
    if n > 100 then Alcotest.fail "completion never arrived"
    else
      match Isa.Cpu.step m with
      | Isa.Cpu.Running -> run (n + 1)
      | Isa.Cpu.Faulted Rings.Fault.Io_completion -> n
      | _ -> Alcotest.fail "unexpected outcome"
  in
  let at = run 0 in
  Alcotest.(check bool) "arrived well after SIOC" true (at >= 10);
  (* Resuming continues the loop. *)
  Isa.Machine.restore_saved m;
  Fixtures.expect_running "resumed" (Isa.Cpu.step m)

let test_rtrap_without_saved_state_faults () =
  let m =
    Fixtures.build
      ~segments:[ (1, [| Fixtures.enc (Fixtures.i Isa.Opcode.RTRAP) |],
                   Fixtures.code_ring 0) ]
      ()
  in
  Fixtures.set_ipr m ~ring:0 ~segno:1 ~wordno:0;
  match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Illegal_opcode _) -> ()
  | _ -> Alcotest.fail "expected a fault, not a crash"

let suite =
  [
    ( "exec",
      [
        Alcotest.test_case "lda/sta" `Quick test_lda_sta;
        Alcotest.test_case "arithmetic and indicators" `Quick
          test_arithmetic_and_indicators;
        Alcotest.test_case "mul/div" `Quick test_mul_div;
        Alcotest.test_case "logic" `Quick test_logic;
        Alcotest.test_case "aos read-modify-write" `Quick
          test_aos_read_modify_write;
        Alcotest.test_case "aos needs write bracket" `Quick
          test_aos_needs_write_bracket;
        Alcotest.test_case "ldx/stx" `Quick test_ldx_stx;
        Alcotest.test_case "transfers" `Quick test_transfers;
        Alcotest.test_case "conditional not taken" `Quick
          test_conditional_not_taken;
        Alcotest.test_case "tsx" `Quick test_tsx;
        Alcotest.test_case "transfer out of bracket" `Quick
          test_transfer_out_of_bracket_faults;
        Alcotest.test_case "transfer ring change refused" `Quick
          test_transfer_ring_change_refused;
        Alcotest.test_case "eap/spr" `Quick test_eap_spr;
        Alcotest.test_case "eaa" `Quick test_eaa;
        Alcotest.test_case "privileged in user ring" `Quick
          test_privileged_in_user_ring;
        Alcotest.test_case "privileged in ring 0" `Quick
          test_privileged_in_ring0;
        Alcotest.test_case "mme service call" `Quick test_mme_service_call;
        Alcotest.test_case "store to immediate illegal" `Quick
          test_store_to_immediate_is_illegal;
        Alcotest.test_case "stz" `Quick test_stz;
        Alcotest.test_case "stz validated" `Quick test_stz_validated;
        Alcotest.test_case "shifts" `Quick test_shifts;
        Alcotest.test_case "ars sign extends" `Quick test_ars_sign_extends;
        Alcotest.test_case "I/O completion trap" `Quick
          test_io_completion_trap;
        Alcotest.test_case "rtrap without saved state" `Quick
          test_rtrap_without_saved_state_faults;
      ] );
  ]

