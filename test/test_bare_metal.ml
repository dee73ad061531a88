(* The complete in-simulator trap story: "the processor changes the
   ring of execution to zero and transfers control to a fixed location
   in the supervisor.  A special instruction allows the state of the
   processor at the time of the trap to be restored later, resuming
   the disrupted instruction."  Here the supervisor is simulated code:
   a transfer vector, handlers that patch the stored machine
   conditions, and RTRAP. *)

let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]

(* One vector slot per fault code; divide-by-zero (19) is survivable,
   the exit service call (20) halts, everything else is fatal. *)
let supervisor_source =
  let slot code =
    let target =
      match code with 19 -> "div0h" | 20 -> "svch" | _ -> "dead"
    in
    let label = if code = 0 then "vtable:" else "       " in
    Printf.sprintf "%s tra %s" label target
  in
  let table = String.concat "\n" (List.init 23 slot) in
  table
  ^ "\n\
     div0h:  aos count,*        ; record the arithmetic fault\n\
    \        lda mcipr,*        ; stored IPR (conditions word 2)\n\
    \        ada =1             ; skip the disrupted instruction\n\
    \        sta mcipr,*\n\
    \        rtrap              ; resume from the patched conditions\n\
     svch:   halt\n\
     dead:   halt\n\
     count:  .its 0, supdata$div0s\n\
     mcipr:  .its 0, mc$ipr\n"

let mc_source = "area:   .zero 2\nipr:    .zero 21\n"
(* area(2 words) then ipr at word 2 lines up with Conditions word 2;
   keep the full 23 words writable. *)

let build () =
  let store = Os.Store.create () in
  Os.Store.add_source store ~name:"sup"
    ~acl:
      (wildcard
         (Rings.Access.procedure_segment ~execute_in:0 ~callable_from:0 ()))
    supervisor_source;
  Os.Store.add_source store ~name:"mc"
    ~acl:(wildcard (Rings.Access.data_segment ~writable_to:0 ~readable_to:0 ()))
    mc_source;
  Os.Store.add_source store ~name:"supdata"
    ~acl:(wildcard (Rings.Access.data_segment ~writable_to:0 ~readable_to:0 ()))
    "div0s:  .word 0\n";
  Os.Store.add_source store ~name:"user"
    ~acl:
      (wildcard
         (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()))
    "start:  lda =10\n\
    \        dva =0             ; trap to the simulated supervisor\n\
    \        lda =7             ; proof the instruction was skipped\n\
    \        mme =2             ; exit: vectors to the halt handler\n";
  let p = Os.Process.create ~store ~user:"alice" () in
  (match Os.Process.add_segments p [ "sup"; "mc"; "supdata"; "user" ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" e);
  (match Os.Process.start p ~segment:"user" ~entry:"start" ~ring:4 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "start: %s" e);
  p.Os.Process.machine.Isa.Machine.trap_config <-
    Some
      {
        Isa.Machine.vector_base =
          Option.get (Os.Process.address_of p ~segment:"sup" ~symbol:"vtable");
        conditions_base =
          Option.get (Os.Process.address_of p ~segment:"mc" ~symbol:"area");
      };
  p

let test_simulated_supervisor_handles_div0 () =
  let p = build () in
  (* Raw CPU run: no host kernel involved at all. *)
  (match Isa.Cpu.run ~max_instructions:1_000 p.Os.Process.machine with
  | Isa.Cpu.Halted -> ()
  | Isa.Cpu.Running -> Alcotest.fail "did not halt"
  | Isa.Cpu.Faulted f ->
      Alcotest.failf "fault escaped to the host: %a" Rings.Fault.pp f);
  Alcotest.(check int) "resumed past the division" 7
    p.Os.Process.machine.Isa.Machine.regs.Hw.Registers.a;
  (match Os.Process.address_of p ~segment:"supdata" ~symbol:"div0s" with
  | Some addr -> (
      match Os.Process.kread p addr with
      | Ok n -> Alcotest.(check int) "one fault recorded" 1 n
      | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail "supdata missing");
  (* The trap forced ring 0 and the handler ran there: the final HALT
     succeeded, which only ring 0 can do. *)
  Alcotest.(check int) "halted in ring 0" 0
    (Rings.Ring.to_int
       (Hw.Registers.ipr p.Os.Process.machine.Isa.Machine.regs)
         .Hw.Registers.ring)

let test_conditions_stored_in_memory () =
  let p = build () in
  ignore (Isa.Cpu.run ~max_instructions:1_000 p.Os.Process.machine);
  (* After the run the conditions area holds the state of the LAST
     trap: the MME exit, taken in ring 4 with A = 7. *)
  let read i =
    match Os.Process.address_of p ~segment:"mc" ~symbol:"area" with
    | Some a -> (
        match Os.Process.kread p (Hw.Addr.offset a i) with
        | Ok v -> v
        | Error _ -> -1)
    | None -> -1
  in
  Alcotest.(check int) "stored fault code = service call" 20 (read 22);
  Alcotest.(check int) "stored A" 7 (read 11);
  let ipr = read 2 in
  Alcotest.(check int) "stored ring = 4" 4
    (Hw.Word.field ~pos:33 ~width:3 ipr)

let test_conditions_roundtrip () =
  let regs = Hw.Registers.create () in
  regs.Hw.Registers.a <- 123;
  regs.Hw.Registers.q <- 456;
  regs.Hw.Registers.xs.(3) <- 789;
  regs.Hw.Registers.ind_negative <- true;
  regs.Hw.Registers.dbr <-
    { Hw.Registers.base = 4096; bound = 64; stack_base = 2 };
  Hw.Registers.set_ipr regs (Hw.Registers.ptr ~ring:5 ~segno:10 ~wordno:42);
  Hw.Registers.set_pr regs 2 (Hw.Registers.ptr ~ring:3 ~segno:7 ~wordno:9);
  let words = Hw.Conditions.store regs ~fault_code:19 in
  let fresh = Hw.Registers.create () in
  let code = Hw.Conditions.load fresh words in
  Alcotest.(check int) "fault code" 19 code;
  Alcotest.(check int) "A" 123 fresh.Hw.Registers.a;
  Alcotest.(check int) "Q" 456 fresh.Hw.Registers.q;
  Alcotest.(check int) "X3" 789 fresh.Hw.Registers.xs.(3);
  Alcotest.(check bool) "negative" true fresh.Hw.Registers.ind_negative;
  Alcotest.(check bool) "dbr" true
    (fresh.Hw.Registers.dbr = regs.Hw.Registers.dbr);
  Alcotest.(check bool) "ipr" true
    (Hw.Registers.ipr fresh = Hw.Registers.ipr regs);
  Alcotest.(check bool) "pr2" true
    (Hw.Registers.get_pr fresh 2 = Hw.Registers.get_pr regs 2)

(* A handler cannot be preempted before it consumes the conditions:
   trap entry inhibits the timer until RTRAP. *)
let test_handler_not_preempted () =
  let p = build () in
  let m = p.Os.Process.machine in
  (* A one-instruction quantum would otherwise fire inside the
     handler. *)
  m.Isa.Machine.timer <- 1;
  let rec run n fired_in_ring0 =
    if n = 0 then Alcotest.fail "never halted"
    else
      match Isa.Cpu.step m with
      | Isa.Cpu.Running ->
          run (n - 1) fired_in_ring0
      | Isa.Cpu.Halted -> fired_in_ring0
      | Isa.Cpu.Faulted _ -> Alcotest.fail "fault escaped"
  in
  (* With trap_config set, Timer_runout also vectors (slot 21 = dead =
     halt), so the run ends at the first timer fire; the inhibit rule
     means that fire can only happen while the user program runs, i.e.
     in ring 4 -- never inside the div0 handler. *)
  ignore (run 1_000 false);
  (* The timer fired and vectored to "dead": we halted in ring 0 via
     the vector.  What matters: the conditions hold ring-4 state (the
     preempted user), not mid-handler ring-0 state. *)
  let read i =
    match Os.Process.address_of p ~segment:"mc" ~symbol:"area" with
    | Some a -> (
        match Os.Process.kread p (Hw.Addr.offset a i) with
        | Ok v -> v
        | Error _ -> -1)
    | None -> -1
  in
  Alcotest.(check int) "timer fault code stored" 21 (read 22);
  Alcotest.(check int) "preempted in ring 4, not inside the handler" 4
    (Hw.Word.field ~pos:33 ~width:3 (read 2))

let suite =
  [
    ( "bare-metal",
      [
        Alcotest.test_case "simulated supervisor handles div0" `Quick
          test_simulated_supervisor_handles_div0;
        Alcotest.test_case "conditions stored in memory" `Quick
          test_conditions_stored_in_memory;
        Alcotest.test_case "conditions round trip" `Quick
          test_conditions_roundtrip;
        Alcotest.test_case "handler not preempted" `Quick
          test_handler_not_preempted;
      ] );
  ]

