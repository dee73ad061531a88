(* Hand-built machines for ISA-level tests: a descriptor segment at
   absolute 0 and caller-specified segments, no operating system. *)

let build ?mode ?gate_on_same_ring ?use_r1_in_indirection ?stack_rule
    ~segments () =
  let m =
    Isa.Machine.create ?mode ?gate_on_same_ring ?use_r1_in_indirection
      ?stack_rule ~mem_size:(1 lsl 18) ()
  in
  let dbr = { Hw.Registers.base = 0; bound = 64; stack_base = 0 } in
  m.Isa.Machine.regs.Hw.Registers.dbr <- dbr;
  let next = ref 1024 in
  List.iter
    (fun (segno, words, access) ->
      let bound = Hw.Sdw.round_bound (max (Array.length words) 16) in
      let base = !next in
      next := !next + bound;
      Hw.Descriptor.store_sdw m.Isa.Machine.mem dbr ~segno
        (Hw.Sdw.v ~base ~bound access);
      Hw.Memory.blit_silent m.Isa.Machine.mem base words)
    segments;
  m

let set_ipr m ~ring ~segno ~wordno =
  Hw.Registers.set_ipr m.Isa.Machine.regs
    { Hw.Registers.ring = Rings.Ring.v ring; addr = Hw.Addr.v ~segno ~wordno }

let i = Isa.Instr.v
let enc instr = Isa.Instr.encode instr

let its ?(indirect = false) ~ring ~segno ~wordno () =
  Isa.Indword.encode (Isa.Indword.v ~indirect ~ring ~segno ~wordno ())

(* Common access patterns. *)
let code_ring ring =
  Rings.Access.procedure_segment ~execute_in:ring ~callable_from:ring ()

let data_ring ring =
  Rings.Access.data_segment ~writable_to:ring ~readable_to:ring ()

let fault_testable =
  Alcotest.testable Rings.Fault.pp Rings.Fault.equal

let expect_fault name expected outcome =
  match outcome with
  | Isa.Cpu.Faulted f -> Alcotest.check fault_testable name expected f
  | Isa.Cpu.Running -> Alcotest.failf "%s: expected fault, still running" name
  | Isa.Cpu.Halted -> Alcotest.failf "%s: expected fault, halted" name

let expect_running name outcome =
  match outcome with
  | Isa.Cpu.Running -> ()
  | Isa.Cpu.Faulted f ->
      Alcotest.failf "%s: unexpected fault %a" name Rings.Fault.pp f
  | Isa.Cpu.Halted -> Alcotest.failf "%s: unexpected halt" name
