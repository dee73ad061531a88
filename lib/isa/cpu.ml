type outcome = Running | Halted | Faulted of Rings.Fault.t

(* Fig. 4: retrieve the next instruction, validating the execute
   bracket as the SDW becomes available during address translation.
   The whole sequence — translation, validation, word read, decode —
   is memoized by the machine's fetch cache. *)
let fetch m = Machine.fetch_instr m

(* Take the trap with IPR saved at [ring], [segno|wordno]. *)
let trap m ~ring ~segno ~wordno fault =
  Machine.take_fault m ~ring ~segno ~wordno fault;
  if m.Machine.trap_config = None then Faulted fault
  else
    (* The processor transferred to the simulated supervisor's
       vector; execution continues there. *)
    Running

(* An asynchronous trap, taken between instructions: the saved state
   addresses the next instruction. *)
let interrupt m fault =
  let regs = m.Machine.regs in
  trap m ~ring:regs.Hw.Registers.ipr_ring ~segno:regs.Hw.Registers.ipr_segno
    ~wordno:regs.Hw.Registers.ipr_wordno fault

(* A Recovery span brackets an injected fault from delivery to the
   kernel's recovery decision. *)
let open_recovery_span m =
  if Trace.Span.enabled m.Machine.spans then begin
    let regs = m.Machine.regs in
    let ring = Rings.Ring.to_int regs.Hw.Registers.ipr_ring in
    Trace.Span.open_span m.Machine.spans ~kind:Trace.Event.Recovery
      ~from_ring:ring ~to_ring:ring ~segno:regs.Hw.Registers.ipr_segno
      ~wordno:regs.Hw.Registers.ipr_wordno
      ~cycles:(Trace.Counters.cycles m.Machine.counters)
  end

(* Between instructions, after one that continues.  The countdowns are
   plain integers with the {!Machine.disarmed} sentinel, so a running
   timer ticks without allocating. *)
let between_instructions m =
  if m.Machine.inhibit then
    (* Interrupts are inhibited between a trap and its RTRAP: the
       timer and channel completions wait. *)
    Running
  else
    (* Injected faults are asynchronous, like the timer and channel
       completions: they fire between instructions and honour the same
       inhibit discipline (the poll only runs on this uninhibited
       branch, so a fault due during a handler waits for RTRAP). *)
    match Machine.poll_injection m with
    | Some fault ->
        open_recovery_span m;
        interrupt m fault
    | None -> (
        (* The arena's billing ceiling is asynchronous in the same
           sense: it derails the stream between instructions, so a
           quarantined tenant's saved state sits at an instruction
           boundary.  Detached ([None], the default) it costs one
           option test per step. *)
        match m.Machine.cycle_limit with
        | Some limit when Trace.Counters.cycles m.Machine.counters >= limit ->
            m.Machine.cycle_limit <- None;
            interrupt m
              (Rings.Fault.Quota_exhausted { resource = "cycles"; limit })
        | _ ->
            (* Channel I/O completes between instructions. *)
            let io = m.Machine.io_countdown in
            if io > 1 then m.Machine.io_countdown <- io - 1;
            if m.Machine.io_countdown = 1 then begin
              m.Machine.io_countdown <- Machine.disarmed;
              (* An injected channel failure surfaces at completion
                 time: the request stays posted so the supervisor can
                 retry the transfer. *)
              let fault =
                if m.Machine.io_fail_pending then begin
                  m.Machine.io_fail_pending <- false;
                  open_recovery_span m;
                  Rings.Fault.Io_error
                end
                else Rings.Fault.Io_completion
              in
              interrupt m fault
            end
            else
              (* The interval timer ticks once per retired instruction
                 and fires between instructions, so the saved state
                 addresses the next one. *)
              let n = m.Machine.timer in
              if n > 1 then begin
                m.Machine.timer <- n - 1;
                Running
              end
              else if n = Machine.disarmed then Running
              else begin
                m.Machine.timer <- Machine.disarmed;
                interrupt m Rings.Fault.Timer_runout
              end)

let step_unprofiled m =
  if m.Machine.halted then Halted
  else begin
    let regs = m.Machine.regs in
    let ring = regs.Hw.Registers.ipr_ring
    and segno = regs.Hw.Registers.ipr_segno
    and wordno = regs.Hw.Registers.ipr_wordno in
    match fetch m with
    | Error fault -> trap m ~ring ~segno ~wordno fault
    | Ok instr -> (
        Trace.Counters.bump_instructions m.Machine.counters;
        Trace.Counters.charge m.Machine.counters Hw.Costs.instruction_overhead;
        (* All event construction sits behind the enabled check, and
           the enabled path is a few unboxed stores — no disassembly,
           no variant: the text is re-decoded lazily at export from the
           segment image (Machine registers the resolver). *)
        if Trace.Event.enabled m.Machine.log then
          Trace.Event.record_instruction m.Machine.log
            ~ring:(Rings.Ring.to_int ring) ~segno ~wordno;
        (* Advance IPR before executing so transfers and TSX see the
           address of the next sequential instruction. *)
        Hw.Registers.advance_ipr regs;
        match Eff_addr.form m instr with
        | Error fault -> trap m ~ring ~segno ~wordno fault
        | Ok () -> (
            match Exec.perform m instr with
            | Ok Exec.Continue -> between_instructions m
            | Ok Exec.Halt ->
                m.Machine.halted <- true;
                Halted
            | Error fault -> trap m ~ring ~segno ~wordno fault))
  end

(* Profile attribution wraps the whole step so the cycle delta covers
   everything the instruction caused — address formation, execution,
   and any trap-entry cost — attributed to the ring and segment the
   instruction was fetched from.  Disabled, the wrapper is one bool
   test; enabled, it allocates nothing. *)
let step m =
  if not (Trace.Profile.enabled m.Machine.profile) then step_unprofiled m
  else begin
    let regs = m.Machine.regs in
    let ring = regs.Hw.Registers.ipr_ring
    and segno = regs.Hw.Registers.ipr_segno in
    let c0 = Trace.Counters.cycles m.Machine.counters in
    let i0 = Trace.Counters.instructions m.Machine.counters in
    let outcome = step_unprofiled m in
    let dc = Trace.Counters.cycles m.Machine.counters - c0 in
    let di = Trace.Counters.instructions m.Machine.counters - i0 in
    if dc <> 0 || di <> 0 then
      Trace.Profile.attribute m.Machine.profile
        ~ring:(Rings.Ring.to_int ring) ~segno ~cycles:dc ~instructions:di;
    outcome
  end

let run ?(max_instructions = 1_000_000) m =
  let rec loop n =
    if n = 0 then Running
    else
      match step m with Running -> loop (n - 1) | other -> other
  in
  loop max_instructions
