let ( let* ) = Result.bind

(* [action] is a thunk so the formatted string is only built when the
   event log is enabled — crossings are the 645 hot path. *)
let gatekeeper_event p action =
  Trace.Counters.(
    incr p.Process.machine.Isa.Machine.counters gatekeeper_entries);
  let log = p.Process.machine.Isa.Machine.log in
  if Trace.Event.enabled log then
    Trace.Event.record_gatekeeper log ~action:(action ())

(* Count the caller's arguments and charge the software validation of
   each pointer — on the 645 the called ring cannot trust the hardware
   to validate cross-ring argument references, so the crossing code
   must check the whole list. *)
let validate_arguments p (caller_state : Hw.Registers.t) =
  let counters = p.Process.machine.Isa.Machine.counters in
  let pr2 = Hw.Registers.get_pr caller_state Hw.Registers.pr_args in
  let count =
    match Process.kread p pr2.Hw.Registers.addr with
    | Ok w when w >= 0 && w <= 32 -> w
    | Ok _ | Error _ -> 0
  in
  for i = 1 to count do
    ignore (Process.kread p (Hw.Addr.offset pr2.Hw.Registers.addr i));
    Trace.Counters.charge counters Costs.per_argument_validation
  done

let downward_call p ~(saved : Hw.Registers.t) ~new_ring ~target ~crossing =
  let m = p.Process.machine in
  let regs = m.Isa.Machine.regs in
  validate_arguments p saved;
  Process.push_crossing p
    {
      Process.kind = Process.Inward;
      saved;
      caller_ring = saved.Hw.Registers.ipr_ring;
      callee_ring = new_ring;
      copy_back = [];
    };
  Hw.Registers.restore regs ~from:saved;
  Process.switch_descriptor_segment p new_ring;
  Hw.Registers.set_ipr regs { Hw.Registers.ring = new_ring; addr = target };
  Hw.Registers.set_pr regs 0
    {
      Hw.Registers.ring = new_ring;
      addr = Hw.Addr.v ~segno:(Process.stack_segno_for p new_ring) ~wordno:0;
    };
  (match crossing with
  | Rings.Call.Downward ->
      Trace.Counters.(incr m.Isa.Machine.counters calls_downward)
  | Rings.Call.Same_ring ->
      Trace.Counters.(incr m.Isa.Machine.counters calls_same_ring));
  if Trace.Span.enabled m.Isa.Machine.spans then
    Trace.Span.open_span m.Isa.Machine.spans
      ~kind:
        (match crossing with
        | Rings.Call.Downward -> Trace.Event.Downward
        | Rings.Call.Same_ring -> Trace.Event.Same_ring)
      ~from_ring:
        (Rings.Ring.to_int saved.Hw.Registers.ipr_ring)
      ~to_ring:(Rings.Ring.to_int new_ring)
      ~segno:target.Hw.Addr.segno ~wordno:target.Hw.Addr.wordno
      ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters);
  m.Isa.Machine.saved <- None;
  gatekeeper_event p (fun () ->
      Format.asprintf "downward call to %a in %a" Hw.Addr.pp target
        Rings.Ring.pp new_ring);
  Ok ()

let upward_return p ~(saved : Hw.Registers.t) ~target =
  let m = p.Process.machine in
  let regs = m.Isa.Machine.regs in
  match Process.pop_crossing p with
  | None -> Error "cross-ring return with no crossing outstanding"
  | Some { Process.kind = Process.Outward; _ } ->
      Error "cross-ring return while an outward crossing was open"
  | Some
      {
        Process.kind = Process.Inward;
        saved = at_call;
        caller_ring;
        callee_ring;
        _;
      } ->
      let* access =
        match Hashtbl.find_opt p.Process.ring_data target.Hw.Addr.segno with
        | Some a -> Ok a
        | None -> Error "return target segment unknown"
      in
      (* The return target must be executable in the caller's ring. *)
      let* () =
        match Rings.Policy.validate_fetch access ~ring:caller_ring with
        | Ok () -> Ok ()
        | Error f ->
            Error
              (Printf.sprintf "illegal return target: %s"
                 (Rings.Fault.to_string f))
      in
      (* "The intervening software verifies the restored stack pointer
         register value when performing the downward return" — here,
         symmetrically, the upward return verifies that the callee
         restored the caller's PR6 before returning. *)
      let restored = Hw.Registers.get_pr saved Hw.Registers.pr_stack in
      let expected = Hw.Registers.get_pr at_call Hw.Registers.pr_stack in
      let* () =
        if Hw.Addr.equal restored.Hw.Registers.addr expected.Hw.Registers.addr
        then Ok ()
        else Error "restored stack pointer does not match the caller's"
      in
      (* Keep the callee's register values (A/Q carry results), adopt
         the caller's ring. *)
      Hw.Registers.restore regs ~from:saved;
      Process.switch_descriptor_segment p caller_ring;
      Hw.Registers.set_ipr regs
        { Hw.Registers.ring = caller_ring; addr = target };
      Hw.Registers.maximize_pr_rings regs caller_ring;
      Trace.Counters.(incr m.Isa.Machine.counters returns_upward);
      if Trace.Span.enabled m.Isa.Machine.spans then
        (* The popped crossing tells us which kind of span the
           matching downward_call opened. *)
        Trace.Span.close_span
          ~kind:
            (if Rings.Ring.equal caller_ring callee_ring then
               Trace.Event.Same_ring
             else Trace.Event.Downward)
          m.Isa.Machine.spans
          ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters);
      m.Isa.Machine.saved <- None;
      gatekeeper_event p (fun () ->
          Format.asprintf "upward return to %a in %a" Hw.Addr.pp target
            Rings.Ring.pp caller_ring);
      Ok ()

let handle p ~segno ~wordno =
  let m = p.Process.machine in
  let counters = m.Isa.Machine.counters in
  Trace.Counters.charge counters Costs.gatekeeper_dispatch;
  let* saved =
    match m.Isa.Machine.saved with
    | Some s -> Ok s.Isa.Machine.regs
    | None -> Error "cross-ring trap without saved state"
  in
  let* instr =
    let* word =
      Process.kread p (Hw.Registers.ipr saved).Hw.Registers.addr
    in
    match Isa.Instr.decode word with
    | Ok i -> Ok i
    | Error _ -> Error "cross-ring trap at an undecodable instruction"
  in
  let target = Hw.Addr.v ~segno ~wordno in
  let exec = saved.Hw.Registers.ipr_ring in
  match instr.Isa.Instr.opcode with
  | Isa.Opcode.RETN -> upward_return p ~saved ~target
  | Isa.Opcode.CALL -> (
      Trace.Counters.charge counters Costs.gate_validation;
      let* access =
        match Hashtbl.find_opt p.Process.ring_data segno with
        | Some a -> Ok a
        | None -> Error (Printf.sprintf "call into unknown segment %d" segno)
      in
      match
        Rings.Call.validate access ~exec
          ~effective:(Rings.Effective_ring.start exec) ~segno ~wordno
          ~same_segment:false
      with
      | Ok { Rings.Call.new_ring; crossing; _ } ->
          downward_call p ~saved ~new_ring ~target ~crossing
      | Error (Rings.Fault.Upward_call { to_ring; _ }) ->
          Trace.Counters.(incr counters calls_upward);
          Trace.Counters.charge counters Costs.descriptor_segment_switch;
          Outward.enter_upward p ~caller_state:saved ~to_ring ~target
      | Error f ->
          Error
            (Printf.sprintf "illegal ring crossing: %s"
               (Rings.Fault.to_string f)))
  | _ -> Error "cross-ring trap at an instruction that cannot cross rings"
