let set_stack_base_pr m ~new_ring ~stack_segno =
  Hw.Registers.set_pr_at m.Machine.regs 0 ~ring:new_ring ~segno:stack_segno
    ~wordno:0

(* Event construction is gated so the disabled path allocates
   nothing — CALL/RETURN are the crossing workloads' hot path. *)
let record_call m ~crossing ~from_ring ~to_ring (addr : Hw.Addr.t) =
  if Trace.Event.enabled m.Machine.log then
    Trace.Event.record_call m.Machine.log ~crossing
      ~from_ring:(Rings.Ring.to_int from_ring)
      ~to_ring:(Rings.Ring.to_int to_ring)
      ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno;
  if Trace.Span.enabled m.Machine.spans then
    Trace.Span.open_span m.Machine.spans ~kind:crossing
      ~from_ring:(Rings.Ring.to_int from_ring)
      ~to_ring:(Rings.Ring.to_int to_ring)
      ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno
      ~cycles:(Trace.Counters.cycles m.Machine.counters)

let record_return m ~crossing ~from_ring ~to_ring (addr : Hw.Addr.t) =
  if Trace.Event.enabled m.Machine.log then
    Trace.Event.record_return m.Machine.log ~crossing
      ~from_ring:(Rings.Ring.to_int from_ring)
      ~to_ring:(Rings.Ring.to_int to_ring)
      ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno;
  if Trace.Span.enabled m.Machine.spans then
    (* A same-ring return undoes a same-ring call; an upward return
       undoes a downward call.  Closing by expected kind keeps the
       intermediate upward return of the outward-return mechanism from
       ending the enclosing outward span.  Each branch passes a
       constant kind, so the optional argument allocates nothing. *)
    let cycles = Trace.Counters.cycles m.Machine.counters in
    match crossing with
    | Trace.Event.Same_ring ->
        Trace.Span.close_span ~kind:Trace.Event.Same_ring m.Machine.spans
          ~cycles
    | Trace.Event.Upward | Trace.Event.Downward ->
        Trace.Span.close_span ~kind:Trace.Event.Downward m.Machine.spans
          ~cycles
    (* Recovery spans are opened and closed by the kernel's fault
       path, never by a RETURN instruction. *)
    | Trace.Event.Recovery ->
        Trace.Span.close_span ~kind:Trace.Event.Recovery m.Machine.spans
          ~cycles

let hardware_call m ~effective ~(addr : Hw.Addr.t) =
  let regs = m.Machine.regs in
  let exec = regs.Hw.Registers.ipr_ring in
  match Machine.fetch_sdw m ~segno:addr.Hw.Addr.segno with
  | Error _ as e -> e
  | Ok sdw -> (
      let same_segment =
        addr.Hw.Addr.segno = regs.Hw.Registers.ipr_segno
      in
      match
        Rings.Call.validate ~gate_on_same_ring:m.Machine.gate_on_same_ring
          sdw.Hw.Sdw.access ~exec ~effective ~segno:addr.Hw.Addr.segno
          ~wordno:addr.Hw.Addr.wordno ~same_segment
      with
      | Error (Rings.Fault.Upward_call _ as f) ->
          Trace.Counters.bump_calls_upward m.Machine.counters;
          Error f
      | Error _ as e -> e
      | Ok { Rings.Call.new_ring; crossing; via_gate = _ } -> (
          match Hw.Descriptor.translate sdw ~segno:addr.Hw.Addr.segno
                  ~wordno:addr.Hw.Addr.wordno
          with
          | Error _ as e -> e
          | Ok _abs ->
              let ring_changed = not (Rings.Ring.equal new_ring exec) in
              let stack_segno =
                Rings.Stack_rule.stack_segno m.Machine.stack_rule
                  ~dbr_stack_base:
                    regs.Hw.Registers.dbr.Hw.Registers.stack_base
                  ~current_stack_segno:
                    (Hw.Registers.get_pr regs Hw.Registers.pr_stack)
                      .Hw.Registers.addr
                      .Hw.Addr.segno
                  ~ring_changed ~new_ring
              in
              set_stack_base_pr m ~new_ring ~stack_segno;
              (match crossing with
              | Rings.Call.Same_ring ->
                  Trace.Counters.bump_calls_same_ring m.Machine.counters;
                  record_call m ~crossing:Trace.Event.Same_ring
                    ~from_ring:exec ~to_ring:new_ring addr
              | Rings.Call.Downward ->
                  Trace.Counters.bump_calls_downward m.Machine.counters;
                  record_call m ~crossing:Trace.Event.Downward
                    ~from_ring:exec ~to_ring:new_ring addr);
              Hw.Registers.set_ipr_at regs ~ring:new_ring
                ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno;
              Ok ()))

let hardware_retn m ~effective ~(addr : Hw.Addr.t) =
  let regs = m.Machine.regs in
  let exec = regs.Hw.Registers.ipr_ring in
  match Machine.fetch_sdw m ~segno:addr.Hw.Addr.segno with
  | Error _ as e -> e
  | Ok sdw -> (
      match Rings.Return_op.validate sdw.Hw.Sdw.access ~exec ~effective with
      | Error _ as e -> e
      | Ok { Rings.Return_op.new_ring; crossing; maximize_pr_rings } -> (
          match Hw.Descriptor.translate sdw ~segno:addr.Hw.Addr.segno
                  ~wordno:addr.Hw.Addr.wordno
          with
          | Error _ as e -> e
          | Ok _abs ->
              if maximize_pr_rings then
                Hw.Registers.maximize_pr_rings regs new_ring;
              (match crossing with
              | Rings.Return_op.Same_ring ->
                  Trace.Counters.bump_returns_same_ring m.Machine.counters;
                  record_return m ~crossing:Trace.Event.Same_ring
                    ~from_ring:exec ~to_ring:new_ring addr
              | Rings.Return_op.Upward ->
                  Trace.Counters.bump_returns_upward m.Machine.counters;
                  record_return m ~crossing:Trace.Event.Upward
                    ~from_ring:exec ~to_ring:new_ring addr);
              Hw.Registers.set_ipr_at regs ~ring:new_ring
                ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno;
              Ok ()))

(* Capability mode: the same domain switch the hardware performs —
   identical admit/refuse decisions, ring changes, stack discipline,
   counters and spans — but the crossing mechanism is sealed-
   capability transfer.  A downward CALL unseals the target's entry
   capability (the gate word reread as a sealed entry) and seals the
   caller's continuation under the caller's domain, pushing it on the
   machine's capability stack; the matching upward RETURN unseals it.
   The seal/unseal work is charged explicitly ([Hw.Costs.cap_seal],
   [cap_unseal]) — a handful of cycles against the 645's trap round
   trip, which is the headline of the backends bench.  Refusals are
   the hardware's, renamed into capability vocabulary by
   {!Rings.Backend.cap_fault_of}; the upward-call fault passes
   through verbatim so the kernel's outward-call emulation engages
   unchanged. *)
let capability_call m ~effective ~(addr : Hw.Addr.t) =
  let regs = m.Machine.regs in
  let exec = regs.Hw.Registers.ipr_ring in
  match Machine.fetch_sdw m ~segno:addr.Hw.Addr.segno with
  | Error _ as e -> e
  | Ok sdw -> (
      let same_segment =
        addr.Hw.Addr.segno = regs.Hw.Registers.ipr_segno
      in
      match
        Rings.Call.validate ~gate_on_same_ring:m.Machine.gate_on_same_ring
          sdw.Hw.Sdw.access ~exec ~effective ~segno:addr.Hw.Addr.segno
          ~wordno:addr.Hw.Addr.wordno ~same_segment
      with
      | Error (Rings.Fault.Upward_call _ as f) ->
          Trace.Counters.bump_calls_upward m.Machine.counters;
          Error f
      | Error f -> Error (Rings.Backend.cap_fault_of f)
      | Ok { Rings.Call.new_ring; crossing; via_gate = _ } -> (
          match Hw.Descriptor.translate sdw ~segno:addr.Hw.Addr.segno
                  ~wordno:addr.Hw.Addr.wordno
          with
          | Error _ as e -> e
          | Ok _abs ->
              let ring_changed = not (Rings.Ring.equal new_ring exec) in
              let stack_segno =
                Rings.Stack_rule.stack_segno m.Machine.stack_rule
                  ~dbr_stack_base:
                    regs.Hw.Registers.dbr.Hw.Registers.stack_base
                  ~current_stack_segno:
                    (Hw.Registers.get_pr regs Hw.Registers.pr_stack)
                      .Hw.Registers.addr
                      .Hw.Addr.segno
                  ~ring_changed ~new_ring
              in
              set_stack_base_pr m ~new_ring ~stack_segno;
              (match crossing with
              | Rings.Call.Same_ring ->
                  Trace.Counters.bump_calls_same_ring m.Machine.counters;
                  record_call m ~crossing:Trace.Event.Same_ring
                    ~from_ring:exec ~to_ring:new_ring addr
              | Rings.Call.Downward ->
                  (* Unseal the entry, seal the continuation.  IPR is
                     already advanced: it holds the return point. *)
                  Trace.Counters.charge m.Machine.counters
                    (Hw.Costs.cap_unseal + Hw.Costs.cap_seal);
                  m.Machine.cap_stack <-
                    Cap.Capability.seal_return
                      ~otype:(Rings.Ring.to_int exec)
                      ~segno:regs.Hw.Registers.ipr_segno
                      ~wordno:regs.Hw.Registers.ipr_wordno
                    :: m.Machine.cap_stack;
                  Trace.Counters.bump_calls_downward m.Machine.counters;
                  record_call m ~crossing:Trace.Event.Downward
                    ~from_ring:exec ~to_ring:new_ring addr);
              Hw.Registers.set_ipr_at regs ~ring:new_ring
                ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno;
              Ok ()))

let capability_retn m ~effective ~(addr : Hw.Addr.t) =
  let regs = m.Machine.regs in
  let exec = regs.Hw.Registers.ipr_ring in
  match Machine.fetch_sdw m ~segno:addr.Hw.Addr.segno with
  | Error _ as e -> e
  | Ok sdw -> (
      match Rings.Return_op.validate sdw.Hw.Sdw.access ~exec ~effective with
      | Error f -> Error (Rings.Backend.cap_fault_of f)
      | Ok { Rings.Return_op.new_ring; crossing; maximize_pr_rings } -> (
          match Hw.Descriptor.translate sdw ~segno:addr.Hw.Addr.segno
                  ~wordno:addr.Hw.Addr.wordno
          with
          | Error _ as e -> e
          | Ok _abs ->
              if maximize_pr_rings then
                Hw.Registers.maximize_pr_rings regs new_ring;
              (match crossing with
              | Rings.Return_op.Same_ring ->
                  Trace.Counters.bump_returns_same_ring m.Machine.counters;
                  record_return m ~crossing:Trace.Event.Same_ring
                    ~from_ring:exec ~to_ring:new_ring addr
              | Rings.Return_op.Upward ->
                  (* Unseal the sealed return.  The pop is lenient:
                     the outward-return trampoline performs an upward
                     RETN with no matching hardware CALL, so a top
                     entry sealed under a different domain stays. *)
                  Trace.Counters.charge m.Machine.counters
                    Hw.Costs.cap_unseal;
                  (match m.Machine.cap_stack with
                  | sr :: rest
                    when Cap.Capability.unseal_return sr
                           ~otype:(Rings.Ring.to_int new_ring)
                         <> None ->
                      m.Machine.cap_stack <- rest
                  | _ -> ());
                  Trace.Counters.bump_returns_upward m.Machine.counters;
                  record_return m ~crossing:Trace.Event.Upward
                    ~from_ring:exec ~to_ring:new_ring addr);
              Hw.Registers.set_ipr_at regs ~ring:new_ring
                ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno;
              Ok ()))

(* 645 mode: CALL/RETURN are plain transfers; a target that is not
   executable under the current descriptor segment faults to the
   software gatekeeper, which implements the ring switch. *)
let software_transfer m ~is_call ~(addr : Hw.Addr.t) =
  let regs = m.Machine.regs in
  let ring = regs.Hw.Registers.ipr_ring in
  match Machine.resolve m addr with
  | Error (Rings.Fault.Missing_segment _) | Error (Rings.Fault.Bound_violation _)
    ->
      (* In the 645 baseline a call out of the virtual memory visible
         to this ring is indistinguishable from a gate reference: the
         gatekeeper sorts it out. *)
      Error
        (Rings.Fault.Cross_ring_transfer
           { segno = addr.Hw.Addr.segno; wordno = addr.Hw.Addr.wordno })
  | Error _ as e -> e
  | Ok (sdw, _abs) -> (
      match Machine.validate_fetch m sdw ~ring with
      | Error _ ->
          Error
            (Rings.Fault.Cross_ring_transfer
               { segno = addr.Hw.Addr.segno; wordno = addr.Hw.Addr.wordno })
      | Ok () ->
          if is_call then begin
            Trace.Counters.bump_calls_same_ring m.Machine.counters;
            let stack_segno =
              (Hw.Registers.get_pr regs Hw.Registers.pr_stack)
                .Hw.Registers.addr
                .Hw.Addr.segno
            in
            set_stack_base_pr m ~new_ring:ring ~stack_segno;
            record_call m ~crossing:Trace.Event.Same_ring ~from_ring:ring
              ~to_ring:ring addr
          end
          else begin
            Trace.Counters.bump_returns_same_ring m.Machine.counters;
            record_return m ~crossing:Trace.Event.Same_ring ~from_ring:ring
              ~to_ring:ring addr
          end;
          Hw.Registers.set_ipr_at regs ~ring
            ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno;
          Ok ())

let call m ~effective ~addr =
  match m.Machine.mode with
  | Machine.Ring_hardware -> hardware_call m ~effective ~addr
  | Machine.Ring_software_645 -> software_transfer m ~is_call:true ~addr
  | Machine.Ring_capability -> capability_call m ~effective ~addr

let retn m ~effective ~addr =
  match m.Machine.mode with
  | Machine.Ring_hardware -> hardware_retn m ~effective ~addr
  | Machine.Ring_software_645 -> software_transfer m ~is_call:false ~addr
  | Machine.Ring_capability -> capability_retn m ~effective ~addr
