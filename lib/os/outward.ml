let comm_arg_base = 16

(* Per nesting level of outward calls, a slice of the communication
   segment for the copied argument list. *)
let area_words = 128
let max_args = 32

let ( let* ) = Result.bind

(* [action] is a thunk so the formatted string is only built when the
   event log is enabled — as in {!Softrings}. *)
let gatekeeper_event p action =
  Trace.Counters.(
    incr p.Process.machine.Isa.Machine.counters gatekeeper_entries);
  let log = p.Process.machine.Isa.Machine.log in
  if Trace.Event.enabled log then
    Trace.Event.record_gatekeeper log ~action:(action ())

(* The gatekeeper reads and writes on the caller's behalf, so it must
   hold itself to the caller's capabilities — the software equivalent
   of the effective-ring validation the hardware applies, and the
   check that keeps the supervisor from becoming a confused deputy
   (e.g. a ring-1 caller naming a ring-0 secret as an "argument" and
   having the kernel copy it into the all-rings-readable communication
   segment). *)
let caller_may p ~caller_ring ~write addr =
  Process.ring_may p ~ring:caller_ring ~write addr

(* Copy the caller's argument list (PR2 convention: word 0 = count,
   words 1..N = ITS words) into the communication segment slice, and
   return the new list's word number plus the copy-back pairs. *)
let copy_arguments p ~caller_state ~caller_ring ~area =
  let counters = p.Process.machine.Isa.Machine.counters in
  let pr2 =
    Hw.Registers.get_pr caller_state Hw.Registers.pr_args
  in
  let list_addr = pr2.Hw.Registers.addr in
  let count =
    match Process.kread p list_addr with
    | Ok w
      when w >= 0 && w <= max_args
           && caller_may p ~caller_ring ~write:false list_addr ->
        w
    | Ok _ | Error _ -> 0
  in
  let comm_addr wordno = Hw.Addr.v ~segno:p.Process.comm_segno ~wordno in
  let* () = Process.kwrite p (comm_addr area) count in
  let rec copy i copy_back =
    if i > count then Ok copy_back
    else
      let* its_word = Process.kread p (Hw.Addr.offset list_addr i) in
      let ind = Isa.Indword.decode its_word in
      let* () =
        if caller_may p ~caller_ring ~write:false ind.Isa.Indword.addr then
          Ok ()
        else
          Error
            (Format.asprintf
               "argument %d at %a is not readable from the caller's ring" i
               Hw.Addr.pp ind.Isa.Indword.addr)
      in
      let* value = Process.kread p ind.Isa.Indword.addr in
      Trace.Counters.charge counters Costs.per_argument_validation;
      let value_wordno = area + count + i in
      let* () = Process.kwrite p (comm_addr value_wordno) value in
      let* () =
        Process.kwrite p
          (comm_addr (area + i))
          (Isa.Indword.encode
             (Isa.Indword.v
                ~ring:(Rings.Ring.to_int caller_ring)
                ~segno:p.Process.comm_segno ~wordno:value_wordno ()))
      in
      (* Only arguments the caller itself could write are copied
         back; the rest are effectively passed by value. *)
      let copy_back =
        if caller_may p ~caller_ring ~write:true ind.Isa.Indword.addr then
          (comm_addr value_wordno, ind.Isa.Indword.addr) :: copy_back
        else copy_back
      in
      copy (i + 1) copy_back
  in
  let* copy_back = copy 1 [] in
  Ok copy_back

let enter_upward p ~caller_state ~to_ring ~target =
  let m = p.Process.machine in
  let regs = m.Isa.Machine.regs in
  Trace.Counters.charge m.Isa.Machine.counters Costs.outward_setup;
  gatekeeper_event p (fun () ->
      Format.asprintf "upward call to %a in %a" Hw.Addr.pp target Rings.Ring.pp
        to_ring);
  let caller_ring =
    caller_state.Hw.Registers.ipr_ring
  in
  (* An upward (outward) call never completes as a single CALL
     instruction: the hardware faults and the gatekeeper performs the
     transfer here.  Its span opens at gatekeeper entry and is closed
     by the outward-return gate, so the measured latency covers the
     whole supervised crossing. *)
  if Trace.Span.enabled m.Isa.Machine.spans then
    Trace.Span.open_span m.Isa.Machine.spans ~kind:Trace.Event.Upward
      ~from_ring:(Rings.Ring.to_int caller_ring)
      ~to_ring:(Rings.Ring.to_int to_ring)
      ~segno:target.Hw.Addr.segno ~wordno:target.Hw.Addr.wordno
      ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters);
  let depth = List.length p.Process.crossings in
  let area = comm_arg_base + (depth * area_words) in
  let* () =
    match Hashtbl.find_opt p.Process.placement p.Process.comm_segno with
    | Some (Process.Direct { bound; _ }) when area + area_words <= bound ->
        Ok ()
    | _ -> Error "outward call nesting exceeds communication segment"
  in
  let* copy_back = copy_arguments p ~caller_state ~caller_ring ~area in
  Process.push_crossing p
    {
      Process.kind = Process.Outward;
      saved = caller_state;
      caller_ring;
      callee_ring = to_ring;
      copy_back;
    };
  Hw.Registers.restore regs ~from:caller_state;
  (match m.Isa.Machine.mode with
  | Isa.Machine.Ring_hardware | Isa.Machine.Ring_capability -> ()
  | Isa.Machine.Ring_software_645 ->
      (* The descriptor-switch cost was charged by the 645 gatekeeper;
         the restore above reinstated the caller's DBR, so just point
         it at the callee ring's descriptor segment. *)
      regs.Hw.Registers.dbr <-
        p.Process.descsegs.(Rings.Ring.to_int to_ring));
  (* The transition raises the ring: maintain PRn.RING >= IPR.RING as
     an upward RETURN would (Fig. 9). *)
  Hw.Registers.maximize_pr_rings regs to_ring;
  Hw.Registers.set_ipr regs { Hw.Registers.ring = to_ring; addr = target };
  Hw.Registers.set_pr regs 0
    {
      Hw.Registers.ring = to_ring;
      addr = Hw.Addr.v ~segno:(Process.stack_segno_for p to_ring) ~wordno:0;
    };
  Hw.Registers.set_pr regs Hw.Registers.pr_args
    {
      Hw.Registers.ring = to_ring;
      addr = Hw.Addr.v ~segno:p.Process.comm_segno ~wordno:area;
    };
  Hw.Registers.set_pr regs Hw.Registers.pr_stack
    {
      Hw.Registers.ring = to_ring;
      addr = Hw.Addr.v ~segno:p.Process.comm_segno ~wordno:0;
    };
  m.Isa.Machine.saved <- None;
  Ok ()

let handle_upward_call p fault =
  let m = p.Process.machine in
  Trace.Counters.charge m.Isa.Machine.counters Costs.gatekeeper_dispatch;
  match (fault, m.Isa.Machine.saved) with
  | Rings.Fault.Upward_call { to_ring; segno; wordno; _ }, Some saved ->
      enter_upward p ~caller_state:saved.Isa.Machine.regs ~to_ring
        ~target:(Hw.Addr.v ~segno ~wordno)
  | Rings.Fault.Upward_call _, None ->
      Error "upward-call trap without saved state"
  | _ -> Error "handle_upward_call: not an upward-call fault"

let handle_outward_return p =
  let m = p.Process.machine in
  let regs = m.Isa.Machine.regs in
  Trace.Counters.charge m.Isa.Machine.counters Costs.outward_return;
  gatekeeper_event p (fun () -> "outward return");
  m.Isa.Machine.saved <- None;
  match Process.pop_crossing p with
  | None -> Error "return gate entered with no outward call outstanding"
  | Some { Process.kind = Process.Inward; _ } ->
      Error "return gate entered while an inward crossing was open"
  | Some
      {
        Process.kind = Process.Outward;
        saved = caller;
        caller_ring;
        copy_back;
        _;
      } ->
      (* Return values cross the ring in A and Q. *)
      let ret_a = regs.Hw.Registers.a and ret_q = regs.Hw.Registers.q in
      List.iter
        (fun (comm_addr, orig_addr) ->
          match Process.kread p comm_addr with
          | Ok v -> ignore (Process.kwrite p orig_addr v)
          | Error _ -> ())
        copy_back;
      Process.switch_descriptor_segment p caller_ring;
      Hw.Registers.restore regs ~from:caller;
      regs.Hw.Registers.a <- ret_a;
      regs.Hw.Registers.q <- ret_q;
      (* Resume just past the trapped CALL instruction. *)
      Hw.Registers.set_ipr_at regs ~ring:caller_ring
        ~segno:caller.Hw.Registers.ipr_segno
        ~wordno:((caller.Hw.Registers.ipr_wordno + 1) land Hw.Addr.max_wordno);
      Trace.Counters.(incr m.Isa.Machine.counters returns_downward);
      if Trace.Span.enabled m.Isa.Machine.spans then
        Trace.Span.close_span ~kind:Trace.Event.Upward m.Isa.Machine.spans
          ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters);
      Ok ()
