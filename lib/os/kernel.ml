type exit =
  | Halted
  | Exited
  | Preempted
  | Blocked
  | Terminated of Rings.Fault.t
  | Gatekeeper_error of string
  | Out_of_budget
  | Quarantined of Rings.Fault.t

(* Close the Recovery span the CPU opened when it delivered an
   injected fault: the interval ends at the supervisor's recovery
   decision, whichever way it went. *)
let close_recovery m =
  if Trace.Span.enabled m.Isa.Machine.spans then
    Trace.Span.close_span ~kind:Trace.Event.Recovery m.Isa.Machine.spans
      ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters)

(* The two ends of a recovery decision: drop the disrupted computation
   and quarantine the process, or resume it where the fault struck. *)
let quarantine m fault =
  Trace.Counters.(incr m.Isa.Machine.counters quarantined);
  m.Isa.Machine.saved <- None;
  m.Isa.Machine.on_recovery fault;
  Error (Quarantined fault)

let resume m fault =
  Isa.Machine.restore_saved m;
  m.Isa.Machine.on_recovery fault;
  Ok ()

(* Injected damage the supervisor repaired is billed against the
   process's fault budget (the injection plan's; unlimited without an
   injector): past it the process is quarantined, within it the
   computation resumes. *)
let settle p fault =
  let m = p.Process.machine in
  let budget =
    match m.Isa.Machine.injector with
    | Some i -> (Hw.Inject.plan i).Hw.Inject.fault_budget
    | None -> max_int
  in
  if p.Process.fault_count > budget then quarantine m fault
  else begin
    Trace.Counters.(incr m.Isa.Machine.counters recovered);
    resume m fault
  end

let handle_fault_inner p fault : (unit, exit) result =
  (* The host-level supervisor has consumed the trap: release the
     hardware interrupt inhibit (the simulated-supervisor path instead
     holds it until RTRAP). *)
  p.Process.machine.Isa.Machine.inhibit <- false;
  let gatekeeper r =
    match r with
    | Ok () -> Ok ()
    | Error message -> Error (Gatekeeper_error message)
  in
  match fault with
  | Rings.Fault.Upward_call _ -> (
      match p.Process.machine.Isa.Machine.mode with
      | Isa.Machine.Ring_hardware | Isa.Machine.Ring_capability ->
          (* The capability backend passes the upward-call refusal
             through in hardware vocabulary precisely so this
             emulation engages unchanged. *)
          gatekeeper (Outward.handle_upward_call p fault)
      | Isa.Machine.Ring_software_645 ->
          Error
            (Gatekeeper_error
               "upward-call fault in 645 mode (hardware rings leaked)"))
  | Rings.Fault.Service_call { code } when code = Calling.svc_outward_return
    ->
      gatekeeper (Outward.handle_outward_return p)
  | Rings.Fault.Service_call { code } when code = Calling.svc_exit ->
      p.Process.machine.Isa.Machine.saved <- None;
      Error Exited
  | Rings.Fault.Service_call { code } when code = Calling.svc_add_segment ->
      gatekeeper (Services.add_segment p)
  | Rings.Fault.Service_call { code } when code = Calling.svc_cycle_count ->
      gatekeeper (Services.cycle_count p)
  | Rings.Fault.Service_call { code } when code = Calling.svc_yield ->
      (* The live registers already stand at the instruction after the
         MME: exactly the resume point. *)
      p.Process.machine.Isa.Machine.saved <- None;
      Error Preempted
  | Rings.Fault.Service_call { code } when code = Calling.svc_block ->
      p.Process.machine.Isa.Machine.saved <- None;
      if p.Process.machine.Isa.Machine.io_countdown = Isa.Machine.disarmed
      then
        (* Nothing to wait for: a plain yield. *)
        Error Preempted
      else Error Blocked
  | Rings.Fault.Io_completion -> (
      (* The supervisor performs any pending channel transfer, then
         resumes the disrupted computation. *)
      let m = p.Process.machine in
      (* A good completion ends any retry sequence. *)
      p.Process.io_attempts <- 0;
      let request = m.Isa.Machine.io_request in
      m.Isa.Machine.io_request <- None;
      match request with
      | None ->
          Trace.Event.record_gatekeeper m.Isa.Machine.log
            ~action:"I/O completion serviced";
          Isa.Machine.restore_saved m;
          Ok ()
      | Some r -> (
          match Io.complete p r with
          | Ok () ->
              Isa.Machine.restore_saved m;
              Ok ()
          | Error message -> Error (Gatekeeper_error message)))
  | Rings.Fault.Timer_runout ->
      (* The saved state already addresses the next instruction; keep
         the live registers (identical) and report the preemption. *)
      p.Process.machine.Isa.Machine.saved <- None;
      Error Preempted
  | Rings.Fault.Cross_ring_transfer { segno; wordno } ->
      gatekeeper (Softrings.handle p ~segno ~wordno)
  | Rings.Fault.Missing_page { segno; pageno } ->
      gatekeeper
        (match Process.handle_page_fault p ~segno ~pageno with
        | Ok () ->
            (* Resume the disrupted instruction. *)
            Isa.Machine.restore_saved p.Process.machine;
            Ok ()
        | Error _ as e -> e)
  | Rings.Fault.Parity_error { addr } ->
      (* Memory damage reported by the checking hardware.  Scrub the
         word back to its good copy, account the fault against the
         process's budget, and either resume the disrupted computation
         or quarantine the process.  Damage inside a descriptor
         segment or page table may already have been decoded into the
         simulator's host-side caches, so translation drops to
         uncached operation — the modeled accounting is unaffected. *)
      let m = p.Process.machine in
      let inj = m.Isa.Machine.injector in
      let repaired =
        match inj with
        | Some i -> Hw.Inject.scrub i ~mem:m.Isa.Machine.mem ~addr
        | None -> false
      in
      let in_descriptor =
        match inj with
        | Some i -> Hw.Inject.is_descriptor_addr i addr
        | None -> false
      in
      if repaired && in_descriptor then Isa.Machine.degrade m;
      Trace.Counters.charge m.Isa.Machine.counters Costs.parity_scrub;
      p.Process.fault_count <- p.Process.fault_count + 1;
      if Trace.Event.enabled m.Isa.Machine.log then
        Trace.Event.record_gatekeeper m.Isa.Machine.log
          ~action:
            (Printf.sprintf "parity at %08o %s" addr
               (if repaired then
                  if in_descriptor then "scrubbed (descriptor damage)"
                  else "scrubbed"
                else "transient, no repair needed"));
      close_recovery m;
      settle p fault
  | Rings.Fault.Io_error ->
      (* The channel reported a failed transfer.  The request is still
         posted (the CPU leaves it in place on an injected error):
         re-arm it with a deterministic exponential backoff up to the
         plan's retry limit, then give up and quarantine. *)
      let m = p.Process.machine in
      let counters = m.Isa.Machine.counters in
      let limit =
        match m.Isa.Machine.injector with
        | Some i -> (Hw.Inject.plan i).Hw.Inject.io_retry_limit
        | None -> 0
      in
      p.Process.io_attempts <- p.Process.io_attempts + 1;
      if p.Process.io_attempts <= limit && m.Isa.Machine.io_request <> None
      then begin
        Trace.Counters.(incr counters retried);
        Trace.Counters.charge counters Costs.io_retry_setup;
        let backoff = 8 lsl p.Process.io_attempts in
        m.Isa.Machine.io_countdown <- backoff;
        if Trace.Event.enabled m.Isa.Machine.log then
          Trace.Event.record_gatekeeper m.Isa.Machine.log
            ~action:
              (Printf.sprintf "channel error: retry %d re-armed, %d cycles"
                 p.Process.io_attempts backoff);
        close_recovery m;
        resume m fault
      end
      else begin
        Trace.Counters.(incr counters quarantined);
        close_recovery m;
        m.Isa.Machine.io_request <- None;
        m.Isa.Machine.io_countdown <- Isa.Machine.disarmed;
        m.Isa.Machine.saved <- None;
        m.Isa.Machine.on_recovery fault;
        Error (Quarantined Rings.Fault.Io_error)
      end
  | Rings.Fault.Cap_tag_violation { addr; segno } ->
      (* The capability backend refused a descriptor whose validity
         tags are gone — some store (in practice, an injected parity
         hit followed by the scrub, both of which clear tags) rewrote
         its words.  The kernel is the authority on what it installed:
         re-derive the SDW from its own segment tables and store it
         through the install path, which re-mints the tags.  Billed
         against the same per-process fault budget as parity damage,
         so a tenant whose descriptors keep getting hit still
         quarantines. *)
      let m = p.Process.machine in
      let repaired = Process.reinstall_sdw p ~segno in
      Trace.Counters.charge m.Isa.Machine.counters Costs.cap_retag;
      p.Process.fault_count <- p.Process.fault_count + 1;
      if Trace.Event.enabled m.Isa.Machine.log then
        Trace.Event.record_gatekeeper m.Isa.Machine.log
          ~action:
            (Printf.sprintf "capability tag violation at %08o seg %d %s" addr
               segno
               (if repaired then "descriptor reinstalled, tags re-minted"
                else "segment unknown"));
      close_recovery m;
      if repaired then settle p fault
      else begin
        m.Isa.Machine.saved <- None;
        m.Isa.Machine.on_recovery fault;
        Error (Terminated fault)
      end
  | Rings.Fault.Quota_exhausted _ ->
      (* A billing limit, not a machine failure: the arena policy armed
         the limit between instructions, so the interrupted stream ends
         at an instruction boundary.  Quarantine the tenant — never the
         machine — and let the dispatcher carry on with the rest. *)
      quarantine p.Process.machine fault
  | _ -> Error (Terminated fault)

(* Cycles the gatekeeper charges while servicing a fault happen
   outside any simulated instruction; with profiling on they are
   attributed to the kernel bucket rather than smeared over the
   faulting segment. *)
let handle_fault p fault : (unit, exit) result =
  let m = p.Process.machine in
  if not (Trace.Profile.enabled m.Isa.Machine.profile) then
    handle_fault_inner p fault
  else begin
    let c0 = Trace.Counters.cycles m.Isa.Machine.counters in
    let result = handle_fault_inner p fault in
    Trace.Profile.attribute_kernel m.Isa.Machine.profile
      ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters - c0);
    result
  end

let run ?(max_instructions = 1_000_000) p =
  let m = p.Process.machine in
  let counters = m.Isa.Machine.counters in
  let start = Trace.Counters.instructions counters in
  let rec loop () =
    if Trace.Counters.instructions counters - start >= max_instructions then
      Out_of_budget
    else
      match Isa.Cpu.step m with
      | Isa.Cpu.Running -> loop ()
      | Isa.Cpu.Halted -> Halted
      | Isa.Cpu.Faulted fault -> (
          match handle_fault p fault with
          | Ok () -> loop ()
          | Error exit -> exit)
  in
  loop ()

let pp_exit ppf = function
  | Halted -> Format.fprintf ppf "halted"
  | Exited -> Format.fprintf ppf "exited"
  | Preempted -> Format.fprintf ppf "preempted"
  | Blocked -> Format.fprintf ppf "blocked on I/O"
  | Terminated f -> Format.fprintf ppf "terminated: %a" Rings.Fault.pp f
  | Gatekeeper_error m -> Format.fprintf ppf "gatekeeper error: %s" m
  | Out_of_budget -> Format.fprintf ppf "out of budget"
  | Quarantined f -> Format.fprintf ppf "quarantined: %a" Rings.Fault.pp f
