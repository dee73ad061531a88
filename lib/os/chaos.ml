(* Security-under-fault campaigns.

   The protection claim under test: injected malfunction may cost
   throughput (retries, scrubbing, uncached operation) and may cost a
   process its life (quarantine), but it must never widen access.  The
   audit compares the hardware-visible protection state — the SDWs the
   address-translation path actually consults — against the kernel's
   authoritative tables, which the injector cannot reach. *)

type violation = { campaign : int; detail : string }

type report = {
  campaigns : int;
  seed : int;
  exits : (string * int) list;
  injected : int;
  retried : int;
  recovered : int;
  quarantined : int;
  degraded : int;
  violations : violation list;
  recovery_latency : Trace.Histogram.t;
}

(* {1 The invariant checker} *)

(* The SDW that [Process.install_sdw] would (re)write for this segment
   in descriptor segment [dbr_index]: full access fields in hardware
   mode, per-ring flag filtering in 645 mode. *)
let expected_sdw (p : Process.t) dbr_index ~paged ~base ~bound
    (access : Rings.Access.t) =
  match p.Process.machine.Isa.Machine.mode with
  | Isa.Machine.Ring_hardware | Isa.Machine.Ring_capability ->
      (* The capability backend derives its authority from the same
         full-fidelity SDW words; only the validity tags differ, and
         those are audited separately. *)
      Hw.Sdw.v ~paged ~base ~bound access
  | Isa.Machine.Ring_software_645 ->
      let b = access.Rings.Access.brackets in
      let ring = Rings.Ring.v dbr_index in
      let flags =
        Rings.Access.v
          ~read:
            (access.Rings.Access.read
            && Rings.Brackets.in_read_bracket b ring)
          ~write:
            (access.Rings.Access.write
            && Rings.Brackets.in_write_bracket b ring)
          ~execute:
            (access.Rings.Access.execute
            && Rings.Brackets.in_execute_bracket b ring)
          ~gates:access.Rings.Access.gates b
      in
      Hw.Sdw.v ~paged ~base ~bound flags

let audit_process ~pname (p : Process.t) note =
  let mem = p.Process.machine.Isa.Machine.mem in
  (* Every SDW the hardware can consult must match what the kernel's
     tables say it installed. *)
  let segnos =
    Hashtbl.fold (fun segno _ acc -> segno :: acc) p.Process.ring_data []
    |> List.sort compare
  in
  List.iter
    (fun segno ->
      let access = Hashtbl.find p.Process.ring_data segno in
      match Hashtbl.find_opt p.Process.placement segno with
      | None ->
          note
            (Printf.sprintf "%s: segment %d has access but no placement"
               pname segno)
      | Some placement ->
          let paged, base, bound =
            match placement with
            | Process.Direct { base; bound } -> (false, base, bound)
            | Process.Paged_at { pt_base; bound } -> (true, pt_base, bound)
          in
          Array.iteri
            (fun q dbr ->
              let expected = expected_sdw p q ~paged ~base ~bound access in
              match Hw.Descriptor.fetch_sdw_silent mem dbr ~segno with
              | Error f ->
                  note
                    (Format.asprintf
                       "%s: SDW %d (descseg %d) unreadable: %a" pname segno
                       q Rings.Fault.pp f)
              | Ok sdw ->
                  if not (Hw.Sdw.equal sdw expected) then
                    note
                      (Format.asprintf
                         "%s: SDW %d (descseg %d) drifted from the \
                          kernel's tables: %a, expected %a"
                         pname segno q Hw.Sdw.pp sdw Hw.Sdw.pp expected))
            p.Process.descsegs)
    segnos;
  (* The eight standard stacks: brackets must still end at the owning
     ring, or stack areas leak to less privileged rings. *)
  for r = 0 to Rings.Ring.count - 1 do
    match Hashtbl.find_opt p.Process.ring_data r with
    | None ->
        note
          (Printf.sprintf "%s: stack segment %d missing from kernel tables"
             pname r)
    | Some access ->
        let b = access.Rings.Access.brackets in
        if
          Rings.Ring.to_int (Rings.Brackets.write_bracket_top b) <> r
          || Rings.Ring.to_int (Rings.Brackets.read_bracket_top b) <> r
        then
          note
            (Format.asprintf "%s: stack segment %d brackets widened: %a"
               pname r Rings.Access.pp access)
  done

(* A live process's saved instruction pointer must sit inside the
   execute bracket of the segment it addresses — recovery must never
   resume a computation into code its ring cannot execute. *)
let audit_entry (e : System.entry) note =
  match e.System.status with
  | System.Done _ -> ()
  | System.Ready | System.Blocked -> (
      let p = e.System.process in
      let regs = e.System.saved_regs in
      let ring = regs.Hw.Registers.ipr_ring in
      let segno = regs.Hw.Registers.ipr_segno in
      match Hashtbl.find_opt p.Process.ring_data segno with
      | None ->
          note
            (Printf.sprintf "%s: IPR addresses unknown segment %d"
               e.System.pname segno)
      | Some access ->
          if
            not
              (access.Rings.Access.execute
              && Rings.Brackets.in_execute_bracket
                   access.Rings.Access.brackets ring)
          then
            note
              (Format.asprintf
                 "%s: IPR in ring %d outside the execute bracket of \
                  segment %d (%a)"
                 e.System.pname (Rings.Ring.to_int ring) segno
                 Rings.Access.pp access))

let check_invariants ~campaign:_ sys =
  let faults = ref [] in
  let note s = faults := s :: !faults in
  List.iter
    (fun (e : System.entry) ->
      audit_process ~pname:e.System.pname e.System.process note;
      audit_entry e note)
    (System.entries sys);
  List.rev !faults

(* Arena isolation: tenants share nothing, so every word a tenant's
   address translation can reach — direct segments, descriptor
   segments, page tables — must lie inside the memory region the
   dispatcher assigned it at spawn.  A placement straying into a
   co-tenant's region means that tenant's SDWs could read, write or
   call another tenant's memory: exactly the leak the 1971 rings are
   supposed to make impossible.  A segment the supervisor mapped in
   from its owner ([Process.mapped], a [?shared] spawn) names the
   owner's words on purpose and is exempt; arena tenants never share,
   so for them nothing is. *)
let check_cross_tenant sys =
  let faults = ref [] in
  let note s = faults := s :: !faults in
  let rw = System.region_words sys in
  List.iteri
    (fun i (e : System.entry) ->
      let lo = i * rw and hi = (i + 1) * rw in
      let p = e.System.process in
      let check what base len =
        if base < lo || base + len > hi then
          note
            (Printf.sprintf
               "%s: %s at [%d,%d) escapes its region [%d,%d) — reachable \
                from a co-tenant's ring context"
               e.System.pname what base (base + len) lo hi)
      in
      let segnos =
        Hashtbl.fold (fun segno pl acc -> (segno, pl) :: acc)
          p.Process.placement []
        |> List.sort compare
      in
      List.iter
        (fun (segno, pl) ->
          match pl with
          | Process.Direct _ when List.mem segno p.Process.mapped -> ()
          | Process.Direct { base; bound } ->
              check (Printf.sprintf "segment %d" segno) base bound
          | Process.Paged_at _ ->
              (* The page table is covered by [descriptor_ranges]
                 below; the pages live in the process's private
                 backing store, unreachable by any SDW. *)
              ())
        segnos;
      List.iter
        (fun (base, len) -> check "descriptor/page-table range" base len)
        (Process.descriptor_ranges p);
      (* Capability reading of the same isolation claim.  Under the
         capability backend a descriptor word only conveys authority
         while its validity tag stands (an untagged word faults on
         use, which is safe), so the audit walks every *tagged* SDW in
         the tenant's descriptor segment, re-derives the capability it
         would decode into, and demands its region stay inside the
         tenant's own: no live capability may span a co-tenant. *)
      let mem = p.Process.machine.Isa.Machine.mem in
      if Hw.Memory.tags_enabled mem then
        Array.iter
          (fun (dbr : Hw.Registers.dbr) ->
            for segno = 0 to dbr.Hw.Registers.bound - 1 do
              let a0 = dbr.Hw.Registers.base + (2 * segno) in
              if
                Hw.Memory.tagged mem a0
                && Hw.Memory.tagged mem (a0 + 1)
                && not (List.mem segno p.Process.mapped)
              then
                match Hw.Descriptor.fetch_sdw_silent mem dbr ~segno with
                | Error _ -> ()
                | Ok sdw ->
                    if not sdw.Hw.Sdw.paged then
                      let c =
                        Cap.Capability.of_access sdw.Hw.Sdw.access
                          ~ring:Rings.Ring.r0 ~base:sdw.Hw.Sdw.base
                          ~bound:sdw.Hw.Sdw.bound
                      in
                      if
                        c.Cap.Capability.base < lo
                        || c.Cap.Capability.base + c.Cap.Capability.bound
                           > hi
                      then
                        note
                          (Printf.sprintf
                             "%s: tagged capability for segment %d grants \
                              [%d,%d) outside its region [%d,%d)"
                             e.System.pname segno c.Cap.Capability.base
                             (c.Cap.Capability.base + c.Cap.Capability.bound)
                             lo hi)
            done)
          p.Process.descsegs)
    (System.entries sys);
  List.rev !faults

(* {1 The campaign workload} *)

(* Three processes stress three recovery paths at once: a ring-4
   caller repeatedly crossing into a ring-1 gated service (descriptor
   damage lands where it matters), a pure-computation worker (a
   bystander that quarantine must protect), and a ring-0 reader that
   polls its channel so completions — and injected channel errors —
   arrive while it runs. *)

(* Several rounds of transfer keep a channel operation in flight
   across most of the campaign, so io_error/io_stall rules land on a
   pending completion whenever they fire. *)
let polling_reader_source =
  "start:  lda =24\n\
  \        sta pr6|5          ; transfer rounds\n\
   round:  lda =0\n\
  \        sta st,*           ; clear the status word\n\
  \        siot ccw,*\n\
   wait:   lda st,*\n\
  \        tmi got            ; done flag set by the channel\n\
  \        tra wait\n\
   got:    lda pr6|5\n\
  \        sba =1\n\
  \        sta pr6|5\n\
  \        tnz round\n\
  \        lda st,*\n\
  \        ana mask\n\
  \        mme =2\n\
   ccw:    .its 0, buf$rdccw\n\
   st:     .its 0, buf$rdst\n\
   mask:   .word 131071\n"

let buf_source =
  "rdccw:  .its 0, data\n\
   rdst:   .word 8\n\
   data:   .zero 8\n"

let worker_source ~n =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta pr6|5\n\
     loop:   lda pr6|5\n\
    \        sba =1\n\
    \        sta pr6|5\n\
    \        tnz loop\n\
    \        mme =2\n"
    n

let wildcard access = [ { Acl.user = Acl.wildcard; access } ]

let build_store () =
  let store = Store.create () in
  Store.add_source store ~name:"caller"
    ~acl:
      (wildcard
         (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()))
    (Scenario.caller_source ~callee_link:"service$entry" ~iterations:12 ());
  Store.add_source store ~name:"service"
    ~acl:
      (wildcard
         (Rings.Access.procedure_segment ~execute_in:1 ~callable_from:4 ()))
    (Scenario.callee_source ());
  Store.add_source store ~name:"reader"
    ~acl:
      (wildcard
         (Rings.Access.procedure_segment ~execute_in:0 ~callable_from:0 ()))
    polling_reader_source;
  Store.add_source store ~name:"buf"
    ~acl:
      (wildcard (Rings.Access.data_segment ~writable_to:0 ~readable_to:4 ()))
    buf_source;
  Store.add_source store ~name:"worker"
    ~acl:
      (wildcard
         (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()))
    (worker_source ~n:400);
  store

(* Short, stable descriptions for the aggregated exit table; the
   per-fault detail (addresses) stays out so reports from different
   plans remain comparable. *)
let exit_kind = function
  | Kernel.Halted -> "halted"
  | Kernel.Exited -> "exited"
  | Kernel.Preempted -> "preempted"
  | Kernel.Blocked -> "blocked"
  | Kernel.Terminated _ -> "terminated"
  | Kernel.Gatekeeper_error _ -> "gatekeeper_error"
  | Kernel.Out_of_budget -> "out_of_budget"
  | Kernel.Quarantined _ -> "quarantined"

let documented = function
  | Kernel.Exited | Kernel.Quarantined _ -> true
  | _ -> false

(* {1 The campaign runner} *)

let run_one ?mode ~campaign plan ~quantum ~exits ~violations
    ~recovery_latency =
  let store = build_store () in
  let sys = System.create ?mode ~store () in
  let m = System.machine sys in
  Trace.Span.set_enabled m.Isa.Machine.spans true;
  let spawn ~pname ~user ~segments ~start ~ring =
    match System.spawn sys ~pname ~user ~segments ~start ~ring with
    | Ok e -> Some e
    | Error err ->
        violations :=
          { campaign; detail = Printf.sprintf "spawn %s: %s" pname err }
          :: !violations;
        None
  in
  let crosser =
    spawn ~pname:"crosser" ~user:"alice"
      ~segments:[ "caller"; "service" ]
      ~start:("caller", "start") ~ring:4
  in
  let reader =
    spawn ~pname:"reader" ~user:"bob"
      ~segments:[ "reader"; "buf" ]
      ~start:("reader", "start") ~ring:0
  in
  let worker =
    spawn ~pname:"worker" ~user:"carol" ~segments:[ "worker" ]
      ~start:("worker", "start") ~ring:4
  in
  match (crosser, reader, worker) with
  | Some _, Some reader, Some _ ->
      Device.feed reader.System.process.Process.typewriter
        "chaos-campaign-fodder: thirty-two!";
      (* Attach the injector only after the processes are built, so
         plan cycle offsets count from the start of execution proper
         and every descriptor region exists to be registered. *)
      let inj =
        Process.attach_injector m plan
          (List.map (fun (e : System.entry) -> e.System.process)
             (System.entries sys))
      in
      let check () =
        List.iter
          (fun detail -> violations := { campaign; detail } :: !violations)
          (check_invariants ~campaign sys)
      in
      m.Isa.Machine.on_recovery <- (fun _fault -> check ());
      (let finished =
         try System.run ~quantum sys
         with exn ->
           violations :=
             {
               campaign;
               detail =
                 Printf.sprintf "uncaught exception: %s"
                   (Printexc.to_string exn);
             }
             :: !violations;
           []
       in
       List.iter
         (fun (pname, exit) ->
           let kind = exit_kind exit in
           exits :=
             (kind, 1 + (try List.assoc kind !exits with Not_found -> 0))
             :: List.remove_assoc kind !exits;
           if not (documented exit) then
             violations :=
               {
                 campaign;
                 detail =
                   Format.asprintf "%s: undocumented exit under fault: %a"
                     pname Kernel.pp_exit exit;
               }
               :: !violations)
         finished);
      (* Final audit: the protection state must be intact and every
         injected damage scrubbed. *)
      check ();
      if Hw.Inject.poisoned inj > 0 then
        violations :=
          {
            campaign;
            detail =
              Printf.sprintf "%d poisoned words survived the campaign"
                (Hw.Inject.poisoned inj);
          }
          :: !violations;
      Trace.Histogram.merge_into ~dst:recovery_latency
        (Trace.Span.histogram m.Isa.Machine.spans Trace.Event.Recovery);
      let c = m.Isa.Machine.counters in
      Trace.Counters.
        ( get c injected,
          get c retried,
          get c recovered,
          get c quarantined,
          get c degraded )
  | _ -> (0, 0, 0, 0, 0)

let run_campaigns ?mode ?(campaigns = 10) ?(quantum = 40) plan =
  let exits = ref [] in
  let violations = ref [] in
  let recovery_latency = Trace.Histogram.create () in
  let injected = ref 0
  and retried = ref 0
  and recovered = ref 0
  and quarantined = ref 0
  and degraded = ref 0 in
  for campaign = 0 to campaigns - 1 do
    let derived =
      { plan with Hw.Inject.seed = plan.Hw.Inject.seed + (campaign * 7919) }
    in
    let i, rt, rc, q, d =
      run_one ?mode ~campaign derived ~quantum ~exits ~violations
        ~recovery_latency
    in
    injected := !injected + i;
    retried := !retried + rt;
    recovered := !recovered + rc;
    quarantined := !quarantined + q;
    degraded := !degraded + d
  done;
  {
    campaigns;
    seed = plan.Hw.Inject.seed;
    exits = List.sort compare !exits;
    injected = !injected;
    retried = !retried;
    recovered = !recovered;
    quarantined = !quarantined;
    degraded = !degraded;
    violations = List.rev !violations;
    recovery_latency;
  }

(* {1 Reporting} *)

let pp_report ppf r =
  Format.fprintf ppf "chaos: %d campaigns, base seed %d@." r.campaigns
    r.seed;
  Format.fprintf ppf "  exits:";
  List.iter (fun (k, n) -> Format.fprintf ppf " %s=%d" k n) r.exits;
  Format.fprintf ppf "@.";
  Format.fprintf ppf
    "  faults: injected %d, retried %d, recovered %d, quarantined %d, \
     degraded %d@."
    r.injected r.retried r.recovered r.quarantined r.degraded;
  let h = r.recovery_latency in
  if Trace.Histogram.count h > 0 then
    Format.fprintf ppf
      "  recovery latency (cycles): n=%d mean=%.1f p50=%d p90=%d p99=%d \
       max=%d@."
      (Trace.Histogram.count h) (Trace.Histogram.mean h)
      (Trace.Histogram.percentile h 50.0)
      (Trace.Histogram.percentile h 90.0)
      (Trace.Histogram.percentile h 99.0)
      (Trace.Histogram.max_value h);
  if r.violations = [] then
    Format.fprintf ppf "  protection invariants: intact@."
  else begin
    Format.fprintf ppf "  PROTECTION VIOLATIONS: %d@."
      (List.length r.violations);
    List.iter
      (fun v ->
        Format.fprintf ppf "    campaign %d: %s@." v.campaign v.detail)
      r.violations
  end

let report_json r =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"campaigns\": %d,\n" r.campaigns);
  add (Printf.sprintf "  \"seed\": %d,\n" r.seed);
  add "  \"exits\": {";
  List.iteri
    (fun i (k, n) ->
      if i > 0 then add ", ";
      Printf.bprintf buf "%a: %d" Trace.Export.add_str k n)
    r.exits;
  add "},\n";
  add
    (Printf.sprintf
       "  \"counters\": {\"injected\": %d, \"retried\": %d, \"recovered\": \
        %d, \"quarantined\": %d, \"degraded\": %d},\n"
       r.injected r.retried r.recovered r.quarantined r.degraded);
  let h = r.recovery_latency in
  add
    (Printf.sprintf
       "  \"recovery_latency\": {\"count\": %d, \"mean\": %.1f, \"p50\": \
        %d, \"p90\": %d, \"p99\": %d, \"max\": %d},\n"
       (Trace.Histogram.count h)
       (if Trace.Histogram.count h = 0 then 0.0 else Trace.Histogram.mean h)
       (Trace.Histogram.percentile h 50.0)
       (Trace.Histogram.percentile h 90.0)
       (Trace.Histogram.percentile h 99.0)
       (if Trace.Histogram.count h = 0 then 0
        else Trace.Histogram.max_value h));
  add "  \"violations\": [";
  List.iteri
    (fun i v ->
      if i > 0 then add ", ";
      Printf.bprintf buf "{\"campaign\": %d, \"detail\": %a}" v.campaign
        Trace.Export.add_str v.detail)
    r.violations;
  add "]\n}\n";
  Buffer.contents buf
