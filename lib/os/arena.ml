(* The multi-tenant arena: the 1971 paper's mutually-suspicious
   procedures at consumer scale.  N untrusted tenant programs share
   simulated machines in outer rings; each is billed for every cycle,
   fault and channel operation it causes and is quarantined — never
   the machine — when it spends past its quota.  After every
   quarantine and at the end of each wave the SDW auditor (plus the
   arena's cross-tenant region check) must find the protection state
   intact: that is the standing zero-leak gate.

   One machine hosts at most [wave_capacity] processes (memory holds
   eight process regions), so a campaign runs in waves: tenants
   [0..7] in one wave, [8..15] in the next, and so on.  Wave
   composition is a pure function of the tenant list, and every wave
   gets its own store and injector and starts on a machine in its
   freshly created state — a new one, or one reset after an earlier
   wave — so waves can run sequentially or spread over domains and the
   assembled report is byte-identical either way. *)

type quota = { cycles : int; mem : int; faults : int; io : int }

(* Generous enough that every honest tenant finishes well inside it;
   tight enough that a spinner burns out in a couple hundred slices. *)
let default_quota = { cycles = 20_000; mem = 4_096; faults = 8; io = 64 }

type tenant = {
  id : int;
  name : string;
  kind : string;
  adversarial : bool;
  ring : int;
  paged : bool;
  start : string * string;
  segments : (string * Acl.entry list * string) list;
}

let wave_capacity = 8

let waves tenants =
  let sorted = List.sort (fun a b -> compare a.id b.id) tenants in
  let rec chunk i acc current n = function
    | [] ->
        List.rev
          (if current = [] then acc else (i, List.rev current) :: acc)
    | t :: rest ->
        if n = wave_capacity then
          chunk (i + 1) ((i, List.rev current) :: acc) [ t ] 1 rest
        else chunk i acc (t :: current) (n + 1) rest
  in
  chunk 0 [] [] 0 sorted

type bill = {
  tenant : int;
  name : string;
  kind : string;
  adversarial : bool;
  ring : int;
  mem_words : int;
  usage : Trace.Counters.snapshot;
  faults : int;
  exit : string;
  verdict : string;
}

type wave_result = {
  wave : int;
  bills : bill list;
  violations : string list;
  audits : int;
}

(* What counts against the fault quota: damage the kernel had to act
   on for this tenant — access violations, page faults brought in on
   its behalf, and injected faults scrubbed-and-resumed. *)
let billed_faults c =
  Trace.Counters.(
    get c access_violations + get c page_faults + get c recovered)

let mem_words_of (p : Process.t) =
  List.fold_left
    (fun acc (l : Process.loaded) -> acc + l.Process.bound)
    0 p.Process.loaded

let exit_text (e : Kernel.exit) = Format.asprintf "%a" Kernel.pp_exit e

let verdict_of_exit (e : Kernel.exit) =
  match e with
  | Kernel.Exited | Kernel.Halted -> "ok"
  | Kernel.Terminated _ -> "contained"
  | Kernel.Quarantined (Rings.Fault.Quota_exhausted { resource; _ }) ->
      Printf.sprintf "quarantined: %s quota" resource
  | Kernel.Quarantined _ -> "quarantined: fault budget"
  | Kernel.Out_of_budget -> "over budget"
  | Kernel.Preempted | Kernel.Blocked | Kernel.Gatekeeper_error _ -> "stuck"

let run_wave ?sys ?mode ?(quantum = 50) ?inject ~quota ~wave tenants =
  let tenants = List.sort (fun a b -> compare a.id b.id) tenants in
  if List.length tenants > wave_capacity then
    invalid_arg "Arena.run_wave: more tenants than machine regions";
  let store = Store.create () in
  List.iter
    (fun (t : tenant) ->
      List.iter
        (fun (name, acl, src) -> Store.add_source store ~name ~acl src)
        t.segments)
    tenants;
  let sys =
    match sys with
    | None -> System.create ?mode ~store ()
    | Some sys ->
        (match mode with
        | Some m when m <> (System.machine sys).Isa.Machine.mode ->
            invalid_arg "Arena.run_wave: mode differs from the system's"
        | _ -> ());
        System.reset sys ~store;
        sys
  in
  let m = System.machine sys in
  let counters = m.Isa.Machine.counters in
  let violations = ref [] in
  let audits = ref 0 in
  let audit note =
    incr audits;
    let found = Chaos.check_invariants ~campaign:wave sys
                @ Chaos.check_cross_tenant sys in
    List.iter
      (fun v ->
        violations :=
          Printf.sprintf "wave %d (%s): %s" wave note v :: !violations)
      found
  in
  (* Spawn every tenant, then bill admission: a tenant whose virtual
     memory is already over its memory quota is quarantined before it
     ever runs — its region stays allocated (the map the cross-tenant
     auditor checks is positional) but the processor never dispatches
     it. *)
  let spawned =
    List.map
      (fun (t : tenant) ->
        match
          System.spawn sys ~paged:t.paged ~pname:t.name ~user:t.name
            ~segments:(List.map (fun (n, _, _) -> n) t.segments)
            ~start:t.start ~ring:t.ring
        with
        | Ok e -> (t, Some (e, Trace.Counters.create ()))
        | Error msg ->
            violations :=
              Printf.sprintf "wave %d: %s failed to spawn: %s" wave t.name
                msg
              :: !violations;
            (t, None))
      tenants
  in
  (* Each entry is paired with its tenant and bill once, here; a slice
     finds its pair by the entry's identity, with no lookup by name. *)
  let slots =
    List.filter_map
      (fun (t, s) -> Option.map (fun (e, bill) -> (e, t, bill)) s)
      spawned
  in
  let rec slot_of e = function
    | [] -> None
    | ((e', _, _) as s) :: rest -> if e' == e then Some s else slot_of e rest
  in
  List.iter
    (fun ((t : tenant), e) ->
      match e with
      | Some (e, _) when mem_words_of e.System.process > quota.mem ->
          System.quarantine sys e
            (Rings.Fault.Quota_exhausted
               { resource = "memory"; limit = quota.mem });
          audit (t.name ^ " admission quarantine")
      | _ -> ())
    spawned;
  (match inject with
  | None -> ()
  | Some plan ->
      ignore
        (Process.attach_injector m
           { plan with Hw.Inject.seed = plan.Hw.Inject.seed + (wave * 7919) }
           (List.map (fun e -> e.System.process) (System.entries sys)));
      (* Audit after every kernel recovery decision, exactly as the
         chaos campaigns do, with the cross-tenant check added. *)
      m.Isa.Machine.on_recovery <-
        (fun f -> audit (Format.asprintf "recovery from %a" Rings.Fault.pp f)));
  (* A bill is charged in place with what the machine's counters moved
     since the slice began, so a slice allocates no table. *)
  let since = Trace.Counters.create () in
  let before_slice (e : System.entry) =
    Trace.Counters.copy counters ~into:since;
    match slot_of e slots with
    | None -> ()
    | Some (_, _, bill) ->
        let remaining = max 0 (quota.cycles - Trace.Counters.cycles bill) in
        m.Isa.Machine.cycle_limit <-
          Some (Trace.Counters.cycles counters + remaining)
  in
  let after_slice (e : System.entry) (_result : Kernel.exit) =
    m.Isa.Machine.cycle_limit <- None;
    match slot_of e slots with
    | None -> ()
    | Some (_, (t : tenant), bill) ->
        Trace.Counters.accrue counters ~since ~into:bill;
        let quarantined_now =
          match e.System.status with
          | System.Done (Kernel.Quarantined _) -> true
          | System.Done _ | System.Ready | System.Blocked ->
              let breach resource limit =
                System.quarantine sys e
                  (Rings.Fault.Quota_exhausted { resource; limit })
              in
              if Trace.Counters.cycles bill >= quota.cycles then (
                breach "cycles" quota.cycles;
                true)
              else if billed_faults bill > quota.faults then (
                breach "faults" quota.faults;
                true)
              else if Trace.Counters.(get bill channel_ops) > quota.io then (
                breach "io" quota.io;
                true)
              else if mem_words_of e.System.process > quota.mem then (
                breach "memory" quota.mem;
                true)
              else false
        in
        if quarantined_now then audit (t.name ^ " quarantine")
  in
  (* Budget: cycles-per-slice is at least the quantum (every
     instruction costs >= 1 cycle), so a full wave of spinners needs
     at most capacity * quota.cycles / quantum slices; the slack
     covers honest tenants' trap-service cycles and idle quanta. *)
  let max_slices =
    (wave_capacity * ((quota.cycles / quantum) + 2)) + 64
  in
  let (_ : (string * Kernel.exit) list) =
    System.run ~quantum ~max_slices ~before_slice ~after_slice sys
  in
  audit "wave end";
  (match m.Isa.Machine.injector with
  | Some inj when Hw.Inject.poisoned inj > 0 ->
      violations :=
        Printf.sprintf "wave %d: %d poisoned words never scrubbed" wave
          (Hw.Inject.poisoned inj)
        :: !violations
  | _ -> ());
  let bills =
    List.map
      (fun (t, e) ->
        let billed, mem_words, exit =
          match e with
          | None ->
              ( Trace.Counters.create (),
                0,
                Kernel.Gatekeeper_error "spawn failed" )
          | Some (e, bill) -> (
              ( bill,
                mem_words_of e.System.process,
                match e.System.status with
                | System.Done x -> x
                | System.Ready | System.Blocked -> Kernel.Out_of_budget ))
        in
        {
          tenant = t.id;
          name = t.name;
          kind = t.kind;
          adversarial = t.adversarial;
          ring = t.ring;
          mem_words;
          usage = Trace.Counters.snapshot billed;
          faults = billed_faults billed;
          exit = exit_text exit;
          verdict = verdict_of_exit exit;
        })
      spawned
  in
  { wave; bills; violations = List.rev !violations; audits = !audits }

type report = {
  tenants : int;
  seed : int;
  quota : quota;
  waves : int;
  bills : bill list;
  exits : (string * int) list;
  completed : int;
  contained : int;
  quarantined : int;
  audits : int;
  violations : string list;
}

let assemble ~seed ~quota results =
  let results =
    List.sort (fun (a : wave_result) b -> compare a.wave b.wave) results
  in
  let bills = List.concat_map (fun (r : wave_result) -> r.bills) results in
  let exits =
    List.fold_left
      (fun acc b ->
        let n = try List.assoc b.exit acc with Not_found -> 0 in
        (b.exit, n + 1) :: List.remove_assoc b.exit acc)
      [] bills
    |> List.sort compare
  in
  let count p = List.length (List.filter p bills) in
  {
    tenants = List.length bills;
    seed;
    quota;
    waves = List.length results;
    bills;
    exits;
    completed = count (fun b -> b.verdict = "ok");
    contained = count (fun b -> b.verdict = "contained");
    quarantined =
      count (fun b ->
          String.length b.verdict >= 11
          && String.sub b.verdict 0 11 = "quarantined");
    audits = List.fold_left (fun acc (r : wave_result) -> acc + r.audits) 0 results;
    violations =
      List.concat_map (fun (r : wave_result) -> r.violations) results;
  }

(* {1 Reporting} *)

let report_json r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\
       \  \"tenants\": %d,\n\
       \  \"seed\": %d,\n\
       \  \"waves\": %d,\n\
       \  \"quota\": {\"cycles\": %d, \"mem\": %d, \"faults\": %d, \"io\": \
        %d},\n\
       \  \"completed\": %d,\n\
       \  \"contained\": %d,\n\
       \  \"quarantined\": %d,\n\
       \  \"audits\": %d,\n"
       r.tenants r.seed r.waves r.quota.cycles r.quota.mem r.quota.faults
       r.quota.io r.completed r.contained r.quarantined r.audits);
  let str = Trace.Export.add_str in
  Buffer.add_string buf "  \"exits\": {";
  List.iteri
    (fun i (label, n) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "%a: %d" str label n)
    r.exits;
  Buffer.add_string buf "},\n  \"violations\": [";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      str buf v)
    r.violations;
  Buffer.add_string buf "],\n  \"bills\": [\n";
  List.iteri
    (fun i b ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    {\"tenant\": %d, \"name\": %a, \"kind\": %a, \"adversarial\": \
         %b, \"ring\": %d, \"cycles\": %d, \"instructions\": %d, \"faults\": \
         %d, \"io_ops\": %d, \"mem_words\": %d, \"exit\": %a, \"verdict\": %a}"
        b.tenant str b.name str b.kind b.adversarial b.ring
        b.usage.Trace.Counters.cycles b.usage.Trace.Counters.instructions
        b.faults b.usage.Trace.Counters.channel_ops b.mem_words
        str b.exit str b.verdict)
    r.bills;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let pp_report ppf r =
  Format.fprintf ppf
    "arena: %d tenants in %d waves (seed %d) - %d completed, %d contained, \
     %d quarantined, %d audits, %d violations"
    r.tenants r.waves r.seed r.completed r.contained r.quarantined r.audits
    (List.length r.violations);
  List.iter (fun v -> Format.fprintf ppf "@,  VIOLATION %s" v) r.violations

let print_table r =
  if r.tenants <= 32 then begin
    let t =
      Trace.Tablefmt.create
        ~columns:
          [
            ("tenant", Trace.Tablefmt.Left);
            ("kind", Trace.Tablefmt.Left);
            ("ring", Trace.Tablefmt.Right);
            ("cycles", Trace.Tablefmt.Right);
            ("instr", Trace.Tablefmt.Right);
            ("faults", Trace.Tablefmt.Right);
            ("io", Trace.Tablefmt.Right);
            ("mem", Trace.Tablefmt.Right);
            ("verdict", Trace.Tablefmt.Left);
          ]
    in
    List.iter
      (fun b ->
        Trace.Tablefmt.add_row t
          [
            b.name;
            b.kind;
            string_of_int b.ring;
            string_of_int b.usage.Trace.Counters.cycles;
            string_of_int b.usage.Trace.Counters.instructions;
            string_of_int b.faults;
            string_of_int b.usage.Trace.Counters.channel_ops;
            string_of_int b.mem_words;
            b.verdict;
          ])
      r.bills;
    Trace.Tablefmt.print ~title:"Arena - per-tenant billing" t
  end
  else begin
    (* Thousands of tenants: summarize per kind, in kind order. *)
    let kinds =
      List.sort_uniq compare (List.map (fun b -> b.kind) r.bills)
    in
    let t =
      Trace.Tablefmt.create
        ~columns:
          [
            ("kind", Trace.Tablefmt.Left);
            ("tenants", Trace.Tablefmt.Right);
            ("ok", Trace.Tablefmt.Right);
            ("contained", Trace.Tablefmt.Right);
            ("quarantined", Trace.Tablefmt.Right);
            ("cycles", Trace.Tablefmt.Right);
            ("instr", Trace.Tablefmt.Right);
          ]
    in
    List.iter
      (fun kind ->
        let of_kind = List.filter (fun b -> b.kind = kind) r.bills in
        let count p = List.length (List.filter p of_kind) in
        let sum f = List.fold_left (fun acc b -> acc + f b) 0 of_kind in
        Trace.Tablefmt.add_row t
          [
            kind;
            string_of_int (List.length of_kind);
            string_of_int (count (fun b -> b.verdict = "ok"));
            string_of_int (count (fun b -> b.verdict = "contained"));
            string_of_int
              (count (fun b ->
                   String.length b.verdict >= 11
                   && String.sub b.verdict 0 11 = "quarantined"));
            string_of_int (sum (fun b -> b.usage.Trace.Counters.cycles));
            string_of_int
              (sum (fun b -> b.usage.Trace.Counters.instructions));
          ])
      kinds;
    Trace.Tablefmt.print ~title:"Arena - billing by tenant kind" t
  end
