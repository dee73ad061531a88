(* One worker of the serving fleet.  The shard keeps a bounded LRU of
   booted machines keyed by service class; serving a cached class is a
   warm boot (rewind the machine to its boot image), serving a new one
   is a cold boot (assemble, spawn, capture).  Nothing here reads host
   time or host randomness, so an outcome depends only on the class
   and the injection plan — not on which shard, domain or queue
   position served it. *)

type klass = string * int

type trace_cfg = Isa.Machine.sampling = {
  sample : int;
  seed : int;
  capacity : int;
  instr : int;
}

let default_trace_capacity = 4096

(* The one place these checks are written: the CLI prints the message
   and exits 2, [create] and {!Dispatcher.run} raise it. *)
let validate ?watchdog ?trace () =
  match (watchdog, trace) with
  | Some n, _ when n < 1 -> Error "--watchdog must be positive"
  | _, Some c when c.sample < 1 -> Error "--sample must be positive"
  | _, Some c when c.instr < 0 -> Error "--sample-instr must be nonnegative"
  | _, Some c when c.capacity < 1 -> Error "--trace-cap must be positive"
  | _ -> Ok ()

type request_trace = {
  t_events : Trace.Event.stamped list;
  t_spans : Trace.Span.completed list;
  t_seen : int;
  t_dropped : int;
  t_sampled_out : int;
  t_high_water : int;
  t_spans_sampled_out : int;
}

type outcome = {
  request : Workload.request;
  shard_id : int;
  exit_label : string;
  ok : bool;
  latency : int;
  delta : Trace.Counters.snapshot;
  ring_cycles : (int * int * int) list;
  kernel_cycles : int;
  tripped : bool;
  trace : request_trace option;
}

(* ------------------------------------------------------------------ *)
(* Program catalog *)

type prog = {
  p_mode : Isa.Machine.mode;
  p_paged : bool;
  p_ring : int;
  p_start : string;
  p_sources : int -> (string * Os.Acl.entry list * string) list;
}

let acl_all access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]

(* A gateless compute loop: retires instructions without ever
   faulting, crossing or touching a channel, so it is exactly what the
   run watchdog quarantines.  Not part of any default mix; the
   quarantine tests inject it deliberately. *)
let spin_sources iterations =
  [
    ( "spin",
      acl_all
        (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()),
      Printf.sprintf
        "start:  lda =%d\nloop:   sba =1\n        tnz loop\n        mme =2\n"
        iterations );
  ]

let catalog =
  [
    ( "crossing-hw",
      {
        p_mode = Isa.Machine.Ring_hardware;
        p_paged = false;
        p_ring = 4;
        p_start = "caller";
        p_sources =
          Os.Scenario.crossing_sources ~caller_ring:4 ~callee_ring:1;
      } );
    ( "crossing-645",
      {
        p_mode = Isa.Machine.Ring_software_645;
        p_paged = false;
        p_ring = 4;
        p_start = "caller";
        p_sources =
          Os.Scenario.crossing_sources ~caller_ring:4 ~callee_ring:1;
      } );
    ( "same-ring",
      {
        p_mode = Isa.Machine.Ring_hardware;
        p_paged = false;
        p_ring = 4;
        p_start = "caller";
        p_sources =
          Os.Scenario.crossing_sources ~caller_ring:4 ~callee_ring:4
            ~callable_from:4;
      } );
    ( "outward",
      {
        p_mode = Isa.Machine.Ring_hardware;
        p_paged = false;
        p_ring = 1;
        p_start = "caller";
        p_sources =
          Os.Scenario.crossing_sources ~caller_ring:1 ~callee_ring:3;
      } );
    ( "argcross",
      {
        p_mode = Isa.Machine.Ring_hardware;
        p_paged = false;
        p_ring = 4;
        p_start = "caller";
        p_sources =
          Os.Scenario.crossing_sources ~caller_ring:4 ~callee_ring:1
            ~with_argument:true;
      } );
    ( "paged",
      {
        p_mode = Isa.Machine.Ring_hardware;
        p_paged = true;
        p_ring = 4;
        p_start = "caller";
        p_sources =
          Os.Scenario.crossing_sources ~caller_ring:4 ~callee_ring:1
            ~with_argument:true;
      } );
    ( "spin",
      {
        p_mode = Isa.Machine.Ring_hardware;
        p_paged = false;
        p_ring = 4;
        p_start = "spin";
        p_sources = spin_sources;
      } );
  ]

let programs = List.map fst catalog
let known_program name = List.mem_assoc name catalog

(* ------------------------------------------------------------------ *)
(* Shard state *)

type slot = {
  sys : Os.System.t;
  image : string;
  boot : Trace.Counters.snapshot;
  boot_rings : (int * int * int) list;
  boot_kernel : int;
}

type t = {
  sid : int;
  cache : (klass, slot) Hw.Assoc.t;
  backend : Isa.Machine.mode option;
  inject : Hw.Inject.plan option;
  watchdog : int option;
  trace_cfg : trace_cfg option;
  mutable preload : (klass * string) list;
  mutable cold : int;
  mutable warm : int;
}

let create ~id ?(image_cap = 8) ?backend ?inject ?watchdog ?trace
    ?(preload = []) () =
  Result.iter_error invalid_arg (validate ?watchdog ?trace ());
  {
    sid = id;
    cache = Hw.Assoc.create ~capacity:image_cap ();
    backend;
    inject;
    watchdog;
    trace_cfg = trace;
    preload;
    cold = 0;
    warm = 0;
  }

let cold_boots t = t.cold
let warm_boots t = t.warm
let image_stats t = Hw.Assoc.stats t.cache
let images t = Hw.Assoc.fold (fun k s acc -> (k, s.image) :: acc) t.cache []

(* ------------------------------------------------------------------ *)
(* Booting *)

(* One 2^18-word region: a shard system holds exactly one process, and
   the smaller core is an eighth of the default machine's.  The size
   now bounds only a cold boot (allocating the machine); a warm boot
   touches the pages the requests since dirtied, whatever the memory
   size. *)
let shard_mem = 1 lsl 18

let fail fmt = Printf.ksprintf failwith fmt

let build_system t prog ~iterations =
  let sources = prog.p_sources iterations in
  let store = Os.Store.create () in
  List.iter
    (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
    sources;
  (* A shard-wide backend override forces every class onto one
     protection implementation — the three-way bench serves the same
     catalog under hw, 645 and cap shards and compares. *)
  let mode = Option.value t.backend ~default:prog.p_mode in
  let sys = Os.System.create ~mode ~mem_size:shard_mem ~store () in
  match
    Os.System.spawn sys ~paged:prog.p_paged ~pname:"req" ~user:"alice"
      ~segments:(List.map (fun (n, _, _) -> n) sources)
      ~start:(prog.p_start, "start") ~ring:prog.p_ring
  with
  | Error e -> fail "shard %d: cannot spawn %s: %s" t.sid prog.p_start e
  | Ok entry ->
      let m = Os.System.machine sys in
      Option.iter
        (fun plan ->
          ignore
            (Os.Process.attach_injector m plan [ entry.Os.System.process ]))
        t.inject;
      Trace.Profile.set_enabled m.Isa.Machine.profile true;
      (* Tracing is configured BEFORE the slot image is captured, so
         the enabled/sampling/capacity state — and the empty buffers —
         are part of the boot image.  Every warm boot rewinds to that
         state, which makes a request's trace a deterministic function
         of its class alone, independent of shard and service order. *)
      Option.iter
        (fun c ->
          Isa.Machine.set_sampling m c;
          Trace.Event.set_enabled m.Isa.Machine.log true;
          Trace.Span.set_enabled m.Isa.Machine.spans true)
        t.trace_cfg;
      sys

let seal_slot sys image =
  (* The image is captured AFTER enabling the profile and attaching
     the injector, so both rewind with the machine.  The boot snapshot
     is read once the live counters equal the image's — warm boot
     restores exactly this state and per-request deltas compare
     against it cleanly. *)
  let m = Os.System.machine sys in
  {
    sys;
    image;
    boot = Trace.Counters.snapshot m.Isa.Machine.counters;
    boot_rings = Trace.Profile.per_ring m.Isa.Machine.profile;
    boot_kernel = Trace.Profile.kernel_cycles m.Isa.Machine.profile;
  }

let cold_boot t ((program, iterations) as k) =
  let prog =
    match List.assoc_opt program catalog with
    | Some p -> p
    | None -> fail "shard %d: unknown program %s" t.sid program
  in
  let sys = build_system t prog ~iterations in
  let image =
    match List.assoc_opt k t.preload with
    | None ->
        (* Snapshot.capture bumps [snapshots_written] before
           serializing, so the live counters equal the image's. *)
        Os.Snapshot.capture sys
    | Some image -> (
        (* A disk image is untrusted: full checked restore.  Its bytes
           are then verified, so they seal the slot as they are — a
           warm boot to them rewinds the restore's own [restores] bump,
           and a preloading run writes back exactly what it loaded. *)
        t.preload <- List.remove_assoc k t.preload;
        let rejected e =
          fail "shard %d: preloaded image for %s/%d rejected: %s" t.sid
            program iterations
            (Format.asprintf "%a" Os.Snapshot.pp_error e)
        in
        match Os.Snapshot.restore sys image with
        | Error e -> rejected e
        | Ok () -> (
            match Os.Snapshot.warm_boot sys image with
            | Ok () -> image
            | Error e -> rejected e))
  in
  let slot = seal_slot sys image in
  t.cold <- t.cold + 1;
  ignore (Hw.Assoc.insert t.cache k slot);
  slot

let boot t k =
  match Hw.Assoc.find t.cache k with
  | exception Not_found -> cold_boot t k
  | slot -> (
      match Os.Snapshot.warm_boot slot.sys slot.image with
      | Ok () ->
          t.warm <- t.warm + 1;
          slot
      | Error e ->
          fail "shard %d: warm boot failed: %s" t.sid
            (Format.asprintf "%a" Os.Snapshot.pp_error e))

(* ------------------------------------------------------------------ *)
(* Serving *)

let exit_label : Os.Kernel.exit -> string = function
  | Os.Kernel.Halted -> "halted"
  | Os.Kernel.Exited -> "exited"
  | Os.Kernel.Preempted -> "preempted"
  | Os.Kernel.Blocked -> "blocked"
  | Os.Kernel.Terminated _ -> "terminated"
  | Os.Kernel.Gatekeeper_error _ -> "gatekeeper-error"
  | Os.Kernel.Out_of_budget -> "out-of-budget"
  | Os.Kernel.Quarantined _ -> "quarantined"

let ring_delta before after =
  List.filter_map
    (fun (r, c, i) ->
      let c, i =
        match List.find_opt (fun (r', _, _) -> r' = r) before with
        | Some (_, c0, i0) -> (c - c0, i - i0)
        | None -> (c, i)
      in
      if c = 0 && i = 0 then None else Some (r, c, i))
    after

let exec t (req : Workload.request) =
  let slot = boot t (req.Workload.program, req.Workload.iterations) in
  let exits = Os.System.run ?watchdog:t.watchdog slot.sys in
  let exit =
    match List.assoc_opt "req" exits with
    | Some e -> e
    | None -> Os.Kernel.Out_of_budget
  in
  let m = Os.System.machine slot.sys in
  let after = Trace.Counters.snapshot m.Isa.Machine.counters in
  let delta = Trace.Counters.diff ~before:slot.boot ~after in
  let tripped =
    (match exit with Os.Kernel.Quarantined _ -> true | _ -> false)
    || delta.Trace.Counters.watchdog_tripped > 0
  in
  let trace =
    match t.trace_cfg with
    | None -> None
    | Some _ ->
        let log = m.Isa.Machine.log and spans = m.Isa.Machine.spans in
        (* Close spans a fault or budget exhaustion left open, then
           drain the per-request buffers.  Instruction text resolves
           here, against the machine's end-of-run state — before the
           next warm boot rewinds it. *)
        Trace.Span.drain spans
          ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters);
        Some
          {
            t_events = Trace.Event.stamped_events log;
            t_spans = Trace.Span.completed spans;
            t_seen = Trace.Event.seen log;
            t_dropped = Trace.Event.dropped log;
            t_sampled_out = Trace.Event.sampled_out log;
            t_high_water = Trace.Event.high_water log;
            t_spans_sampled_out = Trace.Span.sampled_out spans;
          }
  in
  {
    request = req;
    shard_id = t.sid;
    exit_label = exit_label exit;
    ok = (exit = Os.Kernel.Exited);
    latency = delta.Trace.Counters.cycles;
    delta;
    ring_cycles =
      ring_delta slot.boot_rings (Trace.Profile.per_ring m.Isa.Machine.profile);
    kernel_cycles =
      Trace.Profile.kernel_cycles m.Isa.Machine.profile - slot.boot_kernel;
    tripped;
    trace;
  }
