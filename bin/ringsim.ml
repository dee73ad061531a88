(* ringsim: assemble and run a multi-segment program file (see
   Os.Program and docs/ASSEMBLY.md for the format) under any of the
   three protection backends, or drive the serving fleet and the tenant
   arena over the same machines.

     dune exec bin/ringsim.exe -- prog.rng --start main --ring 4
     dune exec bin/ringsim.exe -- serve --shards 4
     dune exec bin/ringsim.exe -- arena --tenants 64
*)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Usage, file, plan and snapshot errors exit 2; exit 1 is reserved
   for a run that executed but failed (violations, divergence). *)
let usage_error msg =
  Printf.eprintf "ringsim: %s\n" msg;
  exit 2

let or_usage = function Ok x -> x | Error e -> usage_error e

(* --backend NAME: resolved through the one validator every subcommand
   shares (Rings.Backend.of_string), before any file is read or store
   built — an unknown backend is a usage error (exit 2) naming the
   three valid spellings. *)
let resolve_backend name =
  match Rings.Backend.of_string name with
  | Ok Rings.Backend.Hardware -> Isa.Machine.Ring_hardware
  | Ok Rings.Backend.Software_645 -> Isa.Machine.Ring_software_645
  | Ok Rings.Backend.Capability -> Isa.Machine.Ring_capability
  | Error e -> usage_error e

(* --inject SPEC: an integer seeds the built-in default plan; anything
   else names a plan file for Hw.Inject.parse_plan. *)
let resolve_plan spec =
  match int_of_string_opt spec with
  | Some seed -> Hw.Inject.default_plan ~seed
  | None -> (
      let text =
        try read_file spec
        with Sys_error e -> usage_error ("cannot read injection plan: " ^ e)
      in
      match Hw.Inject.parse_plan text with
      | Ok p -> p
      | Error e -> usage_error (Printf.sprintf "%s: %s" spec e))

(* The flags run and serve share.  [trace] carries seed 0; serve
   reseeds it from the workload seed. *)
type shared = {
  trace_out : string option;
  metrics_out : string option;
  trace : Serve.Shard.trace_cfg;
  watchdog : int option;
}

let check_shared s =
  or_usage (Serve.Shard.validate ?watchdog:s.watchdog ~trace:s.trace ())

(* Observability outputs of a program run: which exporters to run after
   the program finishes, and whether to print the profile tables. *)
type obs = {
  shared : shared;
  events_out : string option;  (** JSONL raw event dump. *)
  metrics_prom : string option;  (** Prometheus text metrics. *)
  profile : bool;  (** Print per-ring/per-segment tables. *)
}

let obs_active o =
  o.shared.trace_out <> None || o.events_out <> None
  || o.shared.metrics_out <> None || o.metrics_prom <> None || o.profile

(* Spans and the profile are cheap (no per-instruction event
   formatting or allocation), so any observability request turns them
   on; the full event log only when an event-consuming exporter asked
   for it.  Capacity and sampling are configured before enabling so
   the first recorded event already obeys them. *)
let enable_obs o (m : Isa.Machine.t) =
  Isa.Machine.set_sampling m o.shared.trace;
  if o.shared.trace_out <> None || o.events_out <> None then
    Trace.Event.set_enabled m.Isa.Machine.log true;
  if obs_active o then begin
    Trace.Span.set_enabled m.Isa.Machine.spans true;
    Trace.Profile.set_enabled m.Isa.Machine.profile true
  end

(* The on-disk delta files of a checkpoint chain: BASE.d0001,
   BASE.d0002, ... — lexicographic order is capture order. *)
let delta_files base =
  let dir = Filename.dirname base in
  let prefix = Filename.basename base ^ ".d" in
  (try Array.to_list (Sys.readdir dir) with Sys_error _ -> [])
  |> List.filter (fun f ->
         String.length f = String.length prefix + 4
         && String.starts_with ~prefix f
         && String.for_all
              (fun c -> c >= '0' && c <= '9')
              (String.sub f (String.length prefix) 4))
  |> List.sort compare
  |> List.map (Filename.concat dir)

let print_table ~title columns rows =
  let t = Trace.Tablefmt.create ~columns in
  List.iter (Trace.Tablefmt.add_row t) rows;
  Trace.Tablefmt.print ~title t;
  print_newline ()

let print_profile (m : Isa.Machine.t) ~segment_names =
  let open Trace.Tablefmt in
  let profile = m.Isa.Machine.profile in
  let by what = [ (what, Left); ("cycles", Right); ("instructions", Right) ] in
  let row name (_, cycles, instructions) =
    [ name; string_of_int cycles; string_of_int instructions ]
  in
  print_table ~title:"Profile - modeled cycles by ring" (by "ring")
    (List.map
       (fun ((ring, _, _) as r) -> row (Printf.sprintf "r%d" ring) r)
       (Trace.Profile.per_ring profile)
    @ [ [ "gatekeeper"; string_of_int (Trace.Profile.kernel_cycles profile); "-" ] ]);
  print_table ~title:"Profile - modeled cycles by segment" (by "segment")
    (List.map
       (fun ((segno, _, _) as r) ->
         match List.assoc_opt segno segment_names with
         | Some n -> row (Printf.sprintf "%d (%s)" segno n) r
         | None -> row (string_of_int segno) r)
       (Trace.Profile.per_segment profile));
  print_table ~title:"Profile - span latency percentiles (modeled cycles)"
    (("crossing", Left)
    :: List.map (fun c -> (c, Right)) [ "count"; "p50"; "p90"; "p99"; "max" ])
    (List.map
       (fun kind ->
         let h = Trace.Span.histogram m.Isa.Machine.spans kind in
         Trace.Event.crossing_to_string kind
         :: List.map string_of_int
              [
                Trace.Histogram.count h;
                Trace.Histogram.percentile h 50.0;
                Trace.Histogram.percentile h 90.0;
                Trace.Histogram.percentile h 99.0;
                Trace.Histogram.max_value h;
              ])
       [ Trace.Event.Same_ring; Trace.Event.Downward; Trace.Event.Upward ])

let finish_obs o (m : Isa.Machine.t) ~segment_names =
  if obs_active o then begin
    (* Close anything a fault or budget exhaustion left open so every
       exported span has an end. *)
    Trace.Span.drain m.Isa.Machine.spans
      ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters);
    let counters = Trace.Counters.snapshot m.Isa.Machine.counters in
    let events () = Trace.Event.stamped_events m.Isa.Machine.log in
    let export path render = Option.iter (fun p -> write_file p (render ())) path in
    export o.shared.trace_out (fun () ->
        Trace.Export.chrome_trace ~events:(events ())
          ~spans:(Trace.Span.completed m.Isa.Machine.spans)
          ());
    export o.events_out (fun () -> Trace.Export.events_jsonl (events ()));
    export o.shared.metrics_out (fun () ->
        Trace.Export.metrics_json ~counters ~events:m.Isa.Machine.log
          ~spans:m.Isa.Machine.spans ~profile:m.Isa.Machine.profile
          ~segment_names ());
    export o.metrics_prom (fun () ->
        Trace.Export.metrics_prometheus ~counters ~events:m.Isa.Machine.log
          ~spans:m.Isa.Machine.spans ~profile:m.Isa.Machine.profile
          ~segment_names ());
    if o.profile then print_profile m ~segment_names
  end

let run_campaigns ~mode inject obs campaigns =
  let plan =
    match inject with
    | Some spec -> resolve_plan spec
    | None -> Hw.Inject.default_plan ~seed:0
  in
  let r = Os.Chaos.run_campaigns ~mode ~campaigns plan in
  Format.printf "%a" Os.Chaos.pp_report r;
  Option.iter
    (fun path -> write_file path (Os.Chaos.report_json r))
    obs.shared.metrics_out;
  exit (if r.Os.Chaos.violations = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* The program run *)

let load_program file =
  let file =
    match file with
    | Some f -> f
    | None -> usage_error "a program FILE is required (unless running --campaigns)"
  in
  let text = try read_file file with Sys_error e -> usage_error e in
  match Os.Program.parse text with
  | Error e -> usage_error (Printf.sprintf "%s: %s" file e)
  | Ok prog -> prog

let run_single ~mode (prog : Os.Program.t) ~start ~ring ~trace ~listing
    ~dump ~show_map ~typed ~max_instructions ~inject obs =
  if listing then
    List.iter
      (fun (s : Os.Program.segment) ->
        match Asm.Assemble.assemble s.source with
        | Ok asm ->
            Printf.printf "--- %s ---\n%s\n" s.name
              (Asm.Assemble.listing s.source asm)
        | Error _ ->
            (* Cross-segment externals resolve only at load time;
               the full assembly below will report real errors. *)
            Printf.printf "--- %s (externals unresolved) ---\n" s.name)
      prog.segments;
  let p =
    Os.Process.create ~mode ~store:(Os.Program.store prog) ~user:"operator" ()
  in
  let m = p.Os.Process.machine in
  or_usage (Os.Program.load p prog ~start ~ring);
  if show_map then Format.printf "%a@." Os.Process.pp_layout p;
  Option.iter
    (fun spec -> ignore (Os.Process.attach_injector m (resolve_plan spec) [ p ]))
    inject;
  if trace then Trace.Event.set_enabled m.Isa.Machine.log true;
  enable_obs obs m;
  Option.iter (Os.Device.feed p.Os.Process.typewriter) typed;
  let exit_state = Os.Kernel.run ~max_instructions p in
  if trace then Format.printf "%a@." Trace.Event.pp_log m.Isa.Machine.log;
  Format.printf "exit: %a@." Os.Kernel.pp_exit exit_state;
  Format.printf "A = %d, Q = %d@." m.Isa.Machine.regs.Hw.Registers.a
    m.Isa.Machine.regs.Hw.Registers.q;
  (let printed = Os.Device.output_text p.Os.Process.typewriter in
   if printed <> "" then Format.printf "typewriter output: %S@." printed);
  Format.printf "%a@." Trace.Counters.pp_snapshot
    (Trace.Counters.snapshot m.Isa.Machine.counters);
  finish_obs obs m
    ~segment_names:
      (List.map
         (fun (l : Os.Process.loaded) -> (l.Os.Process.segno, l.Os.Process.name))
         p.Os.Process.loaded);
  if dump then
    List.iter
      (fun (l : Os.Process.loaded) ->
        let words =
          Array.init l.Os.Process.bound (fun wordno ->
              match
                Os.Process.kread p (Hw.Addr.v ~segno:l.Os.Process.segno ~wordno)
              with
              | Ok w -> w
              | Error _ -> 0)
        in
        print_string
          (Asm.Disasm.segment ~symbols:l.Os.Process.symbols
             ~base_label:l.Os.Process.name words))
      (List.rev p.Os.Process.loaded)

(* --restore BASE: overwrite the freshly spawned system with the
   checkpoint chain a dead run left — BASE plus the delta files
   captured since BASE was last folded, oldest first.  Must run under
   the same program file and flags; any mixed, reordered or damaged
   link is refused before state is touched. *)
let restore_chain t base =
  let read what path =
    try read_file path
    with Sys_error e -> usage_error (Printf.sprintf "cannot read %s: %s" what e)
  in
  let image = read "snapshot" base in
  let deltas = List.map (read "snapshot delta") (delta_files base) in
  match Os.Snapshot.restore_chain t ~base:image deltas with
  | Ok () -> ()
  | Error err ->
      usage_error
        (Format.asprintf "restore %s: %a" base Os.Snapshot.pp_error err)

(* The write-ahead device journal lives next to the snapshot:
   BASE.journal.  On resume it is preloaded as the replay table (output
   the dead run already emitted is verified, not re-emitted) and then
   appended to. *)
let open_journal t ~resume base =
  let jpath = base ^ ".journal" in
  let journal (e : Os.System.entry) =
    Os.Device.journal e.Os.System.process.Os.Process.typewriter
  in
  if resume && Sys.file_exists jpath then
    List.iter
      (fun line ->
        if String.trim line <> "" then
          match Hw.Journal.of_line line with
          | Ok (pname, record) -> (
              match Os.System.find t pname with
              | Some e -> Hw.Journal.preload (journal e) record
              | None ->
                  usage_error
                    (Printf.sprintf "journal %s names unknown process %s" jpath
                       pname))
          | Error e -> usage_error (Printf.sprintf "journal %s: %s" jpath e))
      (String.split_on_char '\n' (read_file jpath));
  let oc =
    open_out_gen
      (if resume then [ Open_append; Open_creat; Open_wronly ]
       else [ Open_trunc; Open_creat; Open_wronly ])
      0o644 jpath
  in
  at_exit (fun () -> try close_out oc with Sys_error _ -> ());
  List.iter
    (fun (e : Os.System.entry) ->
      Hw.Journal.set_sink (journal e) (fun record ->
          output_string oc (Hw.Journal.to_line ~pname:e.Os.System.pname record);
          output_char oc '\n';
          flush oc))
    (Os.System.entries t)

(* Checkpoints persist as an on-disk delta chain: the first due point
   writes the full BASE and opens a chain; each later one appends only
   the pages dirtied since (BASE.d0001, BASE.d0002, ...).  Every
   [gc_every] deltas the chain is folded: BASE is rewritten as the
   flatten of itself plus its deltas — byte-identical to a full capture
   at that point — the folded delta files are deleted, and the live
   chain is re-anchored on the new BASE.  The next due point is derived
   from the current cycle count by the same formula live and resumed,
   so both runs quiesce and capture at identical boundaries.  Returns
   the per-slice hook. *)
let checkpoint_chain t ~every base =
  let gc_every = 8 in
  let cycles () =
    Trace.Counters.cycles (Os.System.machine t).Isa.Machine.counters
  in
  let due () = ((cycles () / every) + 1) * every in
  let next_due = ref (due ()) in
  let chain = ref None in
  let gc_error err =
    usage_error (Format.asprintf "checkpoint gc: %a" Os.Snapshot.pp_error err)
  in
  let checkpoint () =
    match !chain with
    | None ->
        let c, image = Os.Snapshot.start_chain t in
        write_file base image;
        List.iter Sys.remove (delta_files base);
        chain := Some c
    | Some c ->
        write_file
          (Printf.sprintf "%s.d%04d" base (Os.Snapshot.chain_length c))
          (Os.Snapshot.capture_delta t c);
        if Os.Snapshot.chain_length c >= gc_every then begin
          let files = delta_files base in
          match
            Os.Snapshot.flatten ~base:(read_file base) (List.map read_file files)
          with
          | Error err -> gc_error err
          | Ok folded ->
              write_file base folded;
              List.iter Sys.remove files;
              Result.iter_error gc_error (Os.Snapshot.rebase c ~base:folded)
        end
  in
  fun () ->
    if cycles () >= !next_due then begin
      checkpoint ();
      next_due := due ()
    end

let run_multi ~mode (prog : Os.Program.t) ~typed ~inject ~checkpoint_every
    ~checkpoint_to ~restore_from ~kill_after obs =
  let t = Os.System.create ~mode ~store:(Os.Program.store prog) () in
  let machine = Os.System.machine t in
  enable_obs obs machine;
  or_usage (Os.Program.spawn t prog);
  (* --type feeds the first declared process. *)
  (match (typed, Os.System.entries t) with
  | Some text, e :: _ ->
      Os.Device.feed e.Os.System.process.Os.Process.typewriter text
  | _ -> ());
  Option.iter
    (fun spec ->
      ignore
        (Os.Process.attach_injector machine (resolve_plan spec)
           (List.map
              (fun (e : Os.System.entry) -> e.Os.System.process)
              (Os.System.entries t))))
    inject;
  Option.iter (restore_chain t) restore_from;
  (match (checkpoint_to, restore_from) with
  | Some base, _ | None, Some base ->
      open_journal t ~resume:(restore_from <> None) base
  | None, None -> ());
  let checkpoint =
    match (checkpoint_every, checkpoint_to) with
    | Some every, Some base -> checkpoint_chain t ~every base
    | _ -> ignore
  in
  let cycles () = Trace.Counters.cycles machine.Isa.Machine.counters in
  let on_slice () =
    checkpoint ();
    match kill_after with
    | Some c when cycles () >= c ->
        Printf.eprintf "ringsim: killed at %d modeled cycles\n" (cycles ());
        exit 0
    | _ -> ()
  in
  let (_ : (string * Os.Kernel.exit) list) =
    Os.System.run ?watchdog:obs.shared.watchdog ~on_slice t
  in
  (* The cumulative completion log, not this call's exits: a resumed
     run reports the exits the dead run observed before the checkpoint
     too, keeping stdout byte-identical. *)
  List.iter
    (fun (name, exit) -> Format.printf "%-10s %a@." name Os.Kernel.pp_exit exit)
    (Os.System.finished_log t);
  Format.printf "%a@." Trace.Counters.pp_snapshot
    (Trace.Counters.snapshot machine.Isa.Machine.counters);
  (* Segment numbering is per process in multi-process mode, so the
     shared exports use bare segment numbers. *)
  finish_obs obs machine ~segment_names:[];
  let diverged =
    List.filter
      (fun (e : Os.System.entry) ->
        match
          Hw.Journal.divergence
            (Os.Device.journal e.Os.System.process.Os.Process.typewriter)
        with
        | Some msg ->
            Printf.eprintf "ringsim: %s: %s\n" e.Os.System.pname msg;
            true
        | None -> false)
      (Os.System.entries t)
  in
  exit (if diverged = [] then 0 else 1)

let run_program file backend start ring trace listing dump show_map typed
    max_instructions inject campaigns checkpoint_every checkpoint_to
    restore_from kill_after obs =
  (* The backend name is validated before anything is read or built:
     an unknown one must exit 2 however the rest of the line looks. *)
  let mode = resolve_backend backend in
  check_shared obs.shared;
  Option.iter (run_campaigns ~mode inject obs) campaigns;
  (match checkpoint_every with
  | Some n when n <= 0 -> usage_error "--checkpoint-every must be positive"
  | _ -> ());
  (match (checkpoint_every, checkpoint_to) with
  | Some _, None -> usage_error "--checkpoint-every requires --checkpoint-to"
  | _ -> ());
  let prog = load_program file in
  if prog.processes <> [] then
    run_multi ~mode prog ~typed ~inject ~checkpoint_every ~checkpoint_to
      ~restore_from ~kill_after obs
  else begin
    (match
       (checkpoint_every, checkpoint_to, restore_from, kill_after,
        obs.shared.watchdog)
     with
    | None, None, None, None, None -> ()
    | _ ->
        usage_error
          "--checkpoint-every/--checkpoint-to/--restore/--kill-after/\
           --watchdog require %process declarations");
    run_single ~mode prog ~start ~ring ~trace ~listing ~dump ~show_map ~typed
      ~max_instructions ~inject obs
  end

(* ------------------------------------------------------------------ *)
(* serve: the sharded multi-domain serving fleet (lib/serve). *)

(* --snapshot BASE persistence: one image file per service class,
   BASE.PROGRAM.ITERATIONS.snap, so a later run can warm-boot its
   fleet from disk instead of assembling every class again. *)
let snapshot_file base (program, iterations) =
  Printf.sprintf "%s.%s.%d.snap" base program iterations

let load_preload base =
  let dir = Filename.dirname base in
  let prefix = Filename.basename base ^ "." in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           if
             String.length f > String.length prefix + 5
             && String.starts_with ~prefix f
             && Filename.check_suffix f ".snap"
           then
             let mid =
               String.sub f (String.length prefix)
                 (String.length f - String.length prefix - 5)
             in
             match String.rindex_opt mid '.' with
             | None -> None
             | Some i ->
                 let program = String.sub mid 0 i in
                 int_of_string_opt
                   (String.sub mid (i + 1) (String.length mid - i - 1))
                 |> Option.map (fun iters ->
                        ( (program, iters),
                          read_file (Filename.concat dir f) ))
           else None)

let save_images base fleet =
  let images =
    Array.to_list fleet
    |> List.concat_map Serve.Shard.images
    |> List.sort_uniq compare
  in
  (* Shards build identical images for a class, so keep the first. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (k, img) ->
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        write_file (snapshot_file base k) img
      end)
    images

(* --migrate WINDOW:FROM:TO — drain shard FROM at dispatch window
   WINDOW and move its classes to shard TO. *)
let parse_migrate spec =
  match List.map int_of_string_opt (String.split_on_char ':' spec) with
  | [ Some w; Some f; Some t ] -> (w, f, t)
  | _ -> usage_error "--migrate must be WINDOW:FROM:TO (three integers)"

(* The fleet report's [config] block: every flag as given. *)
let serve_config_json (cfg : Serve.Dispatcher.config) ~requests ~seed ~mix
    ~backend ~inject ~migrate (tc : Serve.Shard.trace_cfg) =
  let quote s =
    let b = Buffer.create 16 in
    Trace.Export.add_str b s;
    Buffer.contents b
  in
  let opt f = function None -> "null" | Some x -> f x in
  let int = string_of_int in
  [
    ("mode", quote "serve");
    ("shards", int cfg.shards);
    ("requests", int requests);
    ("seed", int seed);
    ("mix", quote mix);
    ("backend", opt quote backend);
    ("queue_cap", int cfg.queue_cap);
    ("batch_window", int cfg.batch_window);
    ("image_cap", int cfg.image_cap);
    ("replicas", int cfg.replicas);
    ("imbalance", int cfg.imbalance);
    ("pool", opt int cfg.pool);
    ("watchdog", opt int cfg.watchdog);
    ("inject", opt quote inject);
    ("sample", int tc.sample);
    ("sample_instr", int tc.instr);
    ("trace_cap", int tc.capacity);
    ("traced", string_of_bool (cfg.trace <> None));
    ("migrate", opt quote migrate);
    ("rolling_restart", opt int cfg.restart_every);
    ("autoscale", string_of_bool cfg.autoscale);
  ]

let run_serve shards requests seed mix_name backend_name queue_cap
    batch_window image_cap replicas imbalance pool snapshot inject
    report_json (s : shared) migrate_spec rolling_restart autoscale =
  (* Every flag is validated up front: a nonsensical value is a usage
     error (exit 2 with a message naming the flag), never a deep
     runtime failure. *)
  let backend = Option.map resolve_backend backend_name in
  if requests < 0 then usage_error "--requests must be nonnegative";
  check_shared s;
  (* Tracing is on whenever a trace-consuming output was requested.
     The sampler is seeded from the workload seed, so a traced run is
     a deterministic function of the same inputs as an untraced one. *)
  let traced = s.trace_out <> None || s.metrics_out <> None in
  let cfg =
    {
      Serve.Dispatcher.shards;
      queue_cap;
      imbalance;
      replicas;
      batch_window;
      image_cap;
      backend;
      watchdog = s.watchdog;
      inject = None;
      preload = [];
      pool;
      trace = (if traced then Some { s.trace with seed } else None);
      migrate = Option.map parse_migrate migrate_spec;
      restart_every = rolling_restart;
      autoscale;
    }
  in
  or_usage (Serve.Dispatcher.validate cfg);
  let mix = or_usage (Serve.Workload.find_mix mix_name) in
  let cfg =
    {
      cfg with
      inject = Option.map resolve_plan inject;
      preload = Option.fold ~none:[] ~some:load_preload snapshot;
    }
  in
  let r = Serve.Dispatcher.run cfg (Serve.Workload.generate ~mix ~seed ~requests) in
  let agg =
    Serve.Aggregate.build r.Serve.Dispatcher.models r.Serve.Dispatcher.outcomes
      r.Serve.Dispatcher.stats
  in
  Format.printf "%a@." Serve.Aggregate.pp agg;
  Option.iter
    (fun path ->
      write_file path (Serve.Aggregate.chrome_trace r.Serve.Dispatcher.outcomes))
    s.trace_out;
  (* The fleet-wide counter sum in the single-run metrics format, so
     the same scrapers work on fleet and single-machine runs. *)
  Option.iter
    (fun path ->
      let counters =
        match agg.Serve.Aggregate.fleet.Serve.Aggregate.counters with
        | Some c -> c
        | None -> Trace.Counters.snapshot (Trace.Counters.create ())
      in
      write_file path (Trace.Export.metrics_json ~counters ()))
    s.metrics_out;
  Option.iter
    (fun path ->
      let config =
        serve_config_json cfg ~requests ~seed ~mix:mix_name
          ~backend:backend_name ~inject ~migrate:migrate_spec s.trace
      in
      write_file path (Serve.Aggregate.report_json ~config agg))
    report_json;
  Option.iter (fun base -> save_images base r.Serve.Dispatcher.workers) snapshot;
  (* Exit 1 when the run executed but degraded: a request failed, was
     shed, or a shard had to be quarantined. *)
  let stats = r.Serve.Dispatcher.stats in
  let clean =
    stats.Serve.Dispatcher.ok = stats.Serve.Dispatcher.completed
    && stats.Serve.Dispatcher.shed = 0
    && stats.Serve.Dispatcher.quarantined = 0
  in
  exit (if clean then 0 else 1)

open Cmdliner

let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")

let backend_doc =
  "Protection backend: $(b,hw) (hardware rings), $(b,645) (software \
   rings, the GE-645 baseline) or $(b,cap) (the capability machine).  An \
   unknown name is a usage error (exit 2)."

let backend =
  Arg.(value & opt string "hw" & info [ "b"; "backend"; "m"; "mode" ]
         ~docv:"BACKEND" ~doc:backend_doc)

let fleet_backend =
  Arg.(value & opt (some string) None
       & info [ "b"; "backend" ] ~docv:"BACKEND"
         ~doc:(backend_doc
               ^ "  Forces every serving shard or arena wave onto that \
                  backend; unset, each serving class keeps its own mode \
                  and the arena runs hardware rings."))

let report_json =
  Arg.(value & opt (some string) None & info [ "report-json" ] ~docv:"FILE"
         ~doc:"Write the run's report as JSON: the fleet report (config, \
               fleet-wide counters, latency and ring attribution, \
               dispatch statistics, per-shard summaries) for \
               $(b,serve), the campaign report (parameters, verdicts, \
               exits, auditor findings, per-tenant bills) for \
               $(b,arena).  Byte-deterministic.")

let start =
  Arg.(value & opt string "main" & info [ "start" ] ~docv:"SEG[$ENTRY]"
         ~doc:"Start location; entry defaults to 'start'.")

let ring =
  Arg.(value & opt int 4 & info [ "ring" ] ~docv:"N"
         ~doc:"Ring of execution to start in.")

let trace =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the execution trace.")

let listing =
  Arg.(value & flag & info [ "listing" ]
         ~doc:"Print each segment's assembly listing before running.")

let dump =
  Arg.(value & flag & info [ "dump" ]
         ~doc:"Disassemble each loaded segment after the run.")

let typed =
  Arg.(value & opt (some string) None & info [ "type" ] ~docv:"TEXT"
         ~doc:"Feed TEXT to the process's typewriter before running.")

let show_map =
  Arg.(value & flag & info [ "map" ]
         ~doc:"Print the virtual memory map before running.")

let budget =
  Arg.(value & opt int 1_000_000 & info [ "budget" ] ~docv:"N"
         ~doc:"Instruction budget.")

let events_out =
  Arg.(value & opt (some string) None & info [ "events-out" ] ~docv:"FILE"
         ~doc:"Write the raw event log as JSON Lines, one stamped event \
               per line.")

let metrics_prom =
  Arg.(value & opt (some string) None & info [ "metrics-prom" ] ~docv:"FILE"
         ~doc:"Write the same metrics in Prometheus text exposition format.")

let profile =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"Print per-ring and per-segment modeled-cycle tables and \
               span latency percentiles after the run.")

let inject =
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SEED|SPEC"
         ~doc:"Attach the deterministic fault injector: an integer seeds \
               the built-in default plan, anything else names a plan file \
               (directives: seed, fault_budget, io_retry_limit, rule).")

let campaigns =
  Arg.(value & opt (some int) None & info [ "campaigns" ] ~docv:"N"
         ~doc:"Run N security-under-fault campaigns on the built-in chaos \
               workload instead of a program file, printing the aggregate \
               report (with --metrics-out, also writing it as JSON). \
               Exits non-zero if any protection invariant was violated.")

let checkpoint_every =
  Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Write a checkpoint image every N modeled cycles (at the \
               next scheduling-slice boundary).  Requires \
               $(b,--checkpoint-to) and %process declarations.")

let checkpoint_to =
  Arg.(value & opt (some string) None & info [ "checkpoint-to" ] ~docv:"BASE"
         ~doc:"Checkpoint chain path: the first due point writes the full \
               image at BASE, later ones append dirty-page deltas as \
               BASE.d0001, BASE.d0002, ...; every 8 deltas the chain is \
               folded back into BASE and the delta files deleted.  Device \
               output is journalled write-ahead to BASE.journal.")

let restore_from =
  Arg.(value & opt (some string) None & info [ "restore" ] ~docv:"BASE"
         ~doc:"Resume from the checkpoint chain at BASE: the base image \
               plus any BASE.dNNNN delta files are validated and applied \
               oldest-first (mixed or damaged links are refused), and \
               BASE.journal is preloaded so already-emitted device output \
               is verified and skipped rather than re-emitted.  Must be \
               run with the same program file and flags that wrote the \
               chain.")

let kill_after =
  Arg.(value & opt (some int) None & info [ "kill-after" ] ~docv:"CYCLES"
         ~doc:"Abort the run at the first slice boundary at or past \
               CYCLES modeled cycles (deterministic kill point for \
               checkpoint/restore testing).")

(* Flags shared by the program run and serve: one term each. *)

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON file (load in Perfetto or \
               chrome://tracing; 1us = 1 modeled cycle).  Under \
               $(b,serve), every request is traced and the file merges \
               the fleet: one Chrome process per request (pid = request \
               id), rings as threads, byte-deterministic for a given \
               (mix, seed, requests, $(b,--sample)).")

let metrics_out =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write a JSON metrics snapshot: every counter, span latency \
               histograms and the cycle profile.  Under $(b,serve), \
               every request is traced and the file holds the \
               fleet-wide counter sum in the same format; with \
               $(b,--campaigns), the campaign report.")

let sample =
  Arg.(value & opt int 1 & info [ "sample" ] ~docv:"N"
         ~doc:"Deterministic 1-in-N trace sampling: events and spans are \
               kept when a seeded hash of their sequence number selects \
               them, so the same workload samples the same records every \
               run.  1 (the default) keeps everything; discards are \
               counted and exported.")

let sample_instr =
  Arg.(value & opt int 0 & info [ "sample-instr" ] ~docv:"N"
         ~doc:"Sample the instruction stream at its own deterministic \
               1-in-N rate, independent of $(b,--sample)'s rate for \
               calls, returns, traps and other control-flow events \
               (same seeded predicate, same sequence numbers — only \
               the interval differs).  0 (the default) follows \
               $(b,--sample).")

let trace_cap default =
  Arg.(value & opt int default & info [ "trace-cap" ] ~docv:"N"
         ~doc:"Event ring-buffer capacity in events (per request under \
               $(b,serve)); when full, the oldest events are overwritten \
               and counted as dropped.")

let watchdog =
  Arg.(value & opt (some int) None & info [ "watchdog" ] ~docv:"N"
         ~doc:"Quarantine a process that retires N instructions without \
               a fault, ring crossing or channel activity (multi-process \
               programs only).  Under $(b,serve), the request's shard is \
               quarantined and its queue redistributed.")

let shared ~trace_cap:default =
  let mk trace_out metrics_out sample instr capacity watchdog =
    {
      trace_out;
      metrics_out;
      trace = { Serve.Shard.sample; seed = 0; capacity; instr };
      watchdog;
    }
  in
  Term.(
    const mk $ trace_out $ metrics_out $ sample $ sample_instr
    $ trace_cap default $ watchdog)

let obs =
  let mk shared events_out metrics_prom profile =
    { shared; events_out; metrics_prom; profile }
  in
  Term.(
    const mk
    $ shared ~trace_cap:Trace.Event.default_capacity
    $ events_out $ metrics_prom $ profile)

(* serve flags *)

let serve_shards =
  Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
         ~doc:"Fleet size: shard workers, each a machine on its own \
               domain.")

let serve_requests =
  Arg.(value & opt int 200 & info [ "requests" ] ~docv:"M"
         ~doc:"Requests to generate.")

let serve_seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
         ~doc:"Workload seed; the whole run is a deterministic function \
               of (mix, seed, requests) and the fleet flags.")

let serve_mix =
  Arg.(value & opt string "standard" & info [ "mix" ] ~docv:"NAME"
         ~doc:"Request mix: standard, crossing or uniform.")

let serve_queue_cap =
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N"
         ~doc:"Per-shard queue bound per dispatch window; requests that \
               find every live queue full are shed and counted.")

let serve_batch_window =
  Arg.(value & opt int 4096 & info [ "batch-window" ] ~docv:"CYCLES"
         ~doc:"Virtual cycles per dispatch window (arrival batching).")

let serve_image_cap =
  Arg.(value & opt int 8 & info [ "image-cap" ] ~docv:"N"
         ~doc:"Boot-image LRU capacity per shard; 0 disables the cache \
               (every request cold-boots).")

let serve_replicas =
  Arg.(value & opt int 16 & info [ "replicas" ] ~docv:"N"
         ~doc:"Virtual points per shard on the consistent-hash ring.")

let serve_imbalance =
  Arg.(value & opt int 4 & info [ "imbalance" ] ~docv:"N"
         ~doc:"Least-loaded override threshold: leave a request on its \
               hash-preferred shard unless that queue exceeds the \
               shortest live queue by more than N.")

let serve_snapshot =
  Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"BASE"
         ~doc:"Warm-boot the fleet from BASE.PROGRAM.ITERATIONS.snap \
               images when present (restored with full validation), and \
               write the run's boot images back to the same files.")

let serve_pool =
  Arg.(value & opt (some int) None & info [ "pool" ] ~docv:"N"
         ~doc:"Worker domains executing the requests (the calling \
               domain counts as one); defaults to min(shards, host \
               cores).  Affects host wall-clock only — the fleet report \
               is identical for every pool size.")

let serve_migrate =
  Arg.(value & opt (some string) None
       & info [ "migrate" ] ~docv:"WINDOW:FROM:TO"
         ~doc:"Live shard migration: at dispatch window WINDOW drain \
               shard FROM — its queued requests are re-dispatched in \
               arrival order, never dropped — retire it from the \
               rotation, and route its service classes to shard TO.  \
               Outcomes are placement-independent, so the report's \
               fleet section is byte-identical with or without the \
               migration (as long as nothing is shed).")

let serve_rolling_restart =
  Arg.(value & opt (some int) None
       & info [ "rolling-restart" ] ~docv:"N"
         ~doc:"Rolling restarts under load: every N dispatch windows \
               take the next shard (in id order) down for exactly one \
               window.  The ring routes around it, nothing queues on \
               it — zero dropped requests — and it returns with a \
               cold boot-image cache.")

let serve_autoscale =
  Arg.(value & flag
       & info [ "autoscale" ]
         ~doc:"Queue-depth-driven autoscaling: start routing on one \
               active shard and grow/shrink the active set window by \
               window from routed queue depth, with $(b,--shards) as \
               the ceiling.  Purely modeled — placement stays a \
               deterministic function of the workload and flags.")

let serve_cmd =
  let doc = "run a sharded serving fleet over the ring machines" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates a seeded, deterministic request stream over the \
         built-in program catalog (ring crossings under both \
         implementations, same-ring gated calls, outward calls, \
         argument passing, demand paging), routes it over $(b,--shards) \
         worker machines — consistent hashing on the service class with \
         a least-loaded override — and executes the stream on \
         $(b,--pool) OCaml domains that each claim the next request \
         in turn.  Workers warm-boot each request from a cached \
         checkpoint image, so steady-state serving never re-assembles \
         a program.  Cross-shard counters, latency histograms and ring \
         profiles are merged into one fleet report whose fleet section \
         is independent of the shard count and pool size (see \
         docs/SCALING.md).";
      `S Manpage.s_exit_status;
      `P
        "$(tname) exits 0 when every request was served and exited \
         cleanly; 1 when the fleet ran degraded (a request failed, was \
         shed by backpressure, or a shard was quarantined); and 2 on \
         usage, injection-plan or snapshot errors.";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run_serve $ serve_shards $ serve_requests $ serve_seed
      $ serve_mix $ fleet_backend $ serve_queue_cap $ serve_batch_window
      $ serve_image_cap $ serve_replicas $ serve_imbalance $ serve_pool
      $ serve_snapshot $ inject $ report_json
      $ shared ~trace_cap:Serve.Shard.default_trace_capacity
      $ serve_migrate $ serve_rolling_restart $ serve_autoscale)

(* {2 The arena subcommand} *)

let run_arena tenants arena_seed profile backend_name quota_cycles quota_mem
    quota_faults quota_io shards inject report_json =
  (* Every flag validated up front: a nonsensical value is a usage
     error (exit 2, message naming the flag), never a deep failure. *)
  let mode = Option.map resolve_backend backend_name in
  if arena_seed < 0 then usage_error "--arena-seed must be nonnegative";
  let quota =
    {
      Os.Arena.cycles = quota_cycles;
      mem = quota_mem;
      faults = quota_faults;
      io = quota_io;
    }
  in
  or_usage (Serve.Tenants.validate ~profile ~tenants ~shards ~quota ());
  let plan = Option.map resolve_plan inject in
  let population =
    Serve.Tenants.generate ~profile ~seed:arena_seed ~tenants ()
  in
  let report =
    Serve.Tenants.run_sharded ?mode ?inject:plan ~quota ~shards
      ~seed:arena_seed population
  in
  Os.Arena.print_table report;
  Format.printf "@.%a@." Os.Arena.pp_report report;
  (match report_json with
  | Some file -> write_file file (Os.Arena.report_json report)
  | None -> ());
  if report.Os.Arena.violations <> [] then exit 1

let arena_tenants =
  Arg.(value & opt int 64 & info [ "tenants" ] ~docv:"N"
         ~doc:"Number of tenant programs in the campaign.")

let arena_seed =
  Arg.(value & opt int 1 & info [ "arena-seed" ] ~docv:"SEED"
         ~doc:"Population seed: the tenant kinds, their parameters and \
               therefore the whole billing report are a pure function \
               of (profile, seed, tenants).")

let arena_profile =
  Arg.(value & opt string "standard" & info [ "profile" ] ~docv:"NAME"
         ~doc:"Population profile: $(b,standard) (mostly honest, with \
               gate squeezers, ring maximizers, stack-bracket forgers, \
               cache probes, quota spinners and memory hogs) or \
               $(b,cooperative) (honest kinds only).")

let arena_quota_cycles =
  Arg.(value & opt int Os.Arena.default_quota.Os.Arena.cycles
       & info [ "quota-cycles" ] ~docv:"N"
         ~doc:"Per-tenant modeled-cycle allowance; a tenant billed this \
               many cycles is quarantined mid-slice, to the \
               instruction.")

let arena_quota_mem =
  Arg.(value & opt int Os.Arena.default_quota.Os.Arena.mem
       & info [ "quota-mem" ] ~docv:"WORDS"
         ~doc:"Per-tenant virtual-memory allowance in words, checked at \
               admission and after every slice.")

let arena_quota_faults =
  Arg.(value & opt int Os.Arena.default_quota.Os.Arena.faults
       & info [ "quota-faults" ] ~docv:"N"
         ~doc:"Per-tenant fault allowance (access violations, page \
               faults, injected-fault recoveries).")

let arena_quota_io =
  Arg.(value & opt int Os.Arena.default_quota.Os.Arena.io
       & info [ "quota-io" ] ~docv:"N"
         ~doc:"Per-tenant channel-operation allowance (SIOC/SIOT \
               connects).")

let arena_shards =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
         ~doc:"Domains to spread the campaign's waves over.  Affects \
               host wall-clock only: the report is byte-identical for \
               every shard count.")

let arena_cmd =
  let doc = "host untrusted tenant programs under quotas and audits" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates a seeded population of $(b,--tenants) guest \
         programs — honest computations and ring-crossing services \
         mixed with adversarial probes (gate squeezing, argument-chain \
         ring maximization, stack-bracket forgery, self-modifying-code \
         cache probes, quota-exhaustion spinners, admission-time \
         memory hogs) — and runs them in outer rings of simulated \
         machines, eight tenants per machine, optionally spread over \
         $(b,--shards) domains.  Every cycle, fault and channel \
         operation is billed to the tenant that caused it; a quota \
         breach quarantines that tenant alone while its co-tenants \
         run on.  After every quarantine and at every wave end the \
         SDW auditor and the cross-tenant region auditor must find \
         the protection state intact, and with $(b,--inject) the same \
         audit runs after every fault-recovery decision.";
      `S Manpage.s_exit_status;
      `P
        "$(tname) exits 0 when the campaign ran and the auditors \
         found zero violations (quarantines are expected, not \
         errors); 1 when any audit failed; and 2 on usage or \
         injection-plan errors.";
    ]
  in
  Cmd.v (Cmd.info "arena" ~doc ~man)
    Term.(
      const run_arena $ arena_tenants $ arena_seed $ arena_profile
      $ fleet_backend $ arena_quota_cycles $ arena_quota_mem
      $ arena_quota_faults $ arena_quota_io $ arena_shards $ inject
      $ report_json)

let run_term =
  Term.(
    const run_program $ file $ backend $ start $ ring $ trace $ listing
    $ dump $ show_map $ typed $ budget $ inject $ campaigns
    $ checkpoint_every $ checkpoint_to $ restore_from $ kill_after $ obs)

let ringsim_doc = "simulate the Schroeder-Saltzer protection-ring processor"

let ringsim_man =
  [
    `S Manpage.s_description;
    `P
      "Invoked with a program $(i,FILE), $(tname) assembles and runs \
       it under either ring implementation (single- or multi-process, \
       with optional fault injection, checkpoint/restore and \
       observability exports); $(b,--campaigns) runs \
       security-under-fault campaigns instead.  The $(b,serve) \
       subcommand drives a sharded multi-domain serving fleet over \
       the same machines.";
    `S Manpage.s_exit_status;
    `P
      "$(tname) exits 0 on success; 1 when the run itself fails (a \
       protection-invariant violation under $(b,--campaigns), or a \
       resumed run whose device output diverges from the write-ahead \
       journal); and 2 on usage, file, injection-plan or snapshot \
       errors (unreadable, truncated, corrupt, version-mismatched or \
       audit-rejected images included).";
  ]

let group_cmd =
  Cmd.group ~default:run_term
    (Cmd.info "ringsim" ~doc:ringsim_doc ~man:ringsim_man)
    [ serve_cmd; arena_cmd ]

let legacy_cmd =
  Cmd.v (Cmd.info "ringsim" ~doc:ringsim_doc ~man:ringsim_man) run_term

(* [Cmd.group] refuses positional arguments that are not command
   names, which would reject the original [ringsim FILE] form.
   Dispatch by hand: the group takes the subcommand, bare
   --help/--version and the no-argument case (so the top-level help
   page lists COMMANDS); everything else is the classic
   single-command CLI, positionals and all. *)
let () =
  let grouped =
    Array.length Sys.argv <= 1
    ||
    match Sys.argv.(1) with
    | "serve" | "arena" | "--version" -> true
    | s -> String.starts_with ~prefix:"--help" s
  in
  exit (Cmd.eval (if grouped then group_cmd else legacy_cmd))
