(* catalog: long single-process runs through Os.Kernel.run of the
   crossing flavours the paper compares, the same-ring baseline, the
   audited subsystem (C2) and a paged crossing with an argument.  The
   processes are built before the chunk, so nearly all timed work is
   the interpreter (Isa.Cpu/Exec/Machine) with warm host caches: no
   rewinds, no machine construction.  This is the workload a faster
   interpreter moves, and the control where a cheaper rewind changes
   nothing.  An op is 10^6 simulated instructions; the catalog does
   not depend on the seed. *)

let max_instructions = 50_000_000

(* C2: user B reads a sensitive segment only through an audit
   procedure in ring 2 that counts each reference. *)
let audited_sources iterations =
  let proc ?(gates = 0) ~execute_in ~callable_from () =
    Wl.wildcard
      (Rings.Access.procedure_segment ~gates ~execute_in ~callable_from ())
  in
  let data = Wl.wildcard (Rings.Access.data_segment ~writable_to:2 ~readable_to:2 ()) in
  [
    ( "consumer",
      proc ~execute_in:4 ~callable_from:4 (),
      Printf.sprintf
        "start:  lda =%d\n\
        \        sta pr6|5\n\
         loop:   eap pr1, ret\n\
        \        spr pr1, pr6|1\n\
        \        lda =0\n\
        \        sta pr6|2\n\
        \        eap pr2, pr6|2\n\
        \        call lnk,*\n\
         ret:    lda pr6|5\n\
        \        sba =1\n\
        \        sta pr6|5\n\
        \        tnz loop\n\
        \        mme =2\n\
         lnk:    .its 0, audit$entry\n"
        iterations );
    ( "audit",
      proc ~gates:1 ~execute_in:2 ~callable_from:5 (),
      "entry:  .gate impl\n\
       impl:   eap pr5, pr0|0,*\n\
      \        spr pr6, pr5|0\n\
      \        eap pr6, pr5|0\n\
      \        eap pr1, pr6|8\n\
      \        spr pr1, pr0|0\n\
      \        aos log,*\n\
      \        lda datum,*\n\
      \        spr pr6, pr0|0\n\
      \        eap pr6, pr6|0,*\n\
      \        retn pr6|1,*\n\
       log:    .its 0, auditlog$count\n\
       datum:  .its 0, sensitive$cell\n" );
    ("sensitive", data, "cell:   .word 1234\n");
    ("auditlog", data, "count:  .word 0\n");
  ]

let build_audited iterations =
  let sources = audited_sources iterations in
  let store = Os.Store.create () in
  List.iter
    (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
    sources;
  let p = Os.Process.create ~store ~user:"bob" () in
  match Os.Process.add_segments p (List.map (fun (n, _, _) -> n) sources) with
  | Error e -> Error e
  | Ok () -> (
      match Os.Process.start p ~segment:"consumer" ~entry:"start" ~ring:4 with
      | Error e -> Error e
      | Ok () -> Ok p)

let crossing config ?(with_argument = false) iterations () =
  Os.Scenario.crossing ~config ~caller_ring:4 ~callee_ring:1 ~with_argument
    ~iterations ()

(* Sized so each run is a few hundred thousand instructions. *)
let programs =
  [
    ("crossing-hw", crossing Os.Scenario.default_config 20_000);
    ("crossing-645", crossing Os.Scenario.software_config 10_000);
    ("crossing-cap", crossing Os.Scenario.capability_config 20_000);
    ( "same-ring",
      fun () ->
        Os.Scenario.same_ring_pair ~config:Os.Scenario.default_config ~ring:4
          ~iterations:20_000 () );
    ("audited", fun () -> build_audited 20_000);
    ( "paged-crossing",
      crossing
        { Os.Scenario.default_config with Os.Scenario.paged = true }
        ~with_argument:true 10_000 );
  ]

type expect = { runs : (string * (int * int)) list  (** cycles, instrs *) }

let expected =
  {
    runs =
      [
        ("crossing-hw", (1_080_029, 420_004));
        ("crossing-645", (3_170_035, 210_004));
        ("crossing-cap", (1_240_029, 420_004));
        ("same-ring", (1_080_027, 420_004));
        ("audited", (1_160_030, 420_003));
        ("paged-crossing", (1_021_001, 260_005));
      ];
  }

let build tr =
  List.map
    (fun (name, make) ->
      match Tracer.span tr "os.scenario.build" make with
      | Ok p -> (name, p)
      | Error e -> Wl.fail "catalog: cannot build %s: %s" name e)
    programs

let counters (p : Os.Process.t) = p.Os.Process.machine.Isa.Machine.counters

let setup ?(expect = expected) ~seed:_ tr =
  let procs = ref (Some (build tr)) in
  let exits = ref [] in
  let sdw = ref (0, 0) and ptw = ref (0, 0) and icache = ref (0, 0) in
  let add r (h, m) = r := (fst !r + h, snd !r + m) in
  let prepare tr =
    exits := [];
    if Option.is_none !procs then procs := Some (build tr)
  in
  let chunk tr =
    let ps = Option.get !procs in
    procs := None;
    exits :=
      List.map
        (fun (name, p) ->
          let exit =
            Tracer.span tr ~counters:(counters p) ("os.kernel.run/" ^ name)
              (fun () -> Os.Kernel.run ~max_instructions p)
          in
          (name, p, exit))
        ps
  in
  let verify () =
    List.fold_left
      (fun (acc : Wl.tally) (name, p, exit) ->
        let c = counters p in
        let cycles = Trace.Counters.cycles c
        and instrs = Trace.Counters.instructions c in
        let ok =
          exit = Os.Kernel.Exited
          && List.assoc_opt name expect.runs = Some (cycles, instrs)
        in
        let ops = float_of_int instrs /. 1e6 in
        { ops = acc.ops +. ops; failed = (acc.failed +. if ok then 0.0 else ops) })
      { Wl.ops = 0.0; failed = 0.0 } !exits
  in
  let drill _tr =
    List.iter
      (fun (_, p, _) ->
        let s = Trace.Counters.snapshot (counters p) in
        add sdw (s.sdw_cache_hits, s.sdw_cache_misses);
        add ptw (s.ptw_tlb_hits, s.ptw_tlb_misses);
        add icache (s.icache_hits, s.icache_misses))
      !exits;
    { Wl.ops = 0.0; failed = 0.0 }
  in
  let layers tr =
    let hit (h, m) = Wl.ratio h (h + m) in
    List.map
      (fun (name, _) ->
        let runs = Tracer.named tr ("os.kernel.run/" ^ name) in
        let ns = List.fold_left (fun a s -> a + Tracer.duration_ns s) 0 runs in
        let n = List.fold_left (fun a s -> a + Tracer.instrs s) 0 runs in
        ("isa.ns_per_instr." ^ name, Wl.ratio ns n, "ns/instr"))
      programs
    @ [
        ("hw.assoc.sdw_hit_ratio.catalog", hit !sdw, "ratio");
        ("hw.assoc.ptw_hit_ratio.catalog", hit !ptw, "ratio");
        ("hw.assoc.icache_hit_ratio.catalog", hit !icache, "ratio");
      ]
  in
  { Wl.prepare; chunk; verify; drill; layers }

let workload = { Wl.name = "catalog"; setup = (fun ~seed tr -> setup ~seed tr) }
