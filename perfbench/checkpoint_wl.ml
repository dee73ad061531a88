(* checkpoint: two processes sharing a counter, checkpointed on every
   scheduler slice through Os.Snapshot.capture_delta, the chain folded
   every 8 deltas with flatten + rebase as `ringsim --checkpoint-every`
   does, and finally resumed on a fresh system with restore_chain.
   The only workload where writing and folding the snapshot chain does
   most of the work: serve reads images, this one writes and folds
   them, so a codec change that trades one side for the other shows.
   An op is one checkpoint taken; the folds and the final resume are
   timed work too.  The workload does not depend on the seed. *)

let n1 = 40_000
let n2 = 30_000
let quantum = 2_500
let max_slices = 100_000
let fold_every = 8

type expect = { cycles : int  (** Modeled cycles of the whole run. *) }

let expected = { cycles = 1_051_448 }

let bump_source n =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta pr6|5\n\
     loop:   aos cell,*\n\
    \        lda pr6|5\n\
    \        sba =1\n\
    \        sta pr6|5\n\
    \        tnz loop\n\
    \        mme =2\n\
     cell:   .its 0, counter$value\n"
    n

let build_system tr =
  let proc4 = Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 () in
  let store = Os.Store.create () in
  List.iter
    (fun (name, access, src) ->
      Tracer.span tr "os.store.add_source" (fun () ->
          Os.Store.add_source store ~name ~acl:(Wl.wildcard access) src))
    [
      ("bump_a", proc4, bump_source n1);
      ("bump_b", proc4, bump_source n2);
      ( "counter",
        Rings.Access.data_segment ~writable_to:4 ~readable_to:4 (),
        "value:  .word 0\n" );
    ];
  let sys =
    Tracer.span tr "os.system.create" (fun () -> Os.System.create ~store ())
  in
  let spawn ?shared pname user segments start =
    match
      Tracer.span tr "os.system.spawn" (fun () ->
          Os.System.spawn sys ?shared ~pname ~user ~segments
            ~start:(start, "start") ~ring:4)
    with
    | Ok _ -> ()
    | Error e -> Wl.fail "checkpoint: cannot spawn %s: %s" pname e
  in
  spawn "pa" "alice" [ "bump_a"; "counter" ] "bump_a";
  spawn ~shared:[ ("counter", "pa") ] "pb" "bob" [ "bump_b" ] "bump_b";
  sys

let cycles sys = Trace.Counters.cycles (Os.System.machine sys).Isa.Machine.counters

(* The set-up proper: the system plus the chain's full base image. *)
let open_chain tr =
  let sys = build_system tr in
  let chain, base =
    Tracer.span tr "os.snapshot.start_chain" (fun () ->
        Os.Snapshot.start_chain sys)
  in
  (sys, chain, base)

type outcome = {
  sys : Os.System.t;
  fresh : Os.System.t;
  taken : int;
  chain_ok : bool;
  restored : bool;
}

let setup ?(expect = expected) ~seed:_ tr =
  let pending = ref (Some (open_chain tr)) in
  let fresh = ref None in
  let plain = ref None in
  let last = ref None in
  let delta_bytes = ref [] and base_bytes = ref [] in
  let prepare tr =
    last := None;
    if Option.is_none !pending then pending := Some (open_chain tr);
    fresh := Some (build_system tr);
    (* The same run without checkpoints, once: its modeled cycles are
       what every checkpointed run must reproduce. *)
    if Option.is_none !plain then begin
      let p = build_system (Tracer.create ~on:false) in
      ignore (Os.System.run ~quantum ~max_slices p);
      plain := Some (cycles p)
    end
  in
  let chunk tr =
    let sys, chain, base0 = Option.get !pending in
    let fresh = Option.get !fresh in
    pending := None;
    let base = ref base0 and deltas = ref [] in
    let taken = ref 0 and chain_ok = ref true in
    let on_slice () =
      let d =
        Tracer.span tr "os.snapshot.capture_delta" (fun () ->
            Os.Snapshot.capture_delta sys chain)
      in
      incr taken;
      if Tracer.enabled tr then
        delta_bytes := float_of_int (String.length d) :: !delta_bytes;
      deltas := d :: !deltas;
      if Os.Snapshot.chain_length chain >= fold_every then
        match
          Tracer.span tr "os.snapshot.flatten" (fun () ->
              Os.Snapshot.flatten ~base:!base (List.rev !deltas))
        with
        | Error _ -> chain_ok := false
        | Ok folded -> (
            match
              Tracer.span tr "os.snapshot.rebase" (fun () ->
                  Os.Snapshot.rebase chain ~base:folded)
            with
            | Error _ -> chain_ok := false
            | Ok () ->
                if Tracer.enabled tr then
                  base_bytes := float_of_int (String.length folded) :: !base_bytes;
                base := folded;
                deltas := [])
    in
    let counters = (Os.System.machine sys).Isa.Machine.counters in
    ignore
      (Tracer.span tr ~counters "os.system.run" (fun () ->
           Os.System.run ~quantum ~max_slices ~on_slice sys));
    let restored =
      Tracer.span tr "os.snapshot.restore_chain" (fun () ->
          Os.Snapshot.restore_chain fresh ~base:!base (List.rev !deltas))
      = Ok ()
    in
    last := Some { sys; fresh; taken = !taken; chain_ok = !chain_ok; restored }
  in
  let verify () =
    let o = Option.get !last in
    let c = cycles o.sys in
    let ok =
      o.chain_ok && o.restored && Some c = !plain && c = expect.cycles
      && cycles o.fresh = c
    in
    let ops = float_of_int o.taken in
    { Wl.ops; failed = (if ok then 0.0 else ops) }
  in
  let layers tr =
    let us name = Tracer.durations_us tr name in
    let ms name = List.map (fun x -> x /. 1e3) (us name) in
    (* Interpreter time: the run span minus the checkpoints it called. *)
    let self = Tracer.self_ns tr in
    let run_self = ref 0 and run_instr = ref 0 in
    Array.iteri
      (fun i s ->
        if s.Tracer.name = "os.system.run" then begin
          run_self := !run_self + self.(i);
          run_instr := !run_instr + Tracer.instrs s
        end)
      (Tracer.spans tr);
    let capture = us "os.snapshot.capture_delta" in
    [
      ("os.snapshot.capture_delta_us.p50", Wl.median capture, "us");
      ("os.snapshot.capture_delta_us.p99", Wl.percentile 99.0 capture, "us");
      ("os.snapshot.flatten_ms.p50", Wl.median (ms "os.snapshot.flatten"), "ms");
      ("os.snapshot.rebase_us.p50", Wl.median (us "os.snapshot.rebase"), "us");
      ( "os.snapshot.restore_chain_ms",
        Wl.median (ms "os.snapshot.restore_chain"),
        "ms" );
      ("os.snapshot.delta_bytes.mean", Wl.mean !delta_bytes, "bytes");
      ("os.snapshot.base_bytes", Wl.mean !base_bytes, "bytes");
      ( "os.snapshot.start_chain_ms",
        Wl.median (ms "os.snapshot.start_chain"),
        "ms" );
      ("isa.ns_per_instr.checkpoint", Wl.ratio !run_self !run_instr, "ns/instr");
    ]
  in
  {
    Wl.prepare;
    chunk;
    verify;
    drill = (fun _ -> { Wl.ops = 0.0; failed = 0.0 });
    layers;
  }

let workload =
  { Wl.name = "checkpoint"; setup = (fun ~seed tr -> setup ~seed tr) }
