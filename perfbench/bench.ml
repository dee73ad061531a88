(* The host-time benchmark.

     bench.exe --workload serve|catalog|arena|checkpoint --seed N
               --seconds S --trace 0|1

   --trace 0 measures one workload for S seconds with tracing off and
   prints its end-to-end metrics.  --trace 1 is the per-layer run.  So
   that every per-layer metric is measured in every traced run, it
   measures all four workloads, S/4 seconds each, each in a child
   process (--share), with spans around the calls into each layer.  The
   last line of standard output is one JSON object: {"correct",
   "attempted", "failed", "metrics"}.  See README.md. *)

open Perfbench

let workloads =
  [
    Serve_wl.workload; Catalog_wl.workload; Arena_wl.workload;
    Checkpoint_wl.workload;
  ]

let setup_reps = 11
let traced_setup_reps = 3

(* A measurement bracketed by the reference kernel. *)
type sample = { raw_s : float; k_before : float; k_after : float }

let calibrated s = s.raw_s *. Calib.factor ~before:s.k_before ~after:s.k_after

let bracket f =
  let k_before = Calib.kernel_ms () in
  let t0 = Calib.now_ns () in
  let v = f () in
  let raw_s = float_of_int (Calib.now_ns () - t0) /. 1e9 in
  let k_after = Calib.kernel_ms () in
  (v, { raw_s; k_before; k_after })

(* Set up [n] times, each from a collected heap, keeping only the last
   instance alive so earlier ones cannot inflate the peak. *)
let repeat_setup n setup =
  let inst = ref None and samples = ref [] in
  for _ = 1 to n do
    inst := None;
    Gc.full_major ();
    let i, s = bracket setup in
    inst := Some i;
    samples := s :: !samples
  done;
  (Option.get !inst, List.rev !samples)

let kernel_of samples =
  Wl.median (List.concat_map (fun s -> [ s.k_before; s.k_after ]) samples)

(* ------------------------------------------------------------------ *)

type phase = {
  chunks : (sample * Wl.tally) list;
  rates : float list;  (** Calibrated ops/s per chunk. *)
  raw_rates : float list;
}

(* One chunk: prepare, collect, then the timed chunk between two
   kernel runs, then its checks.  The full major collection keeps one
   chunk's garbage off the next one's time, and makes the peak resident
   set a property of one chunk rather than of where the GC happened to
   be when the run ended. *)
let one_chunk (inst : Wl.instance) tr ~drill =
  let root name f = if Tracer.enabled tr then Tracer.root tr name f else f () in
  root "bench.prepare" (fun () -> inst.prepare tr);
  Gc.full_major ();
  let (), s = bracket (fun () -> root "bench.chunk" (fun () -> inst.chunk tr)) in
  let t = inst.verify () in
  if drill then
    let d = root "bench.drill" (fun () -> inst.drill tr) in
    (s, { t with Wl.failed = t.Wl.failed +. d.Wl.failed })
  else (s, t)

let phase_of chunks =
  {
    chunks;
    rates = List.map (fun (s, (t : Wl.tally)) -> t.ops /. calibrated s) chunks;
    raw_rates = List.map (fun (s, (t : Wl.tally)) -> t.ops /. s.raw_s) chunks;
  }

(* Chunks until [deadline] (monotonic ns), at least one. *)
let run_chunks inst tr ~deadline ~drill =
  let rec loop acc =
    let acc = one_chunk inst tr ~drill :: acc in
    if Calib.now_ns () < deadline then loop acc else phase_of (List.rev acc)
  in
  loop []

let totals p =
  List.fold_left
    (fun (o, f) (_, (t : Wl.tally)) -> (o +. t.ops, f +. t.failed))
    (0.0, 0.0) p.chunks

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  let v = find () in
  close_in ic;
  v

(* ------------------------------------------------------------------ *)
(* Output *)

let json_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

let counts (ops, failed) =
  (max 1 (int_of_float (Float.floor (ops +. 1e-9))), int_of_float (Float.ceil failed))

(* ------------------------------------------------------------------ *)

let untraced (w : Wl.t) ~seed ~seconds =
  let off = Tracer.create ~on:false in
  for _ = 1 to 3 do ignore (Calib.kernel_ms ()) done;
  let inst, setup_samples = repeat_setup setup_reps (fun () -> w.setup ~seed off) in
  let deadline = Calib.now_ns () + (seconds * 1_000_000_000) in
  let p = run_chunks inst off ~deadline ~drill:false in
  let attempted, failed = counts (totals p) in
  let ops_per_s = Wl.median p.rates in
  let setup_s = Wl.median (List.map calibrated setup_samples) in
  let rss = peak_rss_mb () in
  let chunk_samples = List.map fst p.chunks in
  Printf.printf "perfbench %s seed %d seconds %d trace 0\n" w.name seed seconds;
  Printf.printf
    "setup_s      %.6f s  (raw %.6f s, kernel %.2f ms, nominal %.2f ms; median of %d)\n"
    setup_s
    (Wl.median (List.map (fun s -> s.raw_s) setup_samples))
    (kernel_of setup_samples) Calib.nominal_ms setup_reps;
  Printf.printf
    "ops_per_s    %.3f ops/s  (raw %.3f ops/s, kernel %.2f ms, nominal %.2f ms; \
     %d chunks, slowest decile %.3f ops/s)\n"
    ops_per_s (Wl.median p.raw_rates) (kernel_of chunk_samples) Calib.nominal_ms
    (List.length p.chunks) (Wl.percentile 10.0 p.rates);
  Printf.printf "peak_rss_mb  %.1f MB\n" rss;
  Printf.printf "checks       %d ops attempted, %d failed\n" attempted failed;
  json_result ~correct:(failed = 0) ~attempted ~failed
    [
      ("ops_per_s", ops_per_s, "ops/s");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", rss, "MB");
    ]

(* The traced measurement of one workload within [budget_ns]. *)
let traced_one (w : Wl.t) ~seed ~budget_ns =
  let start = Calib.now_ns () in
  let tr = Tracer.create ~on:true and off = Tracer.create ~on:false in
  let inst, setups =
    repeat_setup traced_setup_reps (fun () ->
        Tracer.root tr "bench.setup" (fun () -> w.setup ~seed tr))
  in
  (* GC counts over one untraced chunk after a full collection. *)
  inst.prepare off;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  inst.chunk off;
  let g1 = Gc.quick_stat () in
  let gc_chunk = inst.verify () in
  let gc_ops = gc_chunk.Wl.ops in
  (* Untraced and traced chunks alternate, so both see the same host
     and heap, for trace_overhead; the drill-downs come last. *)
  let rec alternate plain traced =
    let plain = one_chunk inst off ~drill:false :: plain in
    let traced = one_chunk inst tr ~drill:false :: traced in
    if Calib.now_ns () < start + (budget_ns / 2) then alternate plain traced
    else (phase_of (List.rev plain), phase_of (List.rev traced))
  in
  let plain, traced = alternate [] [] in
  let drilled = run_chunks inst tr ~deadline:(start + budget_ns) ~drill:true in
  let per_op x = x /. gc_ops in
  let suffix name = name ^ "." ^ w.name in
  let ops, failed =
    List.fold_left
      (fun (o, f) p ->
        let o', f' = totals p in
        (o +. o', f +. f'))
      (gc_ops, gc_chunk.Wl.failed)
      [ plain; traced; drilled ]
  in
  let metrics =
    inst.layers tr
    @ [
        ( suffix "gc.minor_words_per_op",
          per_op (g1.minor_words -. g0.minor_words),
          "words" );
        ( suffix "gc.major_words_per_op",
          per_op (g1.major_words -. g0.major_words),
          "words" );
        ( suffix "gc.major_collections",
          float_of_int (g1.major_collections - g0.major_collections),
          "count" );
        ( suffix "ref.kernel_ms",
          kernel_of (List.concat_map (fun p -> List.map fst p.chunks) [ plain; traced; drilled ]),
          "ms" );
        (suffix "raw.ops_per_s", Wl.median plain.raw_rates, "ops/s");
        (suffix "raw.setup_s", Wl.median (List.map (fun s -> s.raw_s) setups), "s");
        (suffix "coverage", Tracer.coverage tr, "ratio");
        ( suffix "trace_overhead",
          Wl.median plain.rates /. Wl.median traced.rates,
          "ratio" );
      ]
  in
  (tr, metrics, (ops, failed))

let print_metrics metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-42s %14.4f %s\n" n v u) metrics

(* One workload's share of the traced run: [seconds] split evenly over
   the workloads. *)
let traced_share (w : Wl.t) ~seed ~seconds =
  let budget_ns = seconds * 1_000_000_000 / List.length workloads in
  for _ = 1 to 3 do ignore (Calib.kernel_ms ()) done;
  let tr, metrics, totals = traced_one w ~seed ~budget_ns in
  let file = Filename.concat ".perfbench" ("spans-" ^ w.name ^ ".jsonl") in
  (try
     if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
     let oc = open_out file in
     Tracer.write_jsonl tr ~workload:w.name oc;
     close_out oc
   with Sys_error e -> Printf.eprintf "perfbench: spans not written: %s\n" e);
  let attempted, failed = counts totals in
  Printf.printf "perfbench %s traced share, seed %d; spans in %s\n" w.name seed
    file;
  print_metrics metrics;
  json_result ~correct:(failed = 0) ~attempted ~failed metrics

let parse_result line =
  let open Trace.Json in
  let bad () = Wl.fail "perfbench: unreadable result %S" line in
  let j = match parse line with Ok j -> j | Error _ -> bad () in
  let num k v = match member k v with Some (Number f) -> f | _ -> bad () in
  let metrics =
    match member "metrics" j with
    | Some (Object l) ->
        List.map
          (fun (name, m) ->
            match member "unit" m with
            | Some (String u) -> (name, num "value" m, u)
            | _ -> bad ())
          l
    | _ -> bad ()
  in
  ( member "correct" j = Some (Bool true),
    int_of_float (num "attempted" j),
    int_of_float (num "failed" j),
    metrics )

(* The traced run: each workload's share runs in a process of its own,
   so its layers see the heap and allocator history of that workload's
   end-to-end run, not the previous workload's (after catalog's
   machines, arena's wave machines come from reused memory and run
   twice as fast). *)
let traced_all ~seed ~seconds =
  let share (w : Wl.t) =
    let args =
      [|
        Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
        "--seconds"; string_of_int seconds; "--trace"; "1"; "--share";
      |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let rec lines acc =
      match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
    in
    let out = lines [] in
    match (Unix.close_process_in ic, out) with
    | Unix.WEXITED 0, last :: rest ->
        List.iter print_endline (List.rev rest);
        parse_result last
    | _ -> Wl.fail "perfbench: traced share of %s failed" w.name
  in
  let results = List.map share workloads in
  let correct = List.for_all (fun (c, _, _, _) -> c) results in
  let attempted, failed =
    List.fold_left (fun (a, f) (_, a', f', _) -> (a + a', f + f')) (0, 0) results
  in
  Printf.printf "checks: %d ops attempted, %d failed\n" attempted failed;
  json_result ~correct ~attempted ~failed
    (List.concat_map (fun (_, _, _, m) -> m) results)

let () =
  let workload = ref "" and seed = ref Wl.default_seed and seconds = ref 10
  and trace = ref 0 and share = ref false in
  let usage =
    "bench.exe --workload serve|catalog|arena|checkpoint --seed N --seconds S \
     --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to measure");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
      ( "--share",
        Arg.Set share,
        " with --trace 1: only this workload's share (the traced run runs \
         one per workload)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let bad msg =
    prerr_endline ("perfbench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  if !seconds < 1 then bad "--seconds must be >= 1";
  if !seed < 0 then bad "--seed must be >= 0";
  match (List.find_opt (fun (w : Wl.t) -> w.name = !workload) workloads, !trace) with
  | None, _ -> bad (Printf.sprintf "unknown workload %S" !workload)
  | Some w, 0 -> untraced w ~seed:!seed ~seconds:!seconds
  | Some w, 1 when !share -> traced_share w ~seed:!seed ~seconds:!seconds
  | Some _, 1 -> traced_all ~seed:!seed ~seconds:!seconds
  | Some _, _ -> bad "--trace must be 0 or 1"
