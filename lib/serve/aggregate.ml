(* Fleet-wide metric merging.  The merges are the commutative
   operations the trace layer exports (Counters.add, Histogram.merge)
   plus pointwise ring sums, folded over outcomes in request-id order
   — a canonical order, so the report is byte-stable however the
   shards interleaved. *)

type shard_summary = {
  shard_id : int;
  served : int;
  shard_ok : int;
  cold_boots : int;
  warm_boots : int;
  busy_cycles : int;
  image_stats : Hw.Assoc.stats;
  shard_quarantined : bool;
  shard_latency : Trace.Histogram.t;
}

type fleet_trace = {
  tr_requests : int;
  tr_events : int;
  tr_spans : int;
  tr_seen : int;
  tr_dropped : int;
  tr_sampled_out : int;
  tr_spans_sampled_out : int;
}

type fleet = {
  completed : int;
  ok : int;
  exits : (string * int) list;
  per_class : ((string * int) * int) list;
  latency : Trace.Histogram.t;
  counters : Trace.Counters.snapshot option;
  rings : (int * int * int) list;
  kernel_cycles : int;
  trace : fleet_trace option;
}

type t = {
  fleet : fleet;
  shards : shard_summary array;
  dispatch : Dispatcher.stats;
}

let bump assoc key n =
  match List.assoc_opt key assoc with
  | None -> (key, n) :: assoc
  | Some v -> (key, v + n) :: List.remove_assoc key assoc

let merge_rings acc rings =
  List.fold_left
    (fun acc (r, c, i) ->
      match List.assoc_opt r acc with
      | None -> (r, (c, i)) :: acc
      | Some (c0, i0) -> (r, (c0 + c, i0 + i)) :: List.remove_assoc r acc)
    acc rings

let build models outcomes dispatch =
  let latency = Trace.Histogram.create () in
  let exits = ref [] and per_class = ref [] and rings = ref [] in
  let counters = ref None and kernel = ref 0 and ok = ref 0 in
  let trace = ref None in
  List.iter
    (fun (o : Shard.outcome) ->
      Trace.Histogram.observe latency o.Shard.latency;
      if o.Shard.ok then incr ok;
      exits := bump !exits o.Shard.exit_label 1;
      per_class :=
        bump !per_class
          (o.Shard.request.Workload.program, o.Shard.request.Workload.iterations)
          1;
      rings := merge_rings !rings o.Shard.ring_cycles;
      kernel := !kernel + o.Shard.kernel_cycles;
      (match o.Shard.trace with
      | None -> ()
      | Some rt ->
          let acc =
            match !trace with
            | Some acc -> acc
            | None ->
                {
                  tr_requests = 0;
                  tr_events = 0;
                  tr_spans = 0;
                  tr_seen = 0;
                  tr_dropped = 0;
                  tr_sampled_out = 0;
                  tr_spans_sampled_out = 0;
                }
          in
          trace :=
            Some
              {
                tr_requests = acc.tr_requests + 1;
                tr_events = acc.tr_events + List.length rt.Shard.t_events;
                tr_spans = acc.tr_spans + List.length rt.Shard.t_spans;
                tr_seen = acc.tr_seen + rt.Shard.t_seen;
                tr_dropped = acc.tr_dropped + rt.Shard.t_dropped;
                tr_sampled_out = acc.tr_sampled_out + rt.Shard.t_sampled_out;
                tr_spans_sampled_out =
                  acc.tr_spans_sampled_out + rt.Shard.t_spans_sampled_out;
              });
      counters :=
        Some
          (match !counters with
          | None -> o.Shard.delta
          | Some c -> Trace.Counters.add c o.Shard.delta))
    outcomes;
  let fleet =
    {
      completed = List.length outcomes;
      ok = !ok;
      exits = List.sort compare !exits;
      per_class = List.sort compare !per_class;
      latency;
      counters = !counters;
      rings =
        List.sort compare (List.map (fun (r, (c, i)) -> (r, c, i)) !rings);
      kernel_cycles = !kernel;
      trace = !trace;
    }
  in
  let summaries =
    Array.map
      (fun (m : Dispatcher.shard_model) ->
        let h = Trace.Histogram.create () in
        let served_ok = ref 0 in
        List.iter
          (fun (o : Shard.outcome) ->
            if o.Shard.shard_id = m.Dispatcher.ms_id then begin
              Trace.Histogram.observe h o.Shard.latency;
              if o.Shard.ok then incr served_ok
            end)
          outcomes;
        {
          shard_id = m.Dispatcher.ms_id;
          served = m.Dispatcher.ms_served;
          shard_ok = !served_ok;
          cold_boots = m.Dispatcher.ms_cold;
          warm_boots = m.Dispatcher.ms_warm;
          busy_cycles = m.Dispatcher.ms_busy;
          image_stats = m.Dispatcher.ms_image;
          shard_quarantined = m.Dispatcher.ms_quarantined;
          shard_latency = h;
        })
      models
  in
  { fleet; shards = summaries; dispatch }

(* The merged Chrome trace: one "process" per traced request, pid =
   request id.  [outcomes] arrive sorted by request id and a request's
   trace is placement-independent, so the document is byte-stable
   across shard counts and pool sizes. *)
let chrome_trace outcomes =
  Trace.Export.chrome_trace_fleet
    (List.filter_map
       (fun (o : Shard.outcome) ->
         match o.Shard.trace with
         | None -> None
         | Some rt ->
             Some
               ( o.Shard.request.Workload.id,
                 Printf.sprintf "req %d %s/%d" o.Shard.request.Workload.id
                   o.Shard.request.Workload.program
                   o.Shard.request.Workload.iterations,
                 rt.Shard.t_events,
                 rt.Shard.t_spans ))
       outcomes)

let requests_per_modeled_sec t =
  if t.dispatch.Dispatcher.makespan <= 0 then 0.0
  else
    float_of_int t.fleet.completed
    *. 1_000_000.0
    /. float_of_int t.dispatch.Dispatcher.makespan

(* ------------------------------------------------------------------ *)
(* JSON *)

let histogram_json b h =
  Buffer.add_string b
    (Printf.sprintf
       "{\"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"mean\": %.2f, \
        \"p50\": %d, \"p90\": %d, \"p99\": %d, \"buckets\": ["
       (Trace.Histogram.count h) (Trace.Histogram.sum h)
       (Trace.Histogram.min_value h)
       (Trace.Histogram.max_value h)
       (Trace.Histogram.mean h)
       (Trace.Histogram.percentile h 50.0)
       (Trace.Histogram.percentile h 90.0)
       (Trace.Histogram.percentile h 99.0));
  List.iteri
    (fun i (lo, hi, n) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"lo\": %d, \"hi\": %d, \"n\": %d}" lo hi n))
    (Trace.Histogram.nonempty_buckets h);
  Buffer.add_string b "]}"

let counters_json b = function
  | None -> Buffer.add_string b "null"
  | Some snap ->
      Buffer.add_string b "{";
      List.iteri
        (fun i (name, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (Printf.sprintf "\"%s\": %d" name v))
        (Trace.Counters.fields snap);
      Buffer.add_string b "}"

let report_json ?(config = []) t =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  add "{\n  \"config\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then add ", ";
      Printf.bprintf b "%a: %s" Trace.Export.add_str k v)
    config;
  add "},\n";
  (* The fleet section is a function of the outcome set alone: nothing
     here may mention shard ids, shard counts or placement, or the
     2-shard/4-shard smoke diff breaks. *)
  add "  \"fleet\": {\n";
  add
    (Printf.sprintf "    \"completed\": %d,\n    \"ok\": %d,\n"
       t.fleet.completed t.fleet.ok);
  add "    \"exits\": {";
  List.iteri
    (fun i (label, n) ->
      if i > 0 then add ", ";
      Printf.bprintf b "%a: %d" Trace.Export.add_str label n)
    t.fleet.exits;
  add "},\n    \"per_class\": {";
  List.iteri
    (fun i ((p, iters), n) ->
      if i > 0 then add ", ";
      Printf.bprintf b "%a: %d" Trace.Export.add_str
        (Printf.sprintf "%s/%d" p iters)
        n)
    t.fleet.per_class;
  add "},\n    \"latency_cycles\": ";
  histogram_json b t.fleet.latency;
  add ",\n    \"rings\": [";
  List.iteri
    (fun i (r, c, insns) ->
      if i > 0 then add ", ";
      add
        (Printf.sprintf
           "{\"ring\": %d, \"cycles\": %d, \"instructions\": %d}" r c insns))
    t.fleet.rings;
  add (Printf.sprintf "],\n    \"kernel_cycles\": %d,\n" t.fleet.kernel_cycles);
  add "    \"counters\": ";
  counters_json b t.fleet.counters;
  add ",\n    \"trace\": ";
  (match t.fleet.trace with
  | None -> add "null"
  | Some tr ->
      add
        (Printf.sprintf
           "{\"requests\": %d, \"events\": %d, \"spans\": %d, \"seen\": %d, \
            \"dropped\": %d, \"sampled_out\": %d, \"spans_sampled_out\": %d}"
           tr.tr_requests tr.tr_events tr.tr_spans tr.tr_seen tr.tr_dropped
           tr.tr_sampled_out tr.tr_spans_sampled_out));
  add "\n  },\n";
  add "  \"dispatch\": {\n";
  add
    (Printf.sprintf
       "    \"completed\": %d,\n\
       \    \"shed\": %d,\n\
       \    \"redistributed\": %d,\n\
       \    \"routed_hash\": %d,\n\
       \    \"routed_balanced\": %d,\n\
       \    \"batches\": %d,\n\
       \    \"makespan_cycles\": %d,\n\
       \    \"quarantined_shards\": %d,\n\
       \    \"migrated\": %d,\n\
       \    \"restarts\": %d,\n\
       \    \"peak_active\": %d,\n\
       \    \"requests_per_modeled_sec\": %.2f\n"
       t.dispatch.Dispatcher.completed t.dispatch.Dispatcher.shed
       t.dispatch.Dispatcher.redistributed t.dispatch.Dispatcher.routed_hash
       t.dispatch.Dispatcher.routed_balanced t.dispatch.Dispatcher.batches
       t.dispatch.Dispatcher.makespan t.dispatch.Dispatcher.quarantined
       t.dispatch.Dispatcher.migrated t.dispatch.Dispatcher.restarts
       t.dispatch.Dispatcher.peak_active
       (requests_per_modeled_sec t));
  add "  },\n";
  add "  \"shards\": [\n";
  Array.iteri
    (fun i s ->
      if i > 0 then add ",\n";
      add
        (Printf.sprintf
           "    {\"id\": %d, \"served\": %d, \"ok\": %d, \"cold_boots\": %d, \
            \"warm_boots\": %d, \"busy_cycles\": %d, \"quarantined\": %b, \
            \"image_cache\": {\"hits\": %d, \"misses\": %d, \"evictions\": \
            %d, \"invalidations\": %d}, \"latency_cycles\": "
           s.shard_id s.served s.shard_ok s.cold_boots s.warm_boots
           s.busy_cycles s.shard_quarantined s.image_stats.Hw.Assoc.hits
           s.image_stats.Hw.Assoc.misses s.image_stats.Hw.Assoc.evictions
           s.image_stats.Hw.Assoc.invalidations);
      histogram_json b s.shard_latency;
      add "}")
    t.shards;
  add "\n  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Human summary *)

let pp ppf t =
  let f = t.fleet and d = t.dispatch in
  Format.fprintf ppf "@[<v>serving fleet: %d shard%s, %d window%s@,"
    (Array.length t.shards)
    (if Array.length t.shards = 1 then "" else "s")
    d.Dispatcher.batches
    (if d.Dispatcher.batches = 1 then "" else "s");
  Format.fprintf ppf
    "requests: %d completed (%d ok), %d shed, %d redistributed@," f.completed
    f.ok d.Dispatcher.shed d.Dispatcher.redistributed;
  Format.fprintf ppf
    "routing: %d by hash, %d rebalanced; %d shard%s quarantined@,"
    d.Dispatcher.routed_hash d.Dispatcher.routed_balanced
    d.Dispatcher.quarantined
    (if d.Dispatcher.quarantined = 1 then "" else "s");
  if d.Dispatcher.migrated > 0 || d.Dispatcher.restarts > 0 then
    Format.fprintf ppf
      "elastic: %d request%s migrated, %d rolling restart%s@,"
      d.Dispatcher.migrated
      (if d.Dispatcher.migrated = 1 then "" else "s")
      d.Dispatcher.restarts
      (if d.Dispatcher.restarts = 1 then "" else "s");
  Format.fprintf ppf
    "latency (modeled cycles): p50 %d  p90 %d  p99 %d  max %d@,"
    (Trace.Histogram.percentile f.latency 50.0)
    (Trace.Histogram.percentile f.latency 90.0)
    (Trace.Histogram.percentile f.latency 99.0)
    (Trace.Histogram.max_value f.latency);
  Format.fprintf ppf "makespan: %d cycles, %.2f requests/modeled-second@,"
    d.Dispatcher.makespan
    (requests_per_modeled_sec t);
  (match f.trace with
  | None -> ()
  | Some tr ->
      Format.fprintf ppf
        "trace: %d request%s, %d events / %d spans kept (%d seen, %d \
         dropped, %d sampled out)@,"
        tr.tr_requests
        (if tr.tr_requests = 1 then "" else "s")
        tr.tr_events tr.tr_spans tr.tr_seen tr.tr_dropped tr.tr_sampled_out);
  Array.iter
    (fun s ->
      Format.fprintf ppf
        "  shard %d: served %d (%d ok), %d cold / %d warm boots, busy %d%s@,"
        s.shard_id s.served s.shard_ok s.cold_boots s.warm_boots s.busy_cycles
        (if s.shard_quarantined then "  [quarantined]" else ""))
    t.shards;
  Format.fprintf ppf "@]"
