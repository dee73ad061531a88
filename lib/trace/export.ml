(* Exporters for the tracing subsystem.  All output is built from
   modeled state only (cycles, counters, spans) — no wall-clock, no
   host data — so every exporter is byte-deterministic for a given
   run, which is what test/cram/trace.t pins.

   Three formats:
   - Chrome trace-event JSON ("ph":"X" complete events), loadable in
     Perfetto / chrome://tracing.  One "thread" per ring; 1 µs of
     trace time = 1 modeled cycle.
   - JSONL: one raw stamped event per line.
   - Metrics: a Prometheus-style text page and a JSON snapshot, each
     covering every Counters field, the per-ring/per-segment profile
     and the span-latency histograms. *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_str buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* Crossing kinds as stable identifiers (metrics label values and
   Chrome categories). *)
let kind_id = function
  | Event.Same_ring -> "same_ring"
  | Event.Downward -> "downward"
  | Event.Upward -> "upward"
  | Event.Recovery -> "recovery"

(* The gatekeeper/supervisor "thread" in the Chrome trace: not a ring
   of the modeled processor, so give it a tid clear of ring numbers. *)
let kernel_tid = 99

(* {1 Chrome trace} *)

let span_event ?backend buf ~pid (s : Span.completed) =
  (* The backend label rides in args so merged multi-backend traces
     stay distinguishable; omitted (not defaulted) when the caller
     has no label, keeping single-backend documents byte-stable. *)
  let backend_arg =
    match backend with
    | None -> ""
    | Some b -> Printf.sprintf "\"backend\":\"%s\"," b
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s call r%d->r%d seg %d\",\"cat\":\"%s\",\"ph\":\"X\",\
        \"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{%s\"from_ring\":%d,\
        \"to_ring\":%d,\"segno\":%d,\"wordno\":%d,\"depth\":%d,\"seq\":%d,\
        \"forced\":%b}}"
       (kind_id s.Span.kind) s.Span.from_ring s.Span.to_ring s.Span.segno
       (kind_id s.Span.kind) pid s.Span.to_ring s.Span.start_cycles
       (s.Span.end_cycles - s.Span.start_cycles)
       backend_arg s.Span.from_ring s.Span.to_ring s.Span.segno s.Span.wordno
       s.Span.depth s.Span.seq s.Span.forced)

let instant_event buf ~pid ~tid ~cycles ~seq ~name ~cat =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":");
  add_str buf name;
  Buffer.add_string buf
    (Printf.sprintf
       ",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\
        \"ts\":%d,\"args\":{\"seq\":%d}}"
       cat pid tid cycles seq)

let stamped_event buf ~pid (s : Event.stamped) =
  let cycles = s.Event.cycles and seq = s.Event.seq in
  match s.Event.event with
  | Event.Instruction { ring; segno; wordno; text } ->
      instant_event buf ~pid ~tid:ring ~cycles ~seq ~cat:"instruction"
        ~name:(Printf.sprintf "%d|%06o %s" segno wordno text)
  | Event.Call { crossing; from_ring; to_ring; segno; wordno } ->
      instant_event buf ~pid ~tid:to_ring ~cycles ~seq ~cat:"call"
        ~name:
          (Printf.sprintf "CALL %s r%d->r%d %d|%06o"
             (Event.crossing_to_string crossing)
             from_ring to_ring segno wordno)
  | Event.Return { crossing; from_ring; to_ring; segno; wordno } ->
      instant_event buf ~pid ~tid:to_ring ~cycles ~seq ~cat:"return"
        ~name:
          (Printf.sprintf "RETURN %s r%d->r%d %d|%06o"
             (Event.crossing_to_string crossing)
             from_ring to_ring segno wordno)
  | Event.Trap { ring; cause } ->
      instant_event buf ~pid ~tid:ring ~cycles ~seq ~cat:"trap"
        ~name:(Printf.sprintf "TRAP %s" cause)
  | Event.Gatekeeper { action } ->
      instant_event buf ~pid ~tid:kernel_tid ~cycles ~seq ~cat:"gatekeeper"
        ~name:action
  | Event.Descriptor_switch { from_ring; to_ring } ->
      instant_event buf ~pid ~tid:to_ring ~cycles ~seq ~cat:"descriptor_switch"
        ~name:(Printf.sprintf "DBR switch r%d->r%d" from_ring to_ring)
  | Event.Note s ->
      instant_event buf ~pid ~tid:kernel_tid ~cycles ~seq ~cat:"note" ~name:s

module Int_set = Set.Make (Int)

(* One Chrome "process": its name metadata, per-ring thread names, then
   spans and events.  [chrome_trace] emits a single process with pid 0;
   the fleet exporter emits one process per request. *)
let add_process ?backend buf ~sep ~pid ~pname ~events ~spans =
  (* Name the per-ring "threads" so Perfetto's track labels read as
     rings, not tids. *)
  let tids =
    let of_event (s : Event.stamped) =
      match s.Event.event with
      | Event.Instruction { ring; _ } | Event.Trap { ring; _ } -> ring
      | Event.Call { to_ring; _ }
      | Event.Return { to_ring; _ }
      | Event.Descriptor_switch { to_ring; _ } ->
          to_ring
      | Event.Gatekeeper _ | Event.Note _ -> kernel_tid
    in
    Int_set.empty
    |> fun init ->
    List.fold_left (fun acc s -> Int_set.add (of_event s) acc) init events
    |> fun init ->
    List.fold_left
      (fun acc (s : Span.completed) -> Int_set.add s.Span.to_ring acc)
      init spans
  in
  sep ();
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":"
       pid);
  add_str buf pname;
  Buffer.add_string buf "}}";
  Int_set.iter
    (fun tid ->
      sep ();
      let name =
        if tid = kernel_tid then "gatekeeper" else Printf.sprintf "ring %d" tid
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
            \"args\":{\"name\":\"%s\"}}"
           pid tid name))
    tids;
  List.iter
    (fun s ->
      sep ();
      span_event ?backend buf ~pid s)
    spans;
  List.iter
    (fun e ->
      sep ();
      stamped_event buf ~pid e)
    events

let chrome_trace ?backend ?(events = []) ?(spans = []) () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\n\"traceEvents\":[\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  add_process ?backend buf ~sep ~pid:0
    ~pname:"ringsim (1us = 1 modeled cycle)" ~events ~spans;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* The fleet view: every request of a traced serving campaign as its
   own Chrome process (pid = request id), rings as threads inside it.
   Callers pass requests in id order, so the document is deterministic
   whenever the per-request traces are. *)
let chrome_trace_fleet groups =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\n\"traceEvents\":[\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  List.iter
    (fun (pid, pname, events, spans) ->
      add_process buf ~sep ~pid ~pname ~events ~spans)
    groups;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* {1 JSONL raw events} *)

let jsonl_line buf (s : Event.stamped) =
  let common kind =
    Buffer.add_string buf
      (Printf.sprintf "{\"seq\":%d,\"cycles\":%d,\"type\":\"%s\"" s.Event.seq
         s.Event.cycles kind)
  in
  (match s.Event.event with
  | Event.Instruction { ring; segno; wordno; text } ->
      common "instruction";
      Buffer.add_string buf
        (Printf.sprintf ",\"ring\":%d,\"segno\":%d,\"wordno\":%d,\"text\":"
           ring segno wordno);
      add_str buf text
  | Event.Call { crossing; from_ring; to_ring; segno; wordno } ->
      common "call";
      Buffer.add_string buf
        (Printf.sprintf
           ",\"crossing\":\"%s\",\"from_ring\":%d,\"to_ring\":%d,\
            \"segno\":%d,\"wordno\":%d"
           (kind_id crossing) from_ring to_ring segno wordno)
  | Event.Return { crossing; from_ring; to_ring; segno; wordno } ->
      common "return";
      Buffer.add_string buf
        (Printf.sprintf
           ",\"crossing\":\"%s\",\"from_ring\":%d,\"to_ring\":%d,\
            \"segno\":%d,\"wordno\":%d"
           (kind_id crossing) from_ring to_ring segno wordno)
  | Event.Trap { ring; cause } ->
      common "trap";
      Buffer.add_string buf (Printf.sprintf ",\"ring\":%d,\"cause\":" ring);
      add_str buf cause
  | Event.Gatekeeper { action } ->
      common "gatekeeper";
      Buffer.add_string buf ",\"action\":";
      add_str buf action
  | Event.Descriptor_switch { from_ring; to_ring } ->
      common "descriptor_switch";
      Buffer.add_string buf
        (Printf.sprintf ",\"from_ring\":%d,\"to_ring\":%d" from_ring to_ring)
  | Event.Note text ->
      common "note";
      Buffer.add_string buf ",\"text\":";
      add_str buf text);
  Buffer.add_string buf "}\n"

let events_jsonl events =
  let buf = Buffer.create 4096 in
  List.iter (jsonl_line buf) events;
  Buffer.contents buf

(* {1 Metrics} *)

let all_kinds =
  [ Event.Same_ring; Event.Downward; Event.Upward; Event.Recovery ]

let histogram_json buf h =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%d,\
        \"p90\":%d,\"p99\":%d,\"buckets\":["
       (Histogram.count h) (Histogram.sum h) (Histogram.min_value h)
       (Histogram.max_value h)
       (Histogram.percentile h 50.0)
       (Histogram.percentile h 90.0)
       (Histogram.percentile h 99.0));
  List.iteri
    (fun i (lower, upper, count) ->
      if i > 0 then Buffer.add_char buf ',';
      let lower = if lower = min_int then 0 else lower in
      Buffer.add_string buf
        (Printf.sprintf "{\"lower\":%d,\"upper\":%d,\"count\":%d}" lower upper
           count))
    (Histogram.nonempty_buckets h);
  Buffer.add_string buf "]}"

let metrics_json ~counters ?events ?spans ?profile ?(segment_names = []) () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "\n    \"%s\": %d" name v))
    (Counters.fields counters);
  Buffer.add_string buf "\n  }";
  (match events with
  | None -> ()
  | Some log ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n  \"events\": {\"seen\": %d, \"recorded\": %d, \"dropped\": \
            %d, \"sampled_out\": %d,\n    \"capacity\": %d, \"high_water\": \
            %d, \"sample_interval\": %d, \"sample_seed\": %d, \
            \"instr_interval\": %d}"
           (Event.seen log) (Event.recorded log) (Event.dropped log)
           (Event.sampled_out log) (Event.capacity log) (Event.high_water log)
           (Event.sample_interval log) (Event.sample_seed log)
           (Event.instr_interval log)));
  (match spans with
  | None -> ()
  | Some tr ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n  \"spans\": {\n    \"backend\": \"%s\", \"dropped\": %d, \
            \"unmatched_returns\": %d, \"open\": %d, \"sampled_out\": %d, \
            \"sample_interval\": %d,\n    \"latency_cycles\": {"
           (Span.backend tr) (Span.dropped tr)
           (Span.unmatched_returns tr)
           (Span.open_depth tr) (Span.sampled_out tr) (Span.sample_interval tr));
      List.iteri
        (fun i kind ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "\n      \"%s\": " (kind_id kind));
          histogram_json buf (Span.histogram tr kind))
        all_kinds;
      Buffer.add_string buf "\n    }\n  }");
  (match profile with
  | None -> ()
  | Some p ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n  \"profile\": {\n    \"kernel_cycles\": %d,\n    \"per_ring\": ["
           (Profile.kernel_cycles p));
      List.iteri
        (fun i (ring, cycles, instructions) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf
               "\n      {\"ring\": %d, \"cycles\": %d, \"instructions\": %d}"
               ring cycles instructions))
        (Profile.per_ring p);
      Buffer.add_string buf "\n    ],\n    \"per_segment\": [";
      List.iteri
        (fun i (segno, cycles, instructions) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "\n      {\"segno\": %d, \"name\": " segno);
          (match List.assoc_opt segno segment_names with
          | Some name -> add_str buf name
          | None -> Buffer.add_string buf "null");
          Buffer.add_string buf
            (Printf.sprintf ", \"cycles\": %d, \"instructions\": %d}" cycles
               instructions))
        (Profile.per_segment p);
      Buffer.add_string buf "\n    ]\n  }");
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let prom_label_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let metrics_prometheus ~counters ?events ?spans ?profile ?(segment_names = [])
    () =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, v) ->
      line "# TYPE rings_%s counter" name;
      line "rings_%s %d" name v)
    (Counters.fields counters);
  (match events with
  | None -> ()
  | Some log ->
      line "# TYPE rings_events_seen counter";
      line "rings_events_seen %d" (Event.seen log);
      line "# TYPE rings_events_recorded counter";
      line "rings_events_recorded %d" (Event.recorded log);
      line "# TYPE rings_events_dropped counter";
      line "rings_events_dropped %d" (Event.dropped log);
      line "# TYPE rings_events_sampled_out counter";
      line "rings_events_sampled_out %d" (Event.sampled_out log);
      line "# TYPE rings_events_capacity gauge";
      line "rings_events_capacity %d" (Event.capacity log);
      line "# TYPE rings_events_high_water gauge";
      line "rings_events_high_water %d" (Event.high_water log);
      line "# TYPE rings_events_sample_interval gauge";
      line "rings_events_sample_interval %d" (Event.sample_interval log);
      line "# TYPE rings_events_instr_interval gauge";
      line "rings_events_instr_interval %d" (Event.instr_interval log));
  (match profile with
  | None -> ()
  | Some p ->
      line "# TYPE rings_profile_kernel_cycles counter";
      line "rings_profile_kernel_cycles %d" (Profile.kernel_cycles p);
      line "# TYPE rings_profile_ring_cycles counter";
      List.iter
        (fun (ring, cycles, _) ->
          line "rings_profile_ring_cycles{ring=\"%d\"} %d" ring cycles)
        (Profile.per_ring p);
      line "# TYPE rings_profile_ring_instructions counter";
      List.iter
        (fun (ring, _, instructions) ->
          line "rings_profile_ring_instructions{ring=\"%d\"} %d" ring
            instructions)
        (Profile.per_ring p);
      let seg_label segno =
        match List.assoc_opt segno segment_names with
        | Some name ->
            Printf.sprintf "segno=\"%d\",name=\"%s\"" segno
              (prom_label_escape name)
        | None -> Printf.sprintf "segno=\"%d\"" segno
      in
      line "# TYPE rings_profile_segment_cycles counter";
      List.iter
        (fun (segno, cycles, _) ->
          line "rings_profile_segment_cycles{%s} %d" (seg_label segno) cycles)
        (Profile.per_segment p);
      line "# TYPE rings_profile_segment_instructions counter";
      List.iter
        (fun (segno, _, instructions) ->
          line "rings_profile_segment_instructions{%s} %d" (seg_label segno)
            instructions)
        (Profile.per_segment p));
  (match spans with
  | None -> ()
  | Some tr ->
      line "# TYPE rings_span_dropped counter";
      line "rings_span_dropped %d" (Span.dropped tr);
      line "# TYPE rings_span_unmatched_returns counter";
      line "rings_span_unmatched_returns %d" (Span.unmatched_returns tr);
      line "# TYPE rings_span_sampled_out counter";
      line "rings_span_sampled_out %d" (Span.sampled_out tr);
      line "# TYPE rings_span_sample_interval gauge";
      line "rings_span_sample_interval %d" (Span.sample_interval tr);
      line "# TYPE rings_span_latency_cycles histogram";
      List.iter
        (fun kind ->
          let h = Span.histogram tr kind in
          let id = kind_id kind in
          let cum = ref 0 in
          List.iter
            (fun (_, upper, count) ->
              cum := !cum + count;
              line "rings_span_latency_cycles_bucket{kind=\"%s\",le=\"%d\"} %d"
                id upper !cum)
            (Histogram.nonempty_buckets h);
          line "rings_span_latency_cycles_bucket{kind=\"%s\",le=\"+Inf\"} %d"
            id (Histogram.count h);
          line "rings_span_latency_cycles_sum{kind=\"%s\"} %d" id
            (Histogram.sum h);
          line "rings_span_latency_cycles_count{kind=\"%s\"} %d" id
            (Histogram.count h))
        all_kinds);
  Buffer.contents buf
