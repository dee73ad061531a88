(** Exporters: Chrome trace-event JSON, JSONL raw events, and
    Prometheus-style / JSON metrics snapshots.

    Every exporter reads modeled state only — cycles, counters, spans
    — never the host clock, so output is byte-deterministic for a
    given run ([make trace-smoke] relies on this).

    In the Chrome trace, each ring is rendered as a "thread" of one
    process, the gatekeeper as a separate thread; spans become ["X"]
    complete events and stamped log events become instants.  Load the
    file in {{:https://ui.perfetto.dev}Perfetto} or [chrome://tracing];
    1 µs of trace time = 1 modeled cycle. *)

val add_escaped : Buffer.t -> string -> unit
(** Append a string's JSON escaping (quote, backslash and control
    characters; every other byte, UTF-8 included, passes through). *)

val add_str : Buffer.t -> string -> unit
(** Append a string as a quoted JSON string literal.  The one JSON
    string writer every report in the tree uses. *)

val chrome_trace :
  ?backend:string ->
  ?events:Event.stamped list ->
  ?spans:Span.completed list ->
  unit ->
  string
(** A complete Chrome trace-event document ([{"traceEvents": [...]}]).
    [backend] (["hw"], ["645"], ["cap"]) labels every span's args so
    crossing spans from different protection backends remain
    distinguishable when documents are merged; omitted, the args are
    unchanged. *)

val chrome_trace_fleet :
  (int * string * Event.stamped list * Span.completed list) list -> string
(** A merged Chrome trace for a traced serving campaign: one Chrome
    "process" per group [(pid, name, events, spans)] — the serving
    layer passes one group per request, pid = request id, in id order
    — with rings as threads inside each.  Deterministic whenever the
    groups are. *)

val events_jsonl : Event.stamped list -> string
(** One JSON object per line per stamped event: [seq], [cycles],
    [type], and the event's own fields. *)

val metrics_json :
  counters:Counters.snapshot ->
  ?events:Event.log ->
  ?spans:Span.tracker ->
  ?profile:Profile.t ->
  ?segment_names:(int * string) list ->
  unit ->
  string
(** A JSON metrics snapshot: every {!Counters.fields} entry, plus —
    when given — event-log occupancy, span-latency histograms with
    deterministic p50/p90/p99 per crossing kind, and the
    per-ring/per-segment cycle attribution ([segment_names] decorates
    segment numbers). *)

val metrics_prometheus :
  counters:Counters.snapshot ->
  ?events:Event.log ->
  ?spans:Span.tracker ->
  ?profile:Profile.t ->
  ?segment_names:(int * string) list ->
  unit ->
  string
(** The same snapshot as a Prometheus text-format page
    ([rings_<counter>], [rings_profile_*{ring=..}],
    [rings_span_latency_cycles_bucket{kind=..,le=..}] cumulative
    histograms). *)
