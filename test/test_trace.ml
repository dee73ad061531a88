(* The trace library: counters, event log, table rendering. *)

let test_counters_snapshot_diff () =
  let c = Trace.Counters.create () in
  Trace.Counters.charge c 10;
  Trace.Counters.bump_instructions c;
  let before = Trace.Counters.snapshot c in
  Trace.Counters.charge c 5;
  Trace.Counters.bump_instructions c;
  Trace.Counters.(incr c traps);
  let after = Trace.Counters.snapshot c in
  let d = Trace.Counters.diff ~before ~after in
  Alcotest.(check int) "cycles diff" 5 d.Trace.Counters.cycles;
  Alcotest.(check int) "instructions diff" 1 d.Trace.Counters.instructions;
  Alcotest.(check int) "traps diff" 1 d.Trace.Counters.traps;
  Alcotest.(check int) "untouched diff" 0 d.Trace.Counters.calls_downward

let test_counters_reset () =
  let c = Trace.Counters.create () in
  Trace.Counters.charge c 10;
  Trace.Counters.(incr c calls_downward);
  Trace.Counters.reset c;
  Alcotest.(check int) "cycles zero" 0 (Trace.Counters.cycles c);
  Alcotest.(check int) "calls zero" 0 Trace.Counters.(get c calls_downward)

let test_event_log_disabled_by_default () =
  let log = Trace.Event.create_log () in
  Trace.Event.record log (Trace.Event.Note "hello");
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Trace.Event.events log));
  Trace.Event.set_enabled log true;
  Trace.Event.record log (Trace.Event.Note "one");
  Trace.Event.record log (Trace.Event.Note "two");
  Alcotest.(check int) "two recorded" 2
    (List.length (Trace.Event.events log));
  (match Trace.Event.events log with
  | [ Trace.Event.Note "one"; Trace.Event.Note "two" ] -> ()
  | _ -> Alcotest.fail "order wrong");
  Trace.Event.clear log;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.Event.events log))

let test_event_ring_buffer_bounds () =
  let log = Trace.Event.create_log ~capacity:4 () in
  Trace.Event.set_enabled log true;
  for i = 1 to 10 do
    Trace.Event.record log (Trace.Event.Note (string_of_int i))
  done;
  Alcotest.(check int) "len bounded" 4 (List.length (Trace.Event.events log));
  Alcotest.(check int) "dropped counted" 6 (Trace.Event.dropped log);
  Alcotest.(check int) "recorded counts all" 10 (Trace.Event.recorded log);
  (* Oldest events are overwritten first: the newest four remain. *)
  (match Trace.Event.events log with
  | [ Trace.Event.Note "7"; Note "8"; Note "9"; Note "10" ] -> ()
  | _ -> Alcotest.fail "wrong survivors after wrap");
  (* Sequence numbers keep counting across the wrap. *)
  (match Trace.Event.stamped_events log with
  | [ a; _; _; d ] ->
      Alcotest.(check int) "first surviving seq" 6 a.Trace.Event.seq;
      Alcotest.(check int) "last seq" 9 d.Trace.Event.seq
  | _ -> Alcotest.fail "wrong stamped count");
  Trace.Event.clear log;
  Alcotest.(check int) "clear resets dropped" 0 (Trace.Event.dropped log)

(* Deterministic sampling: whether a candidate is kept is a pure hash
   of its sequence number and the seed, so two logs with the same
   configuration retain exactly the same events — and those are
   exactly the exposed predicate's hits. *)
let test_event_sampling_deterministic () =
  let run () =
    let log = Trace.Event.create_log ~capacity:256 () in
    Trace.Event.set_sampling log ~interval:4 ~seed:9;
    Trace.Event.set_enabled log true;
    for i = 1 to 100 do
      Trace.Event.record_note log (string_of_int i)
    done;
    log
  in
  let a = run () in
  Alcotest.(check int) "every candidate seen" 100 (Trace.Event.seen a);
  Alcotest.(check int) "seen = recorded + sampled_out" 100
    (Trace.Event.recorded a + Trace.Event.sampled_out a);
  Alcotest.(check bool) "sampler deselected some" true
    (Trace.Event.sampled_out a > 0);
  Alcotest.(check bool) "sampler kept some" true (Trace.Event.recorded a > 0);
  let seqs log =
    List.map (fun s -> s.Trace.Event.seq) (Trace.Event.stamped_events log)
  in
  let expected =
    List.filter
      (Trace.Event.sample_hit ~interval:4 ~seed:9)
      (List.init 100 Fun.id)
  in
  Alcotest.(check (list int)) "retained = predicate hits" expected (seqs a);
  Alcotest.(check (list int)) "identical across runs" (seqs a)
    (seqs (run ()));
  (* Interval 1 (the default) keeps everything; interval < 1 is
     rejected up front. *)
  let full = Trace.Event.create_log () in
  Trace.Event.set_enabled full true;
  for _ = 1 to 10 do
    Trace.Event.record_note full "x"
  done;
  Alcotest.(check int) "interval 1 samples nothing out" 0
    (Trace.Event.sampled_out full);
  try
    Trace.Event.set_sampling full ~interval:0 ~seed:0;
    Alcotest.fail "interval 0 accepted"
  with Invalid_argument _ -> ()

(* Wraparound and sampling together: sequence numbers never reset, so
   exported seq gaps reveal both overwrites and sampler deselection,
   and the discard accounting closes exactly. *)
let test_event_wrap_sampling_accounting () =
  let log = Trace.Event.create_log ~capacity:4 () in
  Trace.Event.set_sampling log ~interval:2 ~seed:5;
  Trace.Event.set_enabled log true;
  for i = 0 to 39 do
    Trace.Event.record_note log (string_of_int i)
  done;
  let retained = Trace.Event.stamped_events log in
  Alcotest.(check int) "buffer full" 4 (List.length retained);
  Alcotest.(check int) "high water = capacity" 4 (Trace.Event.high_water log);
  Alcotest.(check int) "seen counts every candidate" 40 (Trace.Event.seen log);
  Alcotest.(check int) "recorded = seen - sampled_out"
    (40 - Trace.Event.sampled_out log)
    (Trace.Event.recorded log);
  Alcotest.(check int) "dropped = recorded - retained"
    (Trace.Event.recorded log - 4)
    (Trace.Event.dropped log);
  (* The survivors are the newest sampler hits, in seq order. *)
  let hits =
    List.filter (Trace.Event.sample_hit ~interval:2 ~seed:5)
      (List.init 40 Fun.id)
  in
  let newest =
    List.filteri (fun i _ -> i >= List.length hits - 4) hits
  in
  Alcotest.(check (list int)) "newest hits survive" newest
    (List.map (fun s -> s.Trace.Event.seq) retained)

(* Splitting the instruction stream onto its own sampling rate changes
   which candidates survive, never how they are chosen: both streams
   share one monotonic sequence and one seed, so instruction retention
   is [sample_hit ~interval:instr_interval] over the instruction seqs
   while every other event still follows the control-flow interval. *)
let test_event_instr_sampling_split () =
  let run ~instr () =
    let log = Trace.Event.create_log ~capacity:256 () in
    Trace.Event.set_sampling log ~interval:4 ~seed:9;
    if instr >= 0 then Trace.Event.set_instr_sampling log ~interval:instr;
    Trace.Event.set_enabled log true;
    (* Interleave the streams: even seqs are instructions, odd seqs
       notes, so each stream's candidate set is known exactly. *)
    for i = 0 to 99 do
      if i mod 2 = 0 then
        Trace.Event.record_instruction log ~ring:4 ~segno:1 ~wordno:i
      else Trace.Event.record_note log (string_of_int i)
    done;
    log
  in
  let split = run ~instr:2 () in
  Alcotest.(check int) "accessor reflects the split" 2
    (Trace.Event.instr_interval split);
  let seqs_of pred log =
    List.filter_map
      (fun s ->
        match s.Trace.Event.event with
        | Trace.Event.Instruction _ when pred -> Some s.Trace.Event.seq
        | Trace.Event.Instruction _ -> None
        | _ when not pred -> Some s.Trace.Event.seq
        | _ -> None)
      (Trace.Event.stamped_events log)
  in
  let instr_candidates = List.init 50 (fun i -> 2 * i) in
  let note_candidates = List.init 50 (fun i -> (2 * i) + 1) in
  Alcotest.(check (list int)) "instructions follow their own interval"
    (List.filter (Trace.Event.sample_hit ~interval:2 ~seed:9) instr_candidates)
    (seqs_of true split);
  Alcotest.(check (list int)) "control flow untouched by the split"
    (List.filter (Trace.Event.sample_hit ~interval:4 ~seed:9) note_candidates)
    (seqs_of false split);
  (* Interval 0 (the default) means "follow the control-flow interval":
     an explicit 0 and never calling set_instr_sampling retain the
     exact same events. *)
  let follow = run ~instr:0 () and unset = run ~instr:(-1) () in
  Alcotest.(check int) "interval 0 reads back as 0" 0
    (Trace.Event.instr_interval follow);
  let all_seqs log =
    List.map (fun s -> s.Trace.Event.seq) (Trace.Event.stamped_events log)
  in
  Alcotest.(check (list int)) "interval 0 = unsplit behavior"
    (all_seqs unset) (all_seqs follow);
  Alcotest.(check (list int)) "unsplit = one predicate over both streams"
    (List.filter (Trace.Event.sample_hit ~interval:4 ~seed:9)
       (List.init 100 Fun.id))
    (all_seqs unset);
  (* Discard accounting still closes over the merged stream. *)
  Alcotest.(check int) "seen counts both streams" 100 (Trace.Event.seen split);
  Alcotest.(check int) "seen = recorded + sampled_out" 100
    (Trace.Event.recorded split + Trace.Event.sampled_out split);
  (* The split survives a dump/restore round-trip. *)
  let fresh = Trace.Event.create_log ~capacity:256 () in
  Trace.Event.restore fresh (Trace.Event.dump split);
  Alcotest.(check int) "dump carries the instr interval" 2
    (Trace.Event.instr_interval fresh);
  Alcotest.(check (list int)) "restored log retains the same events"
    (all_seqs split) (all_seqs fresh);
  (* A negative interval is rejected up front. *)
  match Trace.Event.set_instr_sampling follow ~interval:(-3) with
  | () -> Alcotest.fail "negative instr interval accepted"
  | exception Invalid_argument _ -> ()

(* The binary arena stores the instruction's address, not its text:
   disassembly is reconstructed through the pluggable resolver when
   the log is read, so the record path never formats anything. *)
let test_event_lazy_text_resolution () =
  let log = Trace.Event.create_log () in
  Trace.Event.set_enabled log true;
  Trace.Event.record_instruction log ~ring:4 ~segno:11 ~wordno:3;
  (match Trace.Event.events log with
  | [ Trace.Event.Instruction i ] ->
      Alcotest.(check int) "ring kept" 4 i.ring;
      Alcotest.(check int) "segno kept" 11 i.segno;
      Alcotest.(check int) "wordno kept" 3 i.wordno;
      Alcotest.(check string) "no resolver: placeholder" "?" i.text
  | _ -> Alcotest.fail "expected one instruction event");
  Trace.Event.set_text_resolver log (fun ~segno ~wordno ->
      Some (Printf.sprintf "insn@%d|%d" segno wordno));
  (match Trace.Event.events log with
  | [ Trace.Event.Instruction i ] ->
      Alcotest.(check string) "resolved at read time" "insn@11|3" i.text
  | _ -> Alcotest.fail "expected one instruction event");
  (* A resolver that no longer decodes the address degrades to the
     placeholder rather than failing the export. *)
  Trace.Event.set_text_resolver log (fun ~segno:_ ~wordno:_ -> None);
  match Trace.Event.events log with
  | [ Trace.Event.Instruction i ] ->
      Alcotest.(check string) "unresolvable degrades" "?" i.text
  | _ -> Alcotest.fail "expected one instruction event"

let test_event_clock_stamping () =
  let log = Trace.Event.create_log () in
  let now = ref 100 in
  Trace.Event.set_clock log (fun () -> !now);
  Trace.Event.set_enabled log true;
  Trace.Event.record log (Trace.Event.Note "a");
  now := 250;
  Trace.Event.record log (Trace.Event.Note "b");
  match Trace.Event.stamped_events log with
  | [ a; b ] ->
      Alcotest.(check int) "first stamp" 100 a.Trace.Event.cycles;
      Alcotest.(check int) "second stamp" 250 b.Trace.Event.cycles;
      Alcotest.(check int) "seq 0" 0 a.Trace.Event.seq;
      Alcotest.(check int) "seq 1" 1 b.Trace.Event.seq
  | _ -> Alcotest.fail "wrong stamped count"

(* Events and completed spans are stored packed, with the rings,
   segment and word numbers a machine produces in bit fields.  Values
   outside those fields (an untrusted image can carry any) take the
   wide path, and every field must read back exactly, interleaved with
   packed ones and across a dump/restore. *)
let test_trace_wide_fields_round_trip () =
  let log = Trace.Event.create_log ~capacity:8 () in
  Trace.Event.set_enabled log true;
  let events =
    Trace.Event.
      [
        Instruction { ring = 4; segno = 11; wordno = 3; text = "packed" };
        Instruction { ring = 9; segno = 1 lsl 20; wordno = -1; text = "wide" };
        Call
          {
            crossing = Downward;
            from_ring = 4;
            to_ring = 1;
            segno = 1 lsl 14;
            wordno = 0;
          };
        Return
          { crossing = Upward; from_ring = 1; to_ring = 4; segno = 10; wordno = 6 };
        Trap { ring = -2; cause = "odd ring" };
        Descriptor_switch { from_ring = 3; to_ring = 12 };
        Note "note";
      ]
  in
  List.iter (Trace.Event.record log) events;
  Alcotest.(check bool) "events read back" true (Trace.Event.events log = events);
  let fresh = Trace.Event.create_log ~capacity:8 () in
  Trace.Event.restore fresh (Trace.Event.dump log);
  Alcotest.(check bool) "events survive restore" true
    (Trace.Event.events fresh = events);
  let spans = Trace.Span.create ~capacity:4 () in
  Trace.Span.set_enabled spans true;
  Trace.Span.open_span spans ~kind:Trace.Event.Downward ~from_ring:4 ~to_ring:1
    ~segno:11 ~wordno:0 ~cycles:10;
  Trace.Span.open_span spans ~kind:Trace.Event.Same_ring ~from_ring:9
    ~to_ring:(-1) ~segno:(1 lsl 30) ~wordno:(1 lsl 18) ~cycles:12;
  Trace.Span.close_span spans ~cycles:20;
  Trace.Span.close_span spans ~cycles:30;
  let completed = Trace.Span.completed spans in
  Alcotest.(check (list (pair int int)))
    "wide span fields" [ (1 lsl 30, 1 lsl 18); (11, 0) ]
    (List.map (fun (c : Trace.Span.completed) -> (c.segno, c.wordno)) completed);
  let restored = Trace.Span.create ~capacity:4 () in
  Trace.Span.restore restored (Trace.Span.dump spans);
  Alcotest.(check bool) "spans survive restore" true
    (Trace.Span.completed restored = completed)

(* Counters.fields is the exporters' source of truth: every field the
   pretty-printer knows must appear, and a single bump must move
   exactly one field. *)
let test_counters_fields_complete () =
  let c = Trace.Counters.create () in
  Trace.Counters.charge c 7;
  let snap = Trace.Counters.snapshot c in
  let fields = Trace.Counters.fields snap in
  Alcotest.(check bool) "cycles present" true (List.mem_assoc "cycles" fields);
  Alcotest.(check int) "cycles value" 7 (List.assoc "cycles" fields);
  let names = List.map fst fields in
  Alcotest.(check int)
    "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  (* Every counter named by the pretty-printer has a field.  pp uses
     display labels, so check a representative set. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k fields))
    [
      "instructions"; "traps"; "calls_downward"; "returns_upward";
      "gatekeeper_entries"; "access_violations"; "sdw_cache_hits";
      "ptw_tlb_misses"; "icache_evictions"; "page_faults";
    ]

(* The table and the record list the same counters: for every id, one
   [incr] on a fresh table moves exactly the counter of that id's name,
   in [fields] and in the record field of that name alike. *)
let test_counters_fields_diff () =
  let (record : (string * (Trace.Counters.snapshot -> int)) list) =
    Trace.Counters.
      [
        ("cycles", fun s -> s.cycles);
        ("instructions", fun s -> s.instructions);
        ("memory_reads", fun s -> s.memory_reads);
        ("memory_writes", fun s -> s.memory_writes);
        ("sdw_fetches", fun s -> s.sdw_fetches);
        ("indirections", fun s -> s.indirections);
        ("traps", fun s -> s.traps);
        ("calls_same_ring", fun s -> s.calls_same_ring);
        ("calls_downward", fun s -> s.calls_downward);
        ("calls_upward", fun s -> s.calls_upward);
        ("returns_same_ring", fun s -> s.returns_same_ring);
        ("returns_upward", fun s -> s.returns_upward);
        ("returns_downward", fun s -> s.returns_downward);
        ("gatekeeper_entries", fun s -> s.gatekeeper_entries);
        ("descriptor_switches", fun s -> s.descriptor_switches);
        ("access_violations", fun s -> s.access_violations);
        ("ptw_fetches", fun s -> s.ptw_fetches);
        ("page_faults", fun s -> s.page_faults);
        ("page_evictions", fun s -> s.page_evictions);
        ("channel_ops", fun s -> s.channel_ops);
        ("sdw_cache_hits", fun s -> s.sdw_cache_hits);
        ("sdw_cache_misses", fun s -> s.sdw_cache_misses);
        ("sdw_cache_evictions", fun s -> s.sdw_cache_evictions);
        ("ptw_tlb_hits", fun s -> s.ptw_tlb_hits);
        ("ptw_tlb_misses", fun s -> s.ptw_tlb_misses);
        ("ptw_tlb_evictions", fun s -> s.ptw_tlb_evictions);
        ("icache_hits", fun s -> s.icache_hits);
        ("icache_misses", fun s -> s.icache_misses);
        ("icache_evictions", fun s -> s.icache_evictions);
        ("injected", fun s -> s.injected);
        ("retried", fun s -> s.retried);
        ("recovered", fun s -> s.recovered);
        ("quarantined", fun s -> s.quarantined);
        ("degraded", fun s -> s.degraded);
        ("snapshots_written", fun s -> s.snapshots_written);
        ("restores", fun s -> s.restores);
        ("restore_audit_rejections", fun s -> s.restore_audit_rejections);
        ("journal_replays_skipped", fun s -> s.journal_replays_skipped);
        ("watchdog_tripped", fun s -> s.watchdog_tripped);
        ("events_dropped", fun s -> s.events_dropped);
        ("events_sampled_out", fun s -> s.events_sampled_out);
        ("spans_sampled_out", fun s -> s.spans_sampled_out);
      ]
  in
  Alcotest.(check (list string))
    "one record field per counter, in table order"
    (Array.to_list Trace.Counters.names)
    (List.map fst record);
  Array.iteri
    (fun i id ->
      let name = Trace.Counters.names.(i) in
      let c = Trace.Counters.create () in
      let before = Trace.Counters.snapshot c in
      Trace.Counters.incr c id;
      let d = Trace.Counters.diff ~before ~after:(Trace.Counters.snapshot c) in
      let moved = List.filter (fun (_, v) -> v <> 0) in
      Alcotest.(check (list (pair string int)))
        (name ^ " moves alone in fields") [ (name, 1) ]
        (moved (Trace.Counters.fields d));
      Alcotest.(check (list (pair string int)))
        (name ^ " moves alone in the record") [ (name, 1) ]
        (moved (List.map (fun (n, field) -> (n, field d)) record));
      Alcotest.(check int) (name ^ " reads back") 1 (Trace.Counters.get c id))
    Trace.Counters.ids

let test_event_rendering () =
  let render e = Format.asprintf "%a" Trace.Event.pp e in
  Alcotest.(check string)
    "call event"
    "CALL downward r4->r1 target 11|000003"
    (render
       (Trace.Event.Call
          {
            crossing = Trace.Event.Downward;
            from_ring = 4;
            to_ring = 1;
            segno = 11;
            wordno = 3;
          }));
  Alcotest.(check string)
    "trap event" "TRAP in r4: boom"
    (render (Trace.Event.Trap { ring = 4; cause = "boom" }))

let test_table_rendering () =
  let t =
    Trace.Tablefmt.create
      ~columns:[ ("name", Trace.Tablefmt.Left); ("n", Trace.Tablefmt.Right) ]
  in
  Trace.Tablefmt.add_row t [ "alpha"; "1" ];
  Trace.Tablefmt.add_row t [ "b"; "22" ];
  let s = Trace.Tablefmt.render t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check string) "header" "| name  |  n |" (List.nth lines 1);
  Alcotest.(check string) "left align" "| alpha |  1 |" (List.nth lines 3);
  Alcotest.(check string) "right align" "| b     | 22 |" (List.nth lines 4)

let test_table_cell_count_checked () =
  let t =
    Trace.Tablefmt.create ~columns:[ ("a", Trace.Tablefmt.Left) ]
  in
  try
    Trace.Tablefmt.add_row t [ "x"; "y" ];
    Alcotest.fail "wrong cell count accepted"
  with Invalid_argument _ -> ()

(* [add] must be the pointwise sum over every field, and commutative —
   the fleet aggregator folds per-shard snapshots in arbitrary shard
   order and expects one answer. *)
let test_counters_add () =
  let mk charges bumps =
    let c = Trace.Counters.create () in
    Trace.Counters.charge c charges;
    for _ = 1 to bumps do
      Trace.Counters.bump_instructions c;
      Trace.Counters.(incr c traps)
    done;
    Trace.Counters.(incr c calls_downward);
    Trace.Counters.snapshot c
  in
  let a = mk 100 3 and b = mk 7 2 in
  let s = Trace.Counters.add a b in
  List.iter2
    (fun (name, va) (name', vb) ->
      Alcotest.(check string) "field order" name name';
      let sum = List.assoc name (Trace.Counters.fields s) in
      Alcotest.(check int) (name ^ " summed pointwise") (va + vb) sum)
    (Trace.Counters.fields a) (Trace.Counters.fields b);
  Alcotest.(check int) "cycles" 107 s.Trace.Counters.cycles;
  Alcotest.(check int) "instructions" 5 s.Trace.Counters.instructions;
  Alcotest.(check int) "calls_downward" 2 s.Trace.Counters.calls_downward;
  Alcotest.(check (list (pair string int)))
    "commutative"
    (Trace.Counters.fields (Trace.Counters.add a b))
    (Trace.Counters.fields (Trace.Counters.add b a))

(* [merge] must hold both inputs' observations, leave the inputs
   untouched, and be commutative — the same contract the dispatcher
   relies on when folding per-shard latency histograms. *)
let test_histogram_merge () =
  let view h =
    ( Trace.Histogram.count h,
      Trace.Histogram.sum h,
      Trace.Histogram.min_value h,
      Trace.Histogram.max_value h,
      Trace.Histogram.nonempty_buckets h )
  in
  let a = Trace.Histogram.create () in
  List.iter (Trace.Histogram.observe a) [ 3; 17; 17; 200 ];
  let b = Trace.Histogram.create () in
  List.iter (Trace.Histogram.observe b) [ 1; 5000 ];
  let before_a = view a and before_b = view b in
  let m = Trace.Histogram.merge a b in
  let all = Trace.Histogram.create () in
  List.iter (Trace.Histogram.observe all) [ 3; 17; 17; 200; 1; 5000 ];
  Alcotest.(check (list (triple int int int)))
    "buckets are the union of observations"
    (Trace.Histogram.nonempty_buckets all)
    (Trace.Histogram.nonempty_buckets m);
  Alcotest.(check int) "count" 6 (Trace.Histogram.count m);
  Alcotest.(check int) "sum" 5238 (Trace.Histogram.sum m);
  Alcotest.(check int) "min" 1 (Trace.Histogram.min_value m);
  Alcotest.(check int) "max" 5000 (Trace.Histogram.max_value m);
  let m' = Trace.Histogram.merge b a in
  Alcotest.(check (list (triple int int int)))
    "commutative"
    (Trace.Histogram.nonempty_buckets m)
    (Trace.Histogram.nonempty_buckets m');
  Alcotest.(check bool) "a unchanged" true (view a = before_a);
  Alcotest.(check bool) "b unchanged" true (view b = before_b);
  let e = Trace.Histogram.merge (Trace.Histogram.create ()) a in
  Alcotest.(check (list (triple int int int)))
    "empty is the identity" (Trace.Histogram.nonempty_buckets a)
    (Trace.Histogram.nonempty_buckets e)

(* [merge_into] sums ring, segment and kernel buckets pointwise, and
   refuses profiles with different ring counts — merging an 8-ring
   shard into a 4-ring fleet total would misattribute cycles. *)
let test_profile_merge_into () =
  let dst = Trace.Profile.create ~rings:8 () in
  Trace.Profile.set_enabled dst true;
  Trace.Profile.attribute dst ~ring:1 ~segno:10 ~cycles:100 ~instructions:4;
  Trace.Profile.attribute_kernel dst ~cycles:7;
  let src = Trace.Profile.create ~rings:8 () in
  Trace.Profile.set_enabled src true;
  Trace.Profile.attribute src ~ring:1 ~segno:10 ~cycles:50 ~instructions:2;
  Trace.Profile.attribute src ~ring:4 ~segno:11 ~cycles:30 ~instructions:3;
  Trace.Profile.attribute_kernel src ~cycles:5;
  let src_before = Trace.Profile.dump src in
  Trace.Profile.merge_into ~dst src;
  Alcotest.(check (list (triple int int int)))
    "ring buckets summed"
    [ (1, 150, 6); (4, 30, 3) ]
    (Trace.Profile.per_ring dst);
  Alcotest.(check (list (triple int int int)))
    "segment buckets summed"
    [ (10, 150, 6); (11, 30, 3) ]
    (Trace.Profile.per_segment dst);
  Alcotest.(check int) "kernel summed" 12 (Trace.Profile.kernel_cycles dst);
  Alcotest.(check int) "total" 192 (Trace.Profile.total_cycles dst);
  Alcotest.(check bool) "src unchanged" true
    (Trace.Profile.dump src = src_before);
  let narrow = Trace.Profile.create ~rings:4 () in
  try
    Trace.Profile.merge_into ~dst narrow;
    Alcotest.fail "ring-count mismatch accepted"
  with Invalid_argument _ -> ()

(* Attribution remembers the last segment's cell; [clear], [restore],
   [merge_into] and [reset] must leave that memory pointing at the
   table's live cell, or later cycles would land in a dropped one. *)
let test_profile_segment_cache () =
  let p = Trace.Profile.create ~rings:8 () in
  let attr segno cycles =
    Trace.Profile.attribute p ~ring:1 ~segno ~cycles ~instructions:1
  in
  let check what expected =
    Alcotest.(check (list (triple int int int)))
      what expected
      (Trace.Profile.per_segment p)
  in
  attr 10 5;
  attr 10 5;
  attr 12 1;
  attr 10 2;
  check "alternating segments" [ (10, 12, 3); (12, 1, 1) ];
  Trace.Profile.clear p;
  attr 10 3;
  check "after clear" [ (10, 3, 1) ];
  let other = Trace.Profile.create ~rings:8 () in
  Trace.Profile.attribute other ~ring:1 ~segno:10 ~cycles:100 ~instructions:7;
  Trace.Profile.attribute other ~ring:1 ~segno:11 ~cycles:4 ~instructions:1;
  Trace.Profile.restore p (Trace.Profile.dump other);
  attr 10 1;
  check "after restore" [ (10, 101, 8); (11, 4, 1) ];
  Trace.Profile.merge_into ~dst:p other;
  attr 10 1;
  attr 11 1;
  check "after merge_into" [ (10, 202, 16); (11, 9, 3) ];
  Trace.Profile.merge_into ~dst:other p;
  Trace.Profile.attribute other ~ring:1 ~segno:11 ~cycles:1 ~instructions:1;
  Alcotest.(check (list (triple int int int)))
    "merge source keeps attributing"
    [ (10, 302, 23); (11, 14, 5) ]
    (Trace.Profile.per_segment other);
  Trace.Profile.set_enabled p true;
  Trace.Profile.reset p;
  Alcotest.(check bool) "reset disables" false (Trace.Profile.enabled p);
  check "reset empties" [];
  attr 11 2;
  check "after reset" [ (11, 2, 1) ]

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "counters snapshot/diff" `Quick
          test_counters_snapshot_diff;
        Alcotest.test_case "counters reset" `Quick test_counters_reset;
        Alcotest.test_case "event log gating" `Quick
          test_event_log_disabled_by_default;
        Alcotest.test_case "event ring buffer bounds" `Quick
          test_event_ring_buffer_bounds;
        Alcotest.test_case "event clock stamping" `Quick
          test_event_clock_stamping;
        Alcotest.test_case "event sampling deterministic" `Quick
          test_event_sampling_deterministic;
        Alcotest.test_case "event wrap+sampling accounting" `Quick
          test_event_wrap_sampling_accounting;
        Alcotest.test_case "event instr sampling split" `Quick
          test_event_instr_sampling_split;
        Alcotest.test_case "event lazy text resolution" `Quick
          test_event_lazy_text_resolution;
        Alcotest.test_case "trace wide fields round trip" `Quick
          test_trace_wide_fields_round_trip;
        Alcotest.test_case "counters fields complete" `Quick
          test_counters_fields_complete;
        Alcotest.test_case "counters fields diff" `Quick
          test_counters_fields_diff;
        Alcotest.test_case "event rendering" `Quick test_event_rendering;
        Alcotest.test_case "table rendering" `Quick test_table_rendering;
        Alcotest.test_case "table cell count" `Quick
          test_table_cell_count_checked;
        Alcotest.test_case "counters add" `Quick test_counters_add;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "profile segment cache" `Quick
          test_profile_segment_cache;
        Alcotest.test_case "profile merge_into" `Quick
          test_profile_merge_into;
      ] );
  ]
