(* Call/return spans over the simulated call stack.

   Every CALL that transfers control opens a span; the RETURN that
   undoes it closes the innermost open span — the calling conventions
   are strictly LIFO, so matching is a stack.  A crossing that never
   returns (a fault that terminates the process, a trace that stops
   mid-call) is closed by [drain] with [forced = true] so exporters
   see a complete interval set.

   Closed spans feed two sinks: a per-crossing-kind latency histogram
   (always, cheap, deterministic percentiles) and a bounded ring
   buffer of completed spans for the Chrome-trace exporter (lazily
   allocated, oldest dropped first). *)

type completed = {
  kind : Event.crossing;
  from_ring : int;
  to_ring : int;
  segno : int;
  wordno : int;
  start_cycles : int;
  end_cycles : int;
  depth : int;
  seq : int;
  forced : bool;
}

type open_span = {
  o_kind : Event.crossing;
  o_from_ring : int;
  o_to_ring : int;
  o_segno : int;
  o_wordno : int;
  o_start : int;
  o_depth : int;
  o_seq : int;
}

let default_capacity = 65536

(* Both stacks of spans are flat int arrays, so opening and closing a
   span stores integers and allocates nothing.

   An open span is [open_width] ints at [depth * open_width] of
   [open_cells]: kind, from, to, segno, wordno, start, depth, seq —
   the fields of {!open_span}, innermost last.  The array doubles when
   the call stack outgrows it.

   The completed ring holds [capacity] spans of [completed_width] ints
   in chunks of [chunk_spans] spans, each allocated when a span first
   lands in it, so a run touches only the memory its spans use; [head]
   is the oldest retained slot, [len] the retained count.  A slot is

     [head; start; end; depth; seq]

   where [head] packs kind (2 bits), from and to rings (3 each),
   segno (14), wordno (18) and forced (1), so the default 65,536-span
   ring is 2.6 MB of fresh memory rather than 5.2.  A span whose fields
   do not fit (only {!restore} can supply one) has [head = -1] and its
   ten fields in the same slot of [wide], allocated on the first such
   span. *)
let open_width = 8
let completed_width = 5
let wide_width = 10
let chunk_bits = 10
let chunk_spans = 1 lsl chunk_bits

type tracker = {
  mutable enabled : bool;
  mutable open_cells : int array;
  mutable depth : int;
  mutable next_seq : int;
  mutable capacity : int;
  mutable chunks : int array array;
  mutable wide : int array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
  mutable unmatched_returns : int;
  mutable sampled_out : int;
  mutable sample_interval : int;
  mutable sample_seed : int;
  mutable stats : Counters.t;
  (* Which protection backend produced these spans ("hw", "645",
     "cap") — a label only: set once by the machine at creation,
     surfaced by the exporters so crossing spans from different
     backends are distinguishable in one merged trace. *)
  mutable backend : string;
  hist_same : Histogram.t;
  hist_down : Histogram.t;
  hist_up : Histogram.t;
  hist_recovery : Histogram.t;
}

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Span.create: capacity < 1";
  {
    enabled = false;
    open_cells = Array.make (16 * open_width) 0;
    depth = 0;
    next_seq = 0;
    capacity;
    chunks = [||];
    wide = [||];
    head = 0;
    len = 0;
    dropped = 0;
    unmatched_returns = 0;
    sampled_out = 0;
    sample_interval = 1;
    sample_seed = 0;
    stats = Counters.create ();
    backend = "hw";
    hist_same = Histogram.create ();
    hist_down = Histogram.create ();
    hist_up = Histogram.create ();
    hist_recovery = Histogram.create ();
  }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b
let set_stats t c = t.stats <- c
let backend t = t.backend
let set_backend t b = t.backend <- b
let dropped t = t.dropped
let unmatched_returns t = t.unmatched_returns
let sampled_out t = t.sampled_out
let sample_interval t = t.sample_interval
let sample_seed t = t.sample_seed

let set_sampling t ~interval ~seed =
  if interval < 1 then invalid_arg "Span.set_sampling: interval < 1";
  t.sample_interval <- interval;
  t.sample_seed <- seed

let open_depth t = t.depth

let histogram t = function
  | Event.Same_ring -> t.hist_same
  | Event.Downward -> t.hist_down
  | Event.Upward -> t.hist_up
  | Event.Recovery -> t.hist_recovery

let clear t =
  t.depth <- 0;
  t.next_seq <- 0;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  t.unmatched_returns <- 0;
  t.sampled_out <- 0;
  Histogram.clear t.hist_same;
  Histogram.clear t.hist_down;
  Histogram.clear t.hist_up;
  Histogram.clear t.hist_recovery

(* The chunk holding [slot], allocated on first use. *)
let chunk t slot =
  let c = Array.unsafe_get t.chunks (slot lsr chunk_bits) in
  if Array.length c <> 0 then c
  else begin
    let c = Array.make (chunk_spans * completed_width) 0 in
    t.chunks.(slot lsr chunk_bits) <- c;
    c
  end

let push_completed t ~kind ~from_ring ~to_ring ~segno ~wordno ~start ~end_
    ~depth ~seq ~forced =
  if Array.length t.chunks = 0 then
    t.chunks <-
      Array.make ((t.capacity + chunk_spans - 1) lsr chunk_bits) [||];
  let slot =
    if t.len < t.capacity then begin
      let i = t.head + t.len in
      let i = if i >= t.capacity then i - t.capacity else i in
      t.len <- t.len + 1;
      i
    end
    else begin
      let i = t.head in
      t.head <- (if i + 1 >= t.capacity then 0 else i + 1);
      t.dropped <- t.dropped + 1;
      i
    end
  in
  let buf = chunk t slot
  and b = (slot land (chunk_spans - 1)) * completed_width in
  let forced = if forced then 1 else 0 in
  let fits =
    kind land lnot 0x3 = 0
    && from_ring land lnot 0x7 = 0
    && to_ring land lnot 0x7 = 0
    && segno land lnot 0x3FFF = 0
    && wordno land lnot 0x3FFFF = 0
  in
  if fits then
    Array.unsafe_set buf b
      (kind lor (from_ring lsl 2) lor (to_ring lsl 5) lor (segno lsl 8)
      lor (wordno lsl 22) lor (forced lsl 40))
  else begin
    Array.unsafe_set buf b (-1);
    if Array.length t.wide = 0 then
      t.wide <- Array.make (t.capacity * wide_width) 0;
    let w = slot * wide_width and wide = t.wide in
    wide.(w) <- kind;
    wide.(w + 1) <- from_ring;
    wide.(w + 2) <- to_ring;
    wide.(w + 3) <- segno;
    wide.(w + 4) <- wordno;
    wide.(w + 5) <- start;
    wide.(w + 6) <- end_;
    wide.(w + 7) <- depth;
    wide.(w + 8) <- seq;
    wide.(w + 9) <- forced
  end;
  Array.unsafe_set buf (b + 1) start;
  Array.unsafe_set buf (b + 2) end_;
  Array.unsafe_set buf (b + 3) depth;
  Array.unsafe_set buf (b + 4) seq

let[@inline] push t ~kind ~from_ring ~to_ring ~segno ~wordno ~start ~depth
    ~seq =
  if (t.depth + 1) * open_width > Array.length t.open_cells then begin
    let a = Array.make (2 * Array.length t.open_cells) 0 in
    Array.blit t.open_cells 0 a 0 (t.depth * open_width);
    t.open_cells <- a
  end;
  let b = t.depth * open_width and c = t.open_cells in
  Array.unsafe_set c b (Event.crossing_to_int kind);
  Array.unsafe_set c (b + 1) from_ring;
  Array.unsafe_set c (b + 2) to_ring;
  Array.unsafe_set c (b + 3) segno;
  Array.unsafe_set c (b + 4) wordno;
  Array.unsafe_set c (b + 5) start;
  Array.unsafe_set c (b + 6) depth;
  Array.unsafe_set c (b + 7) seq;
  t.depth <- t.depth + 1

let open_span t ~kind ~from_ring ~to_ring ~segno ~wordno ~cycles =
  if t.enabled then begin
    push t ~kind ~from_ring ~to_ring ~segno ~wordno ~start:cycles
      ~depth:t.depth ~seq:t.next_seq;
    t.next_seq <- t.next_seq + 1
  end

(* Sampling applies at completion, not at open: the LIFO stack is
   always fully maintained (matching must see every call), and whether
   a finished span is kept is a pure hash of its open-order sequence
   number — the same seeded workload keeps the same spans on every run
   and every shard.  A sampled-out span skips both sinks (histogram
   and ring buffer), so sampled percentiles are computed over the
   selected subset.  [b] is the open span's offset in [open_cells]. *)
let complete t b ~cycles ~forced =
  let c = t.open_cells in
  let seq = c.(b + 7) in
  if Event.sample_hit ~interval:t.sample_interval ~seed:t.sample_seed seq
  then begin
    let kind = c.(b) and start = c.(b + 5) in
    Histogram.observe
      (histogram t (Event.crossing_of_int kind))
      (cycles - start);
    push_completed t ~kind ~from_ring:c.(b + 1) ~to_ring:c.(b + 2)
      ~segno:c.(b + 3) ~wordno:c.(b + 4) ~start ~end_:cycles ~depth:c.(b + 6)
      ~seq ~forced
  end
  else begin
    t.sampled_out <- t.sampled_out + 1;
    Counters.bump_spans_sampled_out t.stats
  end

(* [kind]: what the closer believes it is undoing.  The outward-return
   mechanism bounces through an intermediate hardware upward return (to
   the return-gate trampoline) before the gate closes the crossing, so
   a kind-blind close would end the outward span early and leave the
   gate's close unmatched.  A close whose expected kind disagrees with
   the innermost open span is part of such a mechanism, not the
   matching return — leave the span open. *)
let close_span ?kind t ~cycles =
  if t.enabled then
    if t.depth = 0 then t.unmatched_returns <- t.unmatched_returns + 1
    else begin
      let b = (t.depth - 1) * open_width in
      match kind with
      | Some k when Event.crossing_to_int k <> t.open_cells.(b) -> ()
      | _ ->
          t.depth <- t.depth - 1;
          complete t b ~cycles ~forced:false
    end

(* Innermost first, as the stack unwinds. *)
let drain t ~cycles =
  for d = t.depth - 1 downto 0 do
    complete t (d * open_width) ~cycles ~forced:true
  done;
  t.depth <- 0

let completed_at t slot =
  let buf = t.chunks.(slot lsr chunk_bits)
  and b = (slot land (chunk_spans - 1)) * completed_width in
  let head = buf.(b) in
  if head < 0 then
    let w = slot * wide_width and wide = t.wide in
    {
      kind = Event.crossing_of_int wide.(w);
      from_ring = wide.(w + 1);
      to_ring = wide.(w + 2);
      segno = wide.(w + 3);
      wordno = wide.(w + 4);
      start_cycles = wide.(w + 5);
      end_cycles = wide.(w + 6);
      depth = wide.(w + 7);
      seq = wide.(w + 8);
      forced = wide.(w + 9) = 1;
    }
  else
    let f pos width = (head lsr pos) land ((1 lsl width) - 1) in
    {
      kind = Event.crossing_of_int (f 0 2);
      from_ring = f 2 3;
      to_ring = f 5 3;
      segno = f 8 14;
      wordno = f 22 18;
      start_cycles = buf.(b + 1);
      end_cycles = buf.(b + 2);
      depth = buf.(b + 3);
      seq = buf.(b + 4);
      forced = f 40 1 = 1;
    }

let completed t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    let j = t.head + i in
    let j = if j >= t.capacity then j - t.capacity else j in
    acc := completed_at t j :: !acc
  done;
  !acc

(* The open stack as {!open_span} records, innermost first. *)
let open_spans t =
  List.init t.depth (fun i ->
      let b = (t.depth - 1 - i) * open_width and c = t.open_cells in
      {
        o_kind = Event.crossing_of_int c.(b);
        o_from_ring = c.(b + 1);
        o_to_ring = c.(b + 2);
        o_segno = c.(b + 3);
        o_wordno = c.(b + 4);
        o_start = c.(b + 5);
        o_depth = c.(b + 6);
        o_seq = c.(b + 7);
      })

(* Checkpoint support.  The whole tracker state round-trips: open
   spans (innermost first, as stacked), retained completed spans,
   monotonic counters, and all four latency histograms. *)
type dump = {
  dump_stack : open_span list;
  dump_next_seq : int;
  dump_completed : completed list;
  dump_dropped : int;
  dump_unmatched : int;
  dump_sampled_out : int;
  dump_sample_interval : int;
  dump_sample_seed : int;
  dump_hists : (int array * int * int * int * int) array;
      (* same, down, up, recovery *)
}

let dump t =
  {
    dump_stack = open_spans t;
    dump_next_seq = t.next_seq;
    dump_completed = completed t;
    dump_dropped = t.dropped;
    dump_unmatched = t.unmatched_returns;
    dump_sampled_out = t.sampled_out;
    dump_sample_interval = t.sample_interval;
    dump_sample_seed = t.sample_seed;
    dump_hists =
      [|
        Histogram.dump t.hist_same;
        Histogram.dump t.hist_down;
        Histogram.dump t.hist_up;
        Histogram.dump t.hist_recovery;
      |];
  }

let restore t d =
  if List.length d.dump_completed > t.capacity then
    invalid_arg "Span.restore: completed spans > capacity";
  if Array.length d.dump_hists <> 4 then
    invalid_arg "Span.restore: expected four histograms";
  if d.dump_sample_interval < 1 then
    invalid_arg "Span.restore: sample_interval < 1";
  clear t;
  List.iter
    (fun o ->
      push t ~kind:o.o_kind ~from_ring:o.o_from_ring ~to_ring:o.o_to_ring
        ~segno:o.o_segno ~wordno:o.o_wordno ~start:o.o_start ~depth:o.o_depth
        ~seq:o.o_seq)
    (List.rev d.dump_stack);
  t.next_seq <- d.dump_next_seq;
  List.iter
    (fun c ->
      push_completed t ~kind:(Event.crossing_to_int c.kind)
        ~from_ring:c.from_ring ~to_ring:c.to_ring ~segno:c.segno
        ~wordno:c.wordno ~start:c.start_cycles ~end_:c.end_cycles
        ~depth:c.depth ~seq:c.seq ~forced:c.forced)
    d.dump_completed;
  t.dropped <- d.dump_dropped;
  t.unmatched_returns <- d.dump_unmatched;
  t.sampled_out <- d.dump_sampled_out;
  t.sample_interval <- d.dump_sample_interval;
  t.sample_seed <- d.dump_sample_seed;
  Histogram.restore t.hist_same d.dump_hists.(0);
  Histogram.restore t.hist_down d.dump_hists.(1);
  Histogram.restore t.hist_up d.dump_hists.(2);
  Histogram.restore t.hist_recovery d.dump_hists.(3)

let reset t =
  clear t;
  t.enabled <- false;
  t.capacity <- default_capacity;
  t.chunks <- [||];
  t.wide <- [||];
  t.sample_interval <- 1;
  t.sample_seed <- 0
