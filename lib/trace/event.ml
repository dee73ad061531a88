(* [Recovery] is not a control transfer: it brackets the interval from
   an injected fault's delivery to the kernel's recovery decision, so
   recovery latency flows through the same span plumbing (histograms,
   Chrome trace, metrics exporters) as ring crossings. *)
type crossing = Same_ring | Downward | Upward | Recovery

type t =
  | Instruction of { ring : int; segno : int; wordno : int; text : string }
  | Call of {
      crossing : crossing;
      from_ring : int;
      to_ring : int;
      segno : int;
      wordno : int;
    }
  | Return of {
      crossing : crossing;
      from_ring : int;
      to_ring : int;
      segno : int;
      wordno : int;
    }
  | Trap of { ring : int; cause : string }
  | Gatekeeper of { action : string }
  | Descriptor_switch of { from_ring : int; to_ring : int }
  | Note of string

type stamped = { seq : int; cycles : int; event : t }

let default_capacity = 65536

(* Events live as fixed-width integer cells in one preallocated int
   array, so the record path is a handful of unboxed stores — no
   per-event variant allocation, no string formatting.  Each event has
   the logical fields

     [tag; seq; cycles; a; b; c; d; e]

   with the field meaning per tag:

     0 Instruction        a=ring  b=segno  c=wordno  d=text_id
     1 Call               a=crossing  b=from  c=to  d=segno  e=wordno
     2 Return             a=crossing  b=from  c=to  d=segno  e=wordno
     3 Trap               a=ring  b=cause_id
     4 Gatekeeper         a=action_id
     5 Descriptor_switch  a=from  b=to
     6 Note               a=text_id

   (fields not listed are 0), stored in a three-int cell

     [head; seq; cycles]

   [head] packs the tag into bits 0-2 and the fields above it, in what
   a machine produces: rings and the crossing in 3 bits, segment
   numbers in 14, word numbers in 18; an instruction's text id plus
   one (0 for none) in 24 more bits; a trap's, gatekeeper's or note's
   string id in the rest.  24 bytes an event keeps the default
   65,536-event ring at 1.5 MB, where the interpreter's own working
   set still fits beside it in a core's L2 cache.  An event whose
   fields do not fit (only {!record} and {!restore} can supply one) is
   stored with tag [tag_wide] in [head] and its logical fields in the
   same slot of [wide], allocated on the first such event.

   Strings are interned into [strings] (ids stable for the life of the
   log, surviving [clear]); an Instruction recorded on the hot path
   stores text_id = -1 and its disassembly is reconstructed lazily at
   export by [resolver] — re-decoding the word from the segment image —
   so a traced run never formats text it doesn't export. *)
let cell_width = 3
let wide_width = 6

let tag_instruction = 0
and tag_call = 1
and tag_return = 2
and tag_trap = 3
and tag_gatekeeper = 4
and tag_descriptor_switch = 5
and tag_note = 6
and tag_wide = 7

let crossing_to_int = function
  | Same_ring -> 0
  | Downward -> 1
  | Upward -> 2
  | Recovery -> 3

let crossing_of_int = function
  | 0 -> Same_ring
  | 1 -> Downward
  | 2 -> Upward
  | 3 -> Recovery
  | n -> invalid_arg (Printf.sprintf "Event.crossing_of_int: %d" n)

(* A bounded circular buffer of cells.  [cells] is allocated lazily on
   the first record so a disabled log — every machine the benches
   create — costs one empty array and a bool test.  [head] is the
   oldest retained slot, [len] the retained count; once [len] reaches
   [capacity] each record overwrites the oldest and bumps [dropped].
   [next_seq] counts every candidate event (retained, overwritten or
   sampled out), so exported sequence numbers reveal gaps from both
   drops and sampling. *)
type log = {
  mutable enabled : bool;
  mutable clock : (unit -> int) option;
  mutable capacity : int;
  mutable cells : int array;
  mutable wide : int array;
  mutable head : int;
  mutable len : int;
  mutable next_seq : int;
  mutable dropped : int;
  mutable sampled_out : int;
  mutable high_water : int;
  mutable sample_interval : int;
  mutable sample_seed : int;
  (* Separate 1-in-N interval for the instruction stream; 0 means
     "follow sample_interval".  The instruction firehose dwarfs the
     control-flow events, so production configs thin it independently
     while keeping every call/return/trap. *)
  mutable instr_interval : int;
  mutable strings : string array;
  mutable nstrings : int;
  string_ids : (string, int) Hashtbl.t;
  mutable resolver : segno:int -> wordno:int -> string option;
  mutable stats : Counters.t;
}

let no_resolver ~segno:_ ~wordno:_ = None

let create_log ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Event.create_log: capacity < 1";
  {
    enabled = false;
    clock = None;
    capacity;
    cells = [||];
    wide = [||];
    head = 0;
    len = 0;
    next_seq = 0;
    dropped = 0;
    sampled_out = 0;
    high_water = 0;
    sample_interval = 1;
    sample_seed = 0;
    instr_interval = 0;
    strings = [||];
    nstrings = 0;
    string_ids = Hashtbl.create 16;
    resolver = no_resolver;
    stats = Counters.create ();
  }

let enabled log = log.enabled
let set_enabled log b = log.enabled <- b
let set_clock log f = log.clock <- Some f
let set_text_resolver log f = log.resolver <- f
let set_stats log c = log.stats <- c
let capacity log = log.capacity
let dropped log = log.dropped
let sampled_out log = log.sampled_out
let high_water log = log.high_water
let seen log = log.next_seq
let recorded log = log.next_seq - log.sampled_out
let sample_interval log = log.sample_interval
let sample_seed log = log.sample_seed
let instr_interval log = log.instr_interval

(* Deterministic 1-in-N selection as a pure function of the candidate's
   sequence number: splitmix-style finalizer over (seq, seed), so the
   same seeded workload selects the same events on every run, on every
   shard, regardless of what else the process traced.  No sampler state
   exists beyond (interval, seed), so checkpoints carry it trivially.
   The multiplier fits OCaml's 63-bit native int. *)
let sample_hit ~interval ~seed seq =
  interval <= 1
  ||
  let h = (seq + 1) * (seed lor 1) in
  let h = h lxor (h lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  h land max_int mod interval = 0

let set_sampling log ~interval ~seed =
  if interval < 1 then invalid_arg "Event.set_sampling: interval < 1";
  log.sample_interval <- interval;
  log.sample_seed <- seed

let set_instr_sampling log ~interval =
  if interval < 0 then invalid_arg "Event.set_instr_sampling: interval < 0";
  log.instr_interval <- interval

let clear log =
  log.head <- 0;
  log.len <- 0;
  log.next_seq <- 0;
  log.dropped <- 0;
  log.sampled_out <- 0;
  log.high_water <- 0

let set_capacity log capacity =
  if capacity < 1 then invalid_arg "Event.set_capacity: capacity < 1";
  log.capacity <- capacity;
  log.cells <- [||];
  log.wide <- [||];
  clear log

let intern log s =
  match Hashtbl.find_opt log.string_ids s with
  | Some i -> i
  | None ->
      let i = log.nstrings in
      if i >= Array.length log.strings then begin
        let cap = max 16 (2 * Array.length log.strings) in
        let a = Array.make cap "" in
        Array.blit log.strings 0 a 0 i;
        log.strings <- a
      end;
      log.strings.(i) <- s;
      log.nstrings <- i + 1;
      Hashtbl.add log.string_ids s i;
      i

(* Consume one sequence number; say whether the sampler keeps it. *)
let admit log =
  let seq = log.next_seq in
  log.next_seq <- seq + 1;
  if sample_hit ~interval:log.sample_interval ~seed:log.sample_seed seq then
    seq
  else begin
    log.sampled_out <- log.sampled_out + 1;
    Counters.bump_events_sampled_out log.stats;
    -1
  end

(* Same, through the instruction-stream interval.  Sequence numbers
   stay shared with the control-flow events — one monotonic stream —
   so exported gaps remain interpretable whichever sampler dropped
   the candidate. *)
let[@inline] admit_instr log =
  let seq = log.next_seq in
  log.next_seq <- seq + 1;
  let interval =
    if log.instr_interval = 0 then log.sample_interval
    else log.instr_interval
  in
  if interval <= 1 || sample_hit ~interval ~seed:log.sample_seed seq then seq
  else begin
    log.sampled_out <- log.sampled_out + 1;
    Counters.bump_events_sampled_out log.stats;
    -1
  end

(* Reserve the next slot (overwriting the oldest when full). *)
let[@inline] claim log =
  if Array.length log.cells = 0 then
    log.cells <- Array.make (log.capacity * cell_width) 0;
  let slot =
    if log.len < log.capacity then begin
      let i = log.head + log.len in
      let i = if i >= log.capacity then i - log.capacity else i in
      log.len <- log.len + 1;
      if log.len > log.high_water then log.high_water <- log.len;
      i
    end
    else begin
      let i = log.head in
      log.head <- (if i + 1 >= log.capacity then 0 else i + 1);
      log.dropped <- log.dropped + 1;
      Counters.bump_events_dropped log.stats;
      i
    end
  in
  slot

(* The cycle stamp: the [stats] counters' cycle count (the machine's
   own counters, wired by {!set_stats}), read directly rather than
   through a closure, unless a test clock was set. *)
let[@inline] now log =
  match log.clock with None -> Counters.cycles log.stats | Some f -> f ()

let bits3 v = v land lnot 0x7 = 0
let bits14 v = v land lnot 0x3FFF = 0
let bits18 v = v land lnot 0x3FFFF = 0
let bits24 v = v land lnot 0xFFFFFF = 0
let bits56 v = v land lnot 0xFFFFFFFFFFFFFF = 0

(* The packed [head] of an event, or -1 when a field does not fit. *)
let pack ~tag ~a ~b ~c ~d ~e =
  if tag = tag_instruction then
    if bits3 a && bits14 b && bits18 c && bits24 (d + 1) && e = 0 then
      tag lor (a lsl 3) lor (b lsl 6) lor (c lsl 20) lor ((d + 1) lsl 38)
    else -1
  else if tag = tag_call || tag = tag_return then
    if bits3 a && bits3 b && bits3 c && bits14 d && bits18 e then
      tag lor (a lsl 3) lor (b lsl 6) lor (c lsl 9) lor (d lsl 12)
      lor (e lsl 26)
    else -1
  else if tag = tag_trap then
    if bits3 a && bits56 b && c = 0 && d = 0 && e = 0 then
      tag lor (a lsl 3) lor (b lsl 6)
    else -1
  else if tag = tag_descriptor_switch then
    if bits3 a && bits3 b && c = 0 && d = 0 && e = 0 then
      tag lor (a lsl 3) lor (b lsl 6)
    else -1
  else if bits56 a && b = 0 && c = 0 && d = 0 && e = 0 then tag lor (a lsl 3)
  else -1

let store log slot ~tag ~seq ~cycles ~a ~b ~c ~d ~e =
  let base = slot * cell_width and cells = log.cells in
  let head = pack ~tag ~a ~b ~c ~d ~e in
  Array.unsafe_set cells (base + 1) seq;
  Array.unsafe_set cells (base + 2) cycles;
  if head >= 0 then Array.unsafe_set cells base head
  else begin
    Array.unsafe_set cells base tag_wide;
    if Array.length log.wide = 0 then
      log.wide <- Array.make (log.capacity * wide_width) 0;
    let w = slot * wide_width and wide = log.wide in
    wide.(w) <- tag;
    wide.(w + 1) <- a;
    wide.(w + 2) <- b;
    wide.(w + 3) <- c;
    wide.(w + 4) <- d;
    wide.(w + 5) <- e
  end

(* [slot] comes from [claim]. *)
let fill log slot ~tag ~seq ~a ~b ~c ~d ~e =
  store log slot ~tag ~seq ~cycles:(now log) ~a ~b ~c ~d ~e

(* The hot path: [Isa.Cpu.step] calls this once per retired
   instruction when tracing is on.  Everything is an unboxed int store
   into one packed cell; the disassembly is deferred (text_id = -1)
   until export. *)
let[@inline] record_instruction log ~ring ~segno ~wordno =
  if log.enabled then begin
    let seq = admit_instr log in
    if seq >= 0 then begin
      let slot = claim log in
      if bits3 ring && bits14 segno && bits18 wordno then begin
        let base = slot * cell_width and cells = log.cells in
        Array.unsafe_set cells base
          ((ring lsl 3) lor (segno lsl 6) lor (wordno lsl 20));
        Array.unsafe_set cells (base + 1) seq;
        Array.unsafe_set cells (base + 2) (now log)
      end
      else
        fill log slot ~tag:tag_instruction ~seq ~a:ring ~b:segno ~c:wordno
          ~d:(-1) ~e:0
    end
  end

let record_call log ~crossing ~from_ring ~to_ring ~segno ~wordno =
  if log.enabled then begin
    let seq = admit log in
    if seq >= 0 then
      fill log (claim log) ~tag:tag_call ~seq ~a:(crossing_to_int crossing)
        ~b:from_ring ~c:to_ring ~d:segno ~e:wordno
  end

let record_return log ~crossing ~from_ring ~to_ring ~segno ~wordno =
  if log.enabled then begin
    let seq = admit log in
    if seq >= 0 then
      fill log (claim log) ~tag:tag_return ~seq ~a:(crossing_to_int crossing)
        ~b:from_ring ~c:to_ring ~d:segno ~e:wordno
  end

let record_trap log ~ring ~cause =
  if log.enabled then begin
    let seq = admit log in
    if seq >= 0 then begin
      let id = intern log cause in
      fill log (claim log) ~tag:tag_trap ~seq ~a:ring ~b:id ~c:0 ~d:0 ~e:0
    end
  end

let record_gatekeeper log ~action =
  if log.enabled then begin
    let seq = admit log in
    if seq >= 0 then begin
      let id = intern log action in
      fill log (claim log) ~tag:tag_gatekeeper ~seq ~a:id ~b:0 ~c:0 ~d:0 ~e:0
    end
  end

let record_descriptor_switch log ~from_ring ~to_ring =
  if log.enabled then begin
    let seq = admit log in
    if seq >= 0 then
      fill log (claim log) ~tag:tag_descriptor_switch ~seq ~a:from_ring
        ~b:to_ring ~c:0 ~d:0 ~e:0
  end

let record_note log text =
  if log.enabled then begin
    let seq = admit log in
    if seq >= 0 then begin
      let id = intern log text in
      fill log (claim log) ~tag:tag_note ~seq ~a:id ~b:0 ~c:0 ~d:0 ~e:0
    end
  end

(* Compatibility entry point over the variant view — used by tests and
   by [restore]'s re-encoder, never by the hot path.  An [Instruction]
   arriving with pre-formatted text keeps it (interned), so round-trips
   through [dump]/[restore] pin the text resolved at dump time. *)
let record log e =
  if log.enabled then
    match e with
    | Instruction { ring; segno; wordno; text } ->
        let seq = admit_instr log in
        if seq >= 0 then begin
          let id = intern log text in
          fill log (claim log) ~tag:tag_instruction ~seq ~a:ring ~b:segno
            ~c:wordno ~d:id ~e:0
        end
    | Call { crossing; from_ring; to_ring; segno; wordno } ->
        record_call log ~crossing ~from_ring ~to_ring ~segno ~wordno
    | Return { crossing; from_ring; to_ring; segno; wordno } ->
        record_return log ~crossing ~from_ring ~to_ring ~segno ~wordno
    | Trap { ring; cause } -> record_trap log ~ring ~cause
    | Gatekeeper { action } -> record_gatekeeper log ~action
    | Descriptor_switch { from_ring; to_ring } ->
        record_descriptor_switch log ~from_ring ~to_ring
    | Note s -> record_note log s

let instruction_text log ~segno ~wordno id =
  if id >= 0 then log.strings.(id)
  else
    match log.resolver ~segno ~wordno with Some s -> s | None -> "?"

(* The logical fields of the event in [slot]: unpacked from the cell,
   or read from [wide]. *)
let event_of_slot log slot =
  let base = slot * cell_width in
  let head = log.cells.(base) in
  let tag = head land 0x7 in
  let tag, a, b, c, d, e =
    if tag = tag_wide then
      let w = slot * wide_width and wide = log.wide in
      (wide.(w), wide.(w + 1), wide.(w + 2), wide.(w + 3), wide.(w + 4),
       wide.(w + 5))
    else
      let f pos width = (head lsr pos) land ((1 lsl width) - 1) in
      if tag = tag_instruction then
        (tag, f 3 3, f 6 14, f 20 18, f 38 24 - 1, 0)
      else if tag = tag_call || tag = tag_return then
        (tag, f 3 3, f 6 3, f 9 3, f 12 14, f 26 18)
      else if tag = tag_trap then (tag, f 3 3, f 6 56, 0, 0, 0)
      else if tag = tag_descriptor_switch then (tag, f 3 3, f 6 3, 0, 0, 0)
      else (tag, f 3 56, 0, 0, 0, 0)
  in
  match tag with
  | 0 (* tag_instruction *) ->
      let text = instruction_text log ~segno:b ~wordno:c d in
      Instruction { ring = a; segno = b; wordno = c; text }
  | 1 (* tag_call *) ->
      let crossing = crossing_of_int a in
      Call { crossing; from_ring = b; to_ring = c; segno = d; wordno = e }
  | 2 (* tag_return *) ->
      let crossing = crossing_of_int a in
      Return { crossing; from_ring = b; to_ring = c; segno = d; wordno = e }
  | 3 (* tag_trap *) -> Trap { ring = a; cause = log.strings.(b) }
  | 4 (* tag_gatekeeper *) -> Gatekeeper { action = log.strings.(a) }
  | 5 (* tag_descriptor_switch *) ->
      Descriptor_switch { from_ring = a; to_ring = b }
  | 6 (* tag_note *) -> Note log.strings.(a)
  | tag -> invalid_arg (Printf.sprintf "Event.event_of_slot: tag %d" tag)

let fold_stamped log ~init ~f =
  let acc = ref init in
  for i = 0 to log.len - 1 do
    let j = log.head + i in
    let j = if j >= log.capacity then j - log.capacity else j in
    let base = j * cell_width in
    acc :=
      f !acc
        {
          seq = log.cells.(base + 1);
          cycles = log.cells.(base + 2);
          event = event_of_slot log j;
        }
  done;
  !acc

let stamped_events log =
  List.rev (fold_stamped log ~init:[] ~f:(fun acc s -> s :: acc))

let events log =
  List.rev (fold_stamped log ~init:[] ~f:(fun acc s -> s.event :: acc))

(* Checkpoint support.  [dump] resolves instruction text eagerly (via
   {!stamped_events}), so what a checkpoint pins is what the trace
   showed at capture time; [restore] re-encodes the entries — interning
   that resolved text — without re-stamping or re-sampling, so sequence
   numbers, cycle stamps, sampler configuration and discard counters
   all survive a round-trip exactly. *)
type dump = {
  d_entries : stamped list;
  d_next_seq : int;
  d_dropped : int;
  d_sampled_out : int;
  d_high_water : int;
  d_sample_interval : int;
  d_sample_seed : int;
  d_instr_interval : int;
}

let dump log =
  {
    d_entries = stamped_events log;
    d_next_seq = log.next_seq;
    d_dropped = log.dropped;
    d_sampled_out = log.sampled_out;
    d_high_water = log.high_water;
    d_sample_interval = log.sample_interval;
    d_sample_seed = log.sample_seed;
    d_instr_interval = log.instr_interval;
  }

let encode_at log slot s =
  let set ~tag ~a ~b ~c ~d ~e =
    store log slot ~tag ~seq:s.seq ~cycles:s.cycles ~a ~b ~c ~d ~e
  in
  match s.event with
  | Instruction { ring; segno; wordno; text } ->
      set ~tag:tag_instruction ~a:ring ~b:segno ~c:wordno
        ~d:(intern log text) ~e:0
  | Call { crossing; from_ring; to_ring; segno; wordno } ->
      set ~tag:tag_call ~a:(crossing_to_int crossing) ~b:from_ring ~c:to_ring
        ~d:segno ~e:wordno
  | Return { crossing; from_ring; to_ring; segno; wordno } ->
      set ~tag:tag_return ~a:(crossing_to_int crossing) ~b:from_ring
        ~c:to_ring ~d:segno ~e:wordno
  | Trap { ring; cause } ->
      set ~tag:tag_trap ~a:ring ~b:(intern log cause) ~c:0 ~d:0 ~e:0
  | Gatekeeper { action } ->
      set ~tag:tag_gatekeeper ~a:(intern log action) ~b:0 ~c:0 ~d:0 ~e:0
  | Descriptor_switch { from_ring; to_ring } ->
      set ~tag:tag_descriptor_switch ~a:from_ring ~b:to_ring ~c:0 ~d:0 ~e:0
  | Note text -> set ~tag:tag_note ~a:(intern log text) ~b:0 ~c:0 ~d:0 ~e:0

let restore log d =
  let n = List.length d.d_entries in
  if n > log.capacity then invalid_arg "Event.restore: entries > capacity";
  if d.d_sample_interval < 1 then
    invalid_arg "Event.restore: sample_interval < 1";
  if d.d_instr_interval < 0 then
    invalid_arg "Event.restore: instr_interval < 0";
  clear log;
  if n > 0 && Array.length log.cells = 0 then
    log.cells <- Array.make (log.capacity * cell_width) 0;
  List.iteri (fun i s -> encode_at log i s) d.d_entries;
  log.head <- 0;
  log.len <- n;
  log.next_seq <- d.d_next_seq;
  log.dropped <- d.d_dropped;
  log.sampled_out <- d.d_sampled_out;
  log.high_water <- d.d_high_water;
  log.sample_interval <- d.d_sample_interval;
  log.sample_seed <- d.d_sample_seed;
  log.instr_interval <- d.d_instr_interval

let crossing_to_string = function
  | Same_ring -> "same-ring"
  | Downward -> "downward"
  | Upward -> "upward"
  | Recovery -> "recovery"

let pp ppf = function
  | Instruction { ring; segno; wordno; text } ->
      Format.fprintf ppf "[r%d] %d|%06o  %s" ring segno wordno text
  | Call { crossing; from_ring; to_ring; segno; wordno } ->
      Format.fprintf ppf "CALL %s r%d->r%d target %d|%06o"
        (crossing_to_string crossing)
        from_ring to_ring segno wordno
  | Return { crossing; from_ring; to_ring; segno; wordno } ->
      Format.fprintf ppf "RETURN %s r%d->r%d target %d|%06o"
        (crossing_to_string crossing)
        from_ring to_ring segno wordno
  | Trap { ring; cause } -> Format.fprintf ppf "TRAP in r%d: %s" ring cause
  | Gatekeeper { action } -> Format.fprintf ppf "GATEKEEPER: %s" action
  | Descriptor_switch { from_ring; to_ring } ->
      Format.fprintf ppf "DESCRIPTOR SWITCH r%d->r%d" from_ring to_ring
  | Note s -> Format.fprintf ppf "-- %s" s

let pp_log ppf log =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp e) (events log)

let reset log =
  set_capacity log default_capacity;
  log.enabled <- false;
  log.sample_interval <- 1;
  log.sample_seed <- 0;
  log.instr_interval <- 0;
  log.strings <- [||];
  log.nstrings <- 0;
  Hashtbl.reset log.string_ids
