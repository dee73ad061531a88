(* A checkpoint image is a deterministic binary serialization of the
   complete machine state: anything that can influence a future
   instruction, counter, event or device transfer.  Host-side caches
   and memos are deliberately NOT serialized — [Isa.Machine.quiesce]
   flushes them at every capture, and the restore path rebuilds the
   same cold state in a fresh machine, so a resumed run and the
   uninterrupted one continue from identical footing.

   Layout (format version 6):

     magic (8 bytes) | version | payload length | checksum | payload

   The magic is the image kind — "RINGSNAP" for a full image,
   "RINGDELT" for a delta — and both kinds share one payload layout,
   because a full image is a delta whose predecessor is the all-zero
   machine:

     payload = base_sum         predecessor's payload checksum
                                (0 in a full image)
             | pre_len | pre    counters, machine configuration and
                                processor state
             | mem_size
             | npages | page*   page numbers ascending
             | post             SDW tag population, injector,
                                capability state, trace, system
     pre     = counter_sum | ncounters × value | machine-pre
     page    = pageno | len | nnz | nnz × (offset | word)

   [counter_sum] is the checksum of the counter table's ordered names,
   so the values are read by position, and an image from a build with
   another counter table is refused as [Corrupt].

   A page record is its page's whole content: offsets ascend, words
   are nonzero, and every word it does not list is zero.  A full image
   lists each page that holds a nonzero word; a delta lists each page
   dirtied since its predecessor, including pages that went back to
   zero.

   All integers are 8-byte big-endian (two's complement via Int64, so
   OCaml's 63-bit negatives round-trip).  The checksum is FNV-1a 64
   over the payload only, so a version bump is reported as
   [Bad_version], not hidden behind [Checksum_mismatch].  Every
   hashtable is dumped sorted by key and every list in a defined
   order, so capturing the same state twice yields byte-identical
   images — the property the restore self-check and the
   kill-and-resume equivalence proof both lean on. *)

type error =
  | Bad_magic
  | Bad_version of { expected : int; got : int }
  | Truncated
  | Checksum_mismatch
  | Corrupt of string
  | Shape_mismatch of string
  | Audit_rejected of string list
  | Self_check_failed
  | Stale_base
  | Broken_chain of int

let pp_error ppf = function
  | Bad_magic -> Format.fprintf ppf "not a snapshot image (bad magic)"
  | Bad_version { expected; got } ->
      Format.fprintf ppf "snapshot format version %d, this build reads %d" got
        expected
  | Truncated -> Format.fprintf ppf "snapshot image is truncated"
  | Checksum_mismatch ->
      Format.fprintf ppf "snapshot payload fails its checksum"
  | Corrupt msg -> Format.fprintf ppf "snapshot is corrupt: %s" msg
  | Shape_mismatch msg ->
      Format.fprintf ppf "snapshot does not match the respawned system: %s" msg
  | Audit_rejected problems ->
      Format.fprintf ppf
        "restore audit rejected the image (%d problem(s)):@\n%a"
        (List.length problems)
        (Format.pp_print_list ~pp_sep:Format.pp_print_newline
           Format.pp_print_string)
        problems
  | Self_check_failed ->
      Format.fprintf ppf "restored state does not re-capture to the same image"
  | Stale_base ->
      Format.fprintf ppf
        "delta does not extend the given base image (stale base)"
  | Broken_chain i ->
      Format.fprintf ppf
        "delta chain broken at link %d: delta does not extend its predecessor"
        i

exception Fail of error

let corrupt msg = raise (Fail (Corrupt msg))
let shape msg = raise (Fail (Shape_mismatch msg))

(* The two image kinds. *)
let magic = "RINGSNAP"
let delta_magic = "RINGDELT"

(* v2: trace section gained the event sampler/high-water fields and the
   span sampler fields (events moved to the binary arena encoding).
   v3: trace section gained the independent instruction-stream sampling
   interval.  v4: machine section gained the capability tag store and
   sealed-return stack.  v5: full images and deltas share one
   page-wise payload.  v6: the counters are a fingerprint of their
   names plus one word each, not a list of named pairs. *)
let version = 6
let header_len = 8 + 8 + 8 + 8

(* FNV-1a 64 over [len] bytes of [s] from [off], truncated to OCaml's
   63-bit int (writer and reader truncate identically, so nothing is
   lost to the comparison).  This sits on the per-delta hot path —
   incremental checkpointing checksums every image it seals.  The
   [Int64] accumulator is a local reference, which ocamlopt keeps
   unboxed in a register: one 64-bit multiply per byte and no
   allocation, about twice the speed of the same hash in two 32-bit
   native limbs. *)
let checksum s off len =
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Int64.to_int !h

(* {1 Codecs}

   Each record of the image is described once, as a codec: [w] appends
   it to a buffer and [r] reads it back.  Records are built from the
   primitives below with [conv], so a record's writer and reader cannot
   disagree about its layout. *)

type reader = { data : string; mutable pos : int }
type 'a codec = { w : Buffer.t -> 'a -> unit; r : reader -> 'a }

(* Big-endian 8 bytes of the two's-complement value. *)
let w_int b n = Buffer.add_int64_be b (Int64.of_int n)

let r_int r =
  if r.pos + 8 > String.length r.data then raise (Fail Truncated);
  let v = Int64.to_int (String.get_int64_be r.data r.pos) in
  r.pos <- r.pos + 8;
  v

(* A decoded count of items of at least [width] bytes each.  A count
   the rest of the payload cannot hold is refused here, before any
   allocation or loop is sized by it. *)
let r_count ?(width = 8) r what =
  let n = r_int r in
  if n < 0 then corrupt ("negative " ^ what);
  if n > (String.length r.data - r.pos) / width then raise (Fail Truncated);
  n

let bad what n = corrupt (Printf.sprintf "bad %s %d" what n)
let int = { w = w_int; r = r_int }

(* A yes/no word; [what] names it in the error for any other value. *)
let flag what =
  {
    w = (fun b v -> w_int b (Bool.to_int v));
    r = (fun r -> match r_int r with 0 -> false | 1 -> true | n -> bad what n);
  }

let bool = flag "boolean"
let some = flag "option tag"

let str =
  {
    w = (fun b s -> w_int b (String.length s); Buffer.add_string b s);
    r =
      (fun r ->
        let n = r_count ~width:1 r "string length" in
        let s = String.sub r.data r.pos n in
        r.pos <- r.pos + n;
        s);
  }

let opt c =
  {
    w = (fun b v -> some.w b (Option.is_some v); Option.iter (c.w b) v);
    r = (fun r -> if some.r r then Some (c.r r) else None);
  }

(* Explicit recursion: List.init's application order is unspecified,
   and the reader is stateful.  Every item is at least one word. *)
let list c =
  let rec go r i acc =
    if i = 0 then List.rev acc else go r (i - 1) (c.r r :: acc)
  in
  {
    w = (fun b xs -> w_int b (List.length xs); List.iter (c.w b) xs);
    r = (fun r -> go r (r_count r "list length") []);
  }

let array c =
  let l = list c in
  {
    w = (fun b a -> w_int b (Array.length a); Array.iter (c.w b) a);
    r = (fun r -> Array.of_list (l.r r));
  }

(* [array int] read straight into its slots, without a list, a codec
   call per item or a polymorphic store: histogram buckets, profile
   rows and the index registers. *)
let ints =
  {
    w = (array int).w;
    r =
      (fun r ->
        let a = Array.make (r_count r "list length") 0 in
        for i = 0 to Array.length a - 1 do
          Array.unsafe_set a i (r_int r)
        done;
        a);
  }

(* Each read is sequenced by a [let]: OCaml leaves the evaluation order
   of a tuple's components unspecified. *)
let pair ca cb =
  {
    w = (fun b (x, y) -> ca.w b x; cb.w b y);
    r = (fun r -> let x = ca.r r in (x, cb.r r));
  }

let triple ca cb cc =
  {
    w = (fun b (x, y, z) -> ca.w b x; cb.w b y; cc.w b z);
    r = (fun r -> let x = ca.r r in let y = cb.r r in (x, y, cc.r r));
  }

(* A value stored as [c]'s representation: [from] takes it apart for
   writing, [into] rebuilds (and validates) it when read. *)
let conv ~from ~into c =
  { w = (fun b v -> c.w b (from v)); r = (fun r -> into (c.r r)) }

(* [c], with [ok] vetting each value it reads. *)
let check c ok = { w = c.w; r = (fun r -> let v = c.r r in ok v; v) }

(* A constant constructor, stored as its position in [cases]. *)
let enum what cases =
  let cases = Array.of_list cases in
  let rec index v i = if cases.(i) = v then i else index v (i + 1) in
  {
    w = (fun b v -> w_int b (index v 0));
    r =
      (fun r ->
        let n = r_int r in
        if n < 0 || n >= Array.length cases then bad what n;
        cases.(n));
  }

(* A constructor that validates (Ring.v, Addr.v, ...) turns a decoded
   out-of-range value into a typed [Corrupt]. *)
let guard what f x =
  try f x with Invalid_argument m -> corrupt (what ^ ": " ^ m)

(* {1 Records} *)

let int2 = pair int int
let int3 = triple int int int
let ring = conv int ~from:Rings.Ring.to_int ~into:(guard "ring" Rings.Ring.v)
let ring2 = pair ring ring
let ring3 = triple ring ring ring

let addr =
  conv int2
    ~from:(fun (a : Hw.Addr.t) -> (a.segno, a.wordno))
    ~into:(guard "address" (fun (segno, wordno) -> Hw.Addr.v ~segno ~wordno))

let ptr =
  conv (pair ring addr)
    ~from:(fun (p : Hw.Registers.ptr) -> (p.ring, p.addr))
    ~into:(fun (ring, addr) -> { Hw.Registers.ring; addr })

let dbr =
  conv int3
    ~from:(fun (d : Hw.Registers.dbr) -> (d.base, d.bound, d.stack_base))
    ~into:(fun (base, bound, stack_base) ->
      { Hw.Registers.base; bound; stack_base })

(* A register bank: exactly [Hw.Registers.pr_count] registers. *)
let bank what c =
  check c (fun a ->
      if Array.length a <> Hw.Registers.pr_count then corrupt what)

let regs =
  conv
    (triple
       (triple dbr ptr (bank "wrong pointer-register count" (array ptr)))
       int2
       (triple (bank "wrong index-register count" ints) bool bool))
    ~from:(fun (g : Hw.Registers.t) ->
      ( (g.dbr, Hw.Registers.ipr g, g.prs),
        (g.a, g.q),
        (g.xs, g.ind_zero, g.ind_negative) ))
    ~into:(fun ((dbr, (ipr : Hw.Registers.ptr), prs), (a, q),
                (xs, ind_zero, ind_negative)) ->
      { Hw.Registers.dbr; ipr_ring = ipr.ring; ipr_segno = ipr.addr.segno;
        ipr_wordno = ipr.addr.wordno; prs; a; q; xs; ind_zero; ind_negative })

(* A countdown: an optional count whose value is never the machine's
   in-memory sentinel. *)
let countdown =
  check (opt int) (function
    | Some n when n = Isa.Machine.disarmed -> corrupt "countdown out of range"
    | _ -> ())

(* The machine's own countdowns, stored as [countdown]. *)
let armed =
  conv countdown ~from:Isa.Machine.option_of_countdown
    ~into:Isa.Machine.countdown_of_option

let brackets =
  conv int3
    ~from:(fun (b : Rings.Brackets.t) ->
      Rings.Ring.(to_int b.r1, to_int b.r2, to_int b.r3))
    ~into:
      (guard "brackets" (fun (r1, r2, r3) -> Rings.Brackets.of_ints r1 r2 r3))

let access =
  conv
    (triple (triple bool bool bool) brackets
       (check int (fun gates ->
            if gates < 0 then corrupt "negative gate count")))
    ~from:(fun (a : Rings.Access.t) ->
      ((a.read, a.write, a.execute), a.brackets, a.gates))
    ~into:(fun ((read, write, execute), brackets, gates) ->
      { Rings.Access.read; write; execute; brackets; gates })

let io_request =
  conv
    (pair (pair addr addr) (pair (enum "I/O direction" [ `Read; `Write ]) int))
    ~from:(fun (q : Isa.Machine.io_request) ->
      ((q.ccw, q.buffer), (q.direction, q.count)))
    ~into:(fun ((ccw, buffer), (direction, count)) ->
      { Isa.Machine.ccw; buffer; direction; count })

(* {2 Variants}

   A variant is its tag, then its constructor's fields. *)

let fault : Rings.Fault.t codec =
  {
    w =
      (fun b f ->
        w_int b (Rings.Fault.code f);
        match f with
        | No_read_permission | No_write_permission | No_execute_permission
        | Divide_by_zero | Timer_runout | Io_completion | Io_error ->
            ()
        | Read_bracket_violation { effective = x; top = y }
        | Write_bracket_violation { effective = x; top = y }
        | Outside_gate_extension { effective = x; top = y }
        | Effective_ring_raised { exec = x; effective = y }
        | Downward_return { from_ring = x; to_ring = y }
        | Transfer_ring_change { exec = x; effective = y }
        | Cap_attenuation_violation { effective = x; limit = y } ->
            ring2.w b (x, y)
        | Execute_bracket_violation { ring = x; bottom = y; top = z } ->
            ring3.w b (x, y, z)
        | Upward_call { from_ring; to_ring; segno; wordno } ->
            ring2.w b (from_ring, to_ring);
            int2.w b (segno, wordno)
        | Privileged_instruction { ring = x }
        | Halt_in_slave_ring { ring = x }
        | Cap_load_violation { effective = x }
        | Cap_store_violation { effective = x }
        | Cap_exec_violation { ring = x } ->
            ring.w b x
        | Missing_segment { segno = n }
        | Illegal_opcode { word = n }
        | Service_call { code = n }
        | Parity_error { addr = n }
        | Watchdog_timeout { budget = n } ->
            w_int b n
        | Gate_violation { wordno = x; gates = y }
        | Missing_page { segno = x; pageno = y }
        | Cross_ring_transfer { segno = x; wordno = y }
        | Cap_seal_violation { wordno = x; gates = y }
        | Cap_tag_violation { addr = x; segno = y } ->
            int2.w b (x, y)
        | Bound_violation { segno; wordno; bound } ->
            int3.w b (segno, wordno, bound)
        | Quota_exhausted { resource; limit } ->
            str.w b resource;
            w_int b limit);
    r =
      (fun r ->
        match r_int r with
        | 0 -> No_read_permission
        | 1 -> No_write_permission
        | 2 -> No_execute_permission
        | 3 ->
            let effective, top = ring2.r r in
            Read_bracket_violation { effective; top }
        | 4 ->
            let effective, top = ring2.r r in
            Write_bracket_violation { effective; top }
        | 5 ->
            let x, bottom, top = ring3.r r in
            Execute_bracket_violation { ring = x; bottom; top }
        | 6 ->
            let wordno, gates = int2.r r in
            Gate_violation { wordno; gates }
        | 7 ->
            let effective, top = ring2.r r in
            Outside_gate_extension { effective; top }
        | 8 ->
            let from_ring, to_ring = ring2.r r in
            let segno, wordno = int2.r r in
            Upward_call { from_ring; to_ring; segno; wordno }
        | 9 ->
            let exec, effective = ring2.r r in
            Effective_ring_raised { exec; effective }
        | 10 ->
            let from_ring, to_ring = ring2.r r in
            Downward_return { from_ring; to_ring }
        | 11 ->
            let exec, effective = ring2.r r in
            Transfer_ring_change { exec; effective }
        | 12 -> Privileged_instruction { ring = ring.r r }
        | 13 -> Missing_segment { segno = r_int r }
        | 14 ->
            let segno, pageno = int2.r r in
            Missing_page { segno; pageno }
        | 15 ->
            let segno, wordno, bound = int3.r r in
            Bound_violation { segno; wordno; bound }
        | 16 -> Illegal_opcode { word = r_int r }
        | 17 ->
            let segno, wordno = int2.r r in
            Cross_ring_transfer { segno; wordno }
        | 18 -> Halt_in_slave_ring { ring = ring.r r }
        | 19 -> Divide_by_zero
        | 20 -> Service_call { code = r_int r }
        | 21 -> Timer_runout
        | 22 -> Io_completion
        | 23 -> Parity_error { addr = r_int r }
        | 24 -> Io_error
        | 25 -> Watchdog_timeout { budget = r_int r }
        | 26 ->
            let resource, limit = (pair str int).r r in
            Quota_exhausted { resource; limit }
        | 27 -> Cap_load_violation { effective = ring.r r }
        | 28 -> Cap_store_violation { effective = ring.r r }
        | 29 -> Cap_exec_violation { ring = ring.r r }
        | 30 ->
            let wordno, gates = int2.r r in
            Cap_seal_violation { wordno; gates }
        | 31 ->
            let effective, limit = ring2.r r in
            Cap_attenuation_violation { effective; limit }
        | 32 ->
            let addr, segno = int2.r r in
            Cap_tag_violation { addr; segno }
        | n -> bad "fault code" n);
  }

let kernel_exit : Kernel.exit codec =
  {
    w =
      (fun b e ->
        match e with
        | Halted -> w_int b 0
        | Exited -> w_int b 1
        | Preempted -> w_int b 2
        | Blocked -> w_int b 3
        | Terminated f ->
            w_int b 4;
            fault.w b f
        | Gatekeeper_error msg ->
            w_int b 5;
            str.w b msg
        | Out_of_budget -> w_int b 6
        | Quarantined f ->
            w_int b 7;
            fault.w b f);
    r =
      (fun r ->
        match r_int r with
        | 0 -> Halted
        | 1 -> Exited
        | 2 -> Preempted
        | 3 -> Blocked
        | 4 -> Terminated (fault.r r)
        | 5 -> Gatekeeper_error (str.r r)
        | 6 -> Out_of_budget
        | 7 -> Quarantined (fault.r r)
        | n -> bad "exit tag" n);
  }

let crossing =
  enum "crossing tag" Trace.Event.[ Same_ring; Downward; Upward; Recovery ]

(* A call or return: crossing, rings, then the target. *)
let transfer = pair (triple crossing int int) int2

let event : Trace.Event.t codec =
  {
    w =
      (fun b e ->
        match e with
        | Instruction { ring; segno; wordno; text } ->
            w_int b 0;
            int3.w b (ring, segno, wordno);
            str.w b text
        | Call { crossing; from_ring; to_ring; segno; wordno } ->
            w_int b 1;
            transfer.w b ((crossing, from_ring, to_ring), (segno, wordno))
        | Return { crossing; from_ring; to_ring; segno; wordno } ->
            w_int b 2;
            transfer.w b ((crossing, from_ring, to_ring), (segno, wordno))
        | Trap { ring; cause } ->
            w_int b 3;
            w_int b ring;
            str.w b cause
        | Gatekeeper { action } ->
            w_int b 4;
            str.w b action
        | Descriptor_switch { from_ring; to_ring } ->
            w_int b 5;
            int2.w b (from_ring, to_ring)
        | Note s ->
            w_int b 6;
            str.w b s);
    r =
      (fun r ->
        match r_int r with
        | 0 ->
            let ring, segno, wordno = int3.r r in
            Instruction { ring; segno; wordno; text = str.r r }
        | 1 ->
            let (crossing, from_ring, to_ring), (segno, wordno) =
              transfer.r r
            in
            Call { crossing; from_ring; to_ring; segno; wordno }
        | 2 ->
            let (crossing, from_ring, to_ring), (segno, wordno) =
              transfer.r r
            in
            Return { crossing; from_ring; to_ring; segno; wordno }
        | 3 ->
            let ring = r_int r in
            Trap { ring; cause = str.r r }
        | 4 -> Gatekeeper { action = str.r r }
        | 5 ->
            let from_ring, to_ring = int2.r r in
            Descriptor_switch { from_ring; to_ring }
        | 6 -> Note (str.r r)
        | n -> bad "event tag" n);
  }

let placement : Process.placement codec =
  {
    w =
      (fun b -> function
        | Direct { base; bound } ->
            w_int b 0;
            int2.w b (base, bound)
        | Paged_at { pt_base; bound } ->
            w_int b 1;
            int2.w b (pt_base, bound));
    r =
      (fun r ->
        match r_int r with
        | 0 ->
            let base, bound = int2.r r in
            Direct { base; bound }
        | 1 ->
            let pt_base, bound = int2.r r in
            Paged_at { pt_base; bound }
        | n -> bad "placement tag" n);
  }

let status : System.status codec =
  {
    w =
      (fun b -> function
        | Ready -> w_int b 0
        | Blocked -> w_int b 1
        | Done e ->
            w_int b 2;
            kernel_exit.w b e);
    r =
      (fun r ->
        match r_int r with
        | 0 -> Ready
        | 1 -> Blocked
        | 2 -> Done (kernel_exit.r r)
        | n -> bad "status tag" n);
  }

(* {2 Machine, trace and process records} *)

let saved_state =
  conv (pair regs fault)
    ~from:(fun (s : Isa.Machine.saved_state) -> (s.regs, s.fault))
    ~into:(fun (regs, fault) -> { Isa.Machine.regs; fault })

let trap_config =
  conv (pair addr addr)
    ~from:(fun (t : Isa.Machine.trap_config) ->
      (t.vector_base, t.conditions_base))
    ~into:(fun (vector_base, conditions_base) ->
      { Isa.Machine.vector_base; conditions_base })

let sealed_return =
  conv int3
    ~from:(fun (s : Cap.Capability.sealed_return) ->
      (s.sr_otype, s.sr_segno, s.sr_wordno))
    ~into:(fun (sr_otype, sr_segno, sr_wordno) ->
      { Cap.Capability.sr_otype; sr_segno; sr_wordno })

let inject_dump =
  conv
    (pair (pair int (list int2)) (pair (list int2) int))
    ~from:(fun (d : Hw.Inject.dump) ->
      ((d.dump_rng, d.dump_armed), (d.dump_poison, d.dump_total)))
    ~into:(fun ((dump_rng, dump_armed), (dump_poison, dump_total)) ->
      { Hw.Inject.dump_rng; dump_armed; dump_poison; dump_total })

let stamped =
  conv (triple int int event)
    ~from:(fun (s : Trace.Event.stamped) -> (s.seq, s.cycles, s.event))
    ~into:(fun (seq, cycles, event) -> { Trace.Event.seq; cycles; event })

let event_dump =
  conv
    (triple (triple (list stamped) int int) int3 int2)
    ~from:(fun (d : Trace.Event.dump) ->
      ( (d.d_entries, d.d_next_seq, d.d_dropped),
        (d.d_sampled_out, d.d_high_water, d.d_sample_interval),
        (d.d_sample_seed, d.d_instr_interval) ))
    ~into:(fun ((d_entries, d_next_seq, d_dropped),
                (d_sampled_out, d_high_water, d_sample_interval),
                (d_sample_seed, d_instr_interval)) ->
      { Trace.Event.d_entries; d_next_seq; d_dropped; d_sampled_out;
        d_high_water; d_sample_interval; d_sample_seed; d_instr_interval })

let open_span =
  conv
    (triple (triple crossing int int) int3 int2)
    ~from:(fun (o : Trace.Span.open_span) ->
      ( (o.o_kind, o.o_from_ring, o.o_to_ring),
        (o.o_segno, o.o_wordno, o.o_start),
        (o.o_depth, o.o_seq) ))
    ~into:(fun ((o_kind, o_from_ring, o_to_ring),
                (o_segno, o_wordno, o_start), (o_depth, o_seq)) ->
      { Trace.Span.o_kind; o_from_ring; o_to_ring; o_segno; o_wordno;
        o_start; o_depth; o_seq })

let completed =
  conv
    (pair (triple (triple crossing int int) int3 int3) bool)
    ~from:(fun (c : Trace.Span.completed) ->
      ( ( (c.kind, c.from_ring, c.to_ring),
          (c.segno, c.wordno, c.start_cycles),
          (c.end_cycles, c.depth, c.seq) ),
        c.forced ))
    ~into:(fun (((kind, from_ring, to_ring),
                 (segno, wordno, start_cycles),
                 (end_cycles, depth, seq)), forced) ->
      { Trace.Span.kind; from_ring; to_ring; segno; wordno; start_cycles;
        end_cycles; depth; seq; forced })

let hist =
  conv
    (triple ints int2 int2)
    ~from:(fun (buckets, count, sum, vmin, vmax) ->
      (buckets, (count, sum), (vmin, vmax)))
    ~into:(fun (buckets, (count, sum), (vmin, vmax)) ->
      (buckets, count, sum, vmin, vmax))

let span_dump =
  conv
    (triple
       (triple (list open_span) int (list completed))
       int3
       (triple int int (array hist)))
    ~from:(fun (d : Trace.Span.dump) ->
      ( (d.dump_stack, d.dump_next_seq, d.dump_completed),
        (d.dump_dropped, d.dump_unmatched, d.dump_sampled_out),
        (d.dump_sample_interval, d.dump_sample_seed, d.dump_hists) ))
    ~into:(fun ((dump_stack, dump_next_seq, dump_completed),
                (dump_dropped, dump_unmatched, dump_sampled_out),
                (dump_sample_interval, dump_sample_seed, dump_hists)) ->
      { Trace.Span.dump_stack; dump_next_seq; dump_completed; dump_dropped;
        dump_unmatched; dump_sampled_out; dump_sample_interval;
        dump_sample_seed; dump_hists })

let profile_dump =
  conv
    (pair (pair ints ints) (pair (list int3) int))
    ~from:(fun (cycles, instructions, segments, kernel) ->
      ((cycles, instructions), (segments, kernel)))
    ~into:(fun ((cycles, instructions), (segments, kernel)) ->
      (cycles, instructions, segments, kernel))

let loaded =
  conv
    (pair (triple str int int) (triple int access (list (pair str int))))
    ~from:(fun (l : Process.loaded) ->
      ((l.name, l.segno, l.base), (l.bound, l.access, l.symbols)))
    ~into:(fun ((name, segno, base), (bound, access, symbols)) ->
      { Process.name; segno; base; bound; access; symbols })

let process_crossing =
  conv
    (pair
       (triple (enum "crossing kind" Process.[ Inward; Outward ]) regs ring)
       (pair ring (list (pair addr addr))))
    ~from:(fun (c : Process.crossing) ->
      ((c.kind, c.saved, c.caller_ring), (c.callee_ring, c.copy_back)))
    ~into:(fun ((kind, saved, caller_ring), (callee_ring, copy_back)) ->
      { Process.kind; saved; caller_ring; callee_ring; copy_back })

(* {1 In-place sections}

   The respawned system already holds most of what an image carries.  A
   section is a list of fields over a live target, each written from it
   and read back into it ([field]) or checked against it ([same]).
   Capture writes the sections and every apply reads the same lists. *)

type 't field = { save : Buffer.t -> 't -> unit; load : reader -> 't -> unit }

let write fields b t = List.iter (fun f -> f.save b t) fields
let read fields r t = List.iter (fun f -> f.load r t) fields

let field c ~get ~set =
  { save = (fun b t -> c.w b (get t)); load = (fun r t -> set t (c.r r)) }

let same c ~get what =
  {
    save = (fun b t -> c.w b (get t));
    load = (fun r t -> if c.r r <> get t then shape what);
  }

(* The fields of a part of the target. *)
let part fields ~get =
  {
    save = (fun b t -> write fields b (get t));
    load = (fun r t -> read fields r (get t));
  }

(* A part the target may lack: the image holds it exactly when the
   respawned target does. *)
let present fields ~get ~image_only ~live_only =
  {
    save =
      (fun b t ->
        let x = get t in
        some.w b (Option.is_some x);
        Option.iter (write fields b) x);
    load =
      (fun r t ->
        match (some.r r, get t) with
        | false, None -> ()
        | true, Some x -> read fields r x
        | true, None -> shape image_only
        | false, Some _ -> shape live_only);
  }

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* A hashtable, dumped sorted by key and refilled whole. *)
let table c ~get =
  field
    (list (pair int c))
    ~get:(fun t -> sorted_bindings (get t))
    ~set:(fun t bindings ->
      let tbl = get t in
      Hashtbl.reset tbl;
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bindings)

(* The machine section is written in two pieces around the memory
   pages: [machine_pre] (configuration + live processor state) and
   [machine_post] (SDW tag population, injector, capability state). *)
let mode_tag (m : Isa.Machine.t) =
  match m.mode with
  | Ring_hardware -> 0
  | Ring_software_645 -> 1
  | Ring_capability -> 2

let rule_tag (m : Isa.Machine.t) =
  match m.stack_rule with
  | Rings.Stack_rule.Segno_equals_ring -> 0
  | Rings.Stack_rule.Dbr_stack_relative -> 1

let machine_pre : Isa.Machine.t field list =
  [
    (* Immutable configuration, serialized so restore can shape-check
       that the respawned machine was built the same way. *)
    same int ~get:mode_tag "machine mode differs";
    same int ~get:rule_tag "stack rule differs";
    same bool
      ~get:(fun m -> m.Isa.Machine.gate_on_same_ring)
      "gate-on-same-ring ablation differs";
    same bool
      ~get:(fun m -> m.Isa.Machine.use_r1_in_indirection)
      "R1-in-indirection ablation differs";
    (* Live processor state. *)
    field regs
      ~get:(fun m -> m.Isa.Machine.regs)
      ~set:(fun m g -> Hw.Registers.restore m.regs ~from:g);
    field bool ~get:(fun m -> m.Isa.Machine.halted)
      ~set:(fun m v -> m.halted <- v);
    field (opt saved_state) ~get:(fun m -> m.Isa.Machine.saved)
      ~set:(fun m v -> m.saved <- v);
    field armed ~get:(fun m -> m.Isa.Machine.timer)
      ~set:(fun m v -> m.timer <- v);
    field armed ~get:(fun m -> m.Isa.Machine.io_countdown)
      ~set:(fun m v -> m.io_countdown <- v);
    field (opt io_request) ~get:(fun m -> m.Isa.Machine.io_request)
      ~set:(fun m v -> m.io_request <- v);
    field bool ~get:(fun m -> m.Isa.Machine.inhibit)
      ~set:(fun m v -> m.inhibit <- v);
    field (opt trap_config) ~get:(fun m -> m.Isa.Machine.trap_config)
      ~set:(fun m v -> m.trap_config <- v);
    field bool ~get:(fun m -> m.Isa.Machine.degraded)
      ~set:(fun m v -> m.degraded <- v);
    field bool ~get:(fun m -> m.Isa.Machine.io_fail_pending)
      ~set:(fun m v -> m.io_fail_pending <- v);
  ]

let machine_post : Isa.Machine.t field list =
  [
    (* The modeled SDW tag-store population — keys only: quiesce
       demoted every value to the absent sentinel before we got here,
       and the population is what drives modeled accounting.  Restore
       leaves every key present, every value absent: exactly the state
       [quiesce] leaves behind. *)
    field (list int)
      ~get:(fun m ->
        Hashtbl.fold (fun k _ acc -> k :: acc) m.Isa.Machine.sdw_tags []
        |> List.sort Int.compare)
      ~set:(fun m keys ->
        Hashtbl.reset m.sdw_tags;
        List.iter (fun k -> Hashtbl.replace m.sdw_tags k Hw.Sdw.absent) keys);
    (* Fault injector: RNG, armed-rule positions, poison table.  The
       address ranges themselves are re-registered by the respawn. *)
    present
      [
        field inject_dump ~get:Hw.Inject.dump ~set:(fun i d ->
            try Hw.Inject.restore i d with Invalid_argument msg -> shape msg);
      ]
      ~get:(fun m -> m.Isa.Machine.injector)
      ~image_only:"image has a fault injector, this run does not"
      ~live_only:"this run has a fault injector, the image does not";
    (* Capability-backend state: the validity-tag population (addresses
       only — a tag is one bit) and the sealed-return stack.  Both are
       empty in the other modes, so their cost there is two zero
       counts.  The tags are re-applied after the memory pass:
       restoring a word goes through [write_silent], which clears its
       tag, so tags written earlier would be erased. *)
    same bool
      ~get:(fun m -> Hw.Memory.tags_enabled m.Isa.Machine.mem)
      "capability tag store presence differs";
    field (list int)
      ~get:(fun m -> Hw.Memory.tagged_addrs m.Isa.Machine.mem)
      ~set:(fun m tagged ->
        let mem = m.mem in
        if Hw.Memory.tags_enabled mem then begin
          Hw.Memory.clear_tags mem;
          List.iter
            (fun a ->
              if a < 0 || a >= Hw.Memory.size mem then
                corrupt "tag address out of range";
              Hw.Memory.set_tag mem a)
            tagged
        end
        else if tagged <> [] then corrupt "tagged words without a tag store");
    field (list sealed_return) ~get:(fun m -> m.Isa.Machine.cap_stack)
      ~set:(fun m v -> m.cap_stack <- v);
  ]

let trace : Isa.Machine.t field list =
  [
    field bool
      ~get:(fun m -> Trace.Event.enabled m.Isa.Machine.log)
      ~set:(fun m v -> Trace.Event.set_enabled m.log v);
    field event_dump
      ~get:(fun m -> Trace.Event.dump m.Isa.Machine.log)
      ~set:(fun m d -> Trace.Event.restore m.log d);
    field bool
      ~get:(fun m -> Trace.Span.enabled m.Isa.Machine.spans)
      ~set:(fun m v -> Trace.Span.set_enabled m.spans v);
    field span_dump
      ~get:(fun m -> Trace.Span.dump m.Isa.Machine.spans)
      ~set:(fun m d -> Trace.Span.restore m.spans d);
    field bool
      ~get:(fun m -> Trace.Profile.enabled m.Isa.Machine.profile)
      ~set:(fun m v -> Trace.Profile.set_enabled m.profile v);
    field profile_dump
      ~get:(fun m -> Trace.Profile.dump m.Isa.Machine.profile)
      ~set:(fun m d -> Trace.Profile.restore m.profile d);
  ]

let paging : Process.paging_state field list =
  [
    field (list int) ~get:(fun ps -> ps.Process.free_frames)
      ~set:(fun ps v -> ps.free_frames <- v);
    field (list int3) ~get:(fun ps -> ps.Process.resident)
      ~set:(fun ps v -> ps.resident <- v);
    table ints ~get:(fun ps -> ps.Process.backing);
  ]

(* The descriptor segments were placed by the respawn: each must
   match. *)
let descsegs =
  {
    save = (fun b p -> (array dbr).w b p.Process.descsegs);
    load =
      (fun r p ->
        let ds = p.Process.descsegs in
        if r_int r <> Array.length ds then
          shape "descriptor-segment count differs";
        Array.iteri
          (fun i d ->
            if dbr.r r <> d then
              shape (Printf.sprintf "descriptor segment %d differs" i))
          ds);
  }

let process : Process.t field list =
  [
    same str ~get:(fun p -> p.Process.user) "process user differs";
    descsegs;
    table access ~get:(fun p -> p.Process.ring_data);
    table placement ~get:(fun p -> p.Process.placement);
    field (list loaded) ~get:(fun p -> p.Process.loaded)
      ~set:(fun p v -> p.loaded <- v);
    field int ~get:(fun p -> p.Process.next_segno)
      ~set:(fun p v -> p.next_segno <- v);
    field int ~get:(fun p -> p.Process.next_free)
      ~set:(fun p v -> p.next_free <- v);
    present paging
      ~get:(fun p -> p.Process.paging)
      ~image_only:"image process is demand-paged, this one is not"
      ~live_only:"this process is demand-paged, the image's is not";
    field (list process_crossing) ~get:(fun p -> p.Process.crossings)
      ~set:(fun p v -> p.crossings <- v);
    field int ~get:(fun p -> p.Process.fault_count)
      ~set:(fun p v -> p.fault_count <- v);
    field int ~get:(fun p -> p.Process.io_attempts)
      ~set:(fun p v -> p.io_attempts <- v);
    (* A directory search path holds live closures and is not
       snapshottable; record its presence so restore can refuse. *)
    field bool
      ~get:(fun p -> p.Process.search_rules <> None)
      ~set:(fun _ v ->
        if v then corrupt "directory search rules are not snapshottable");
    field
      (triple (list int) (list int) int)
      ~get:(fun p -> Device.dump p.Process.typewriter)
      ~set:(fun p d -> Device.restore p.typewriter d);
  ]

let entry : System.entry field list =
  [
    same str ~get:(fun e -> e.System.pname) "process names differ";
    field status ~get:(fun e -> e.System.status)
      ~set:(fun e v -> e.status <- v);
    field regs ~get:(fun e -> e.System.saved_regs)
      ~set:(fun e v -> e.saved_regs <- v);
    field (pair countdown (opt io_request)) ~get:(fun e -> e.System.saved_io)
      ~set:(fun e v -> e.saved_io <- v);
    field int ~get:(fun e -> e.System.stalled)
      ~set:(fun e v -> e.stalled <- v);
    part process ~get:(fun e -> e.System.process);
  ]

(* The respawn built the process set: the image lists the same entries,
   in order. *)
let entries =
  {
    save =
      (fun b sys ->
        let es = System.entries sys in
        w_int b (List.length es);
        List.iter (write entry b) es);
    load =
      (fun r sys ->
        let es = System.entries sys in
        if r_int r <> List.length es then shape "process count differs";
        List.iter (read entry r) es);
  }

let system : System.t field list =
  [
    field int ~get:System.slices ~set:System.set_slices;
    field
      (list (pair str kernel_exit))
      ~get:System.finished_log ~set:System.set_finished_log;
    field (list str) ~get:System.rotation ~set:(fun sys rotation ->
        let known pname =
          List.exists
            (fun (e : System.entry) -> String.equal e.pname pname)
            (System.entries sys)
        in
        List.iter
          (fun pname ->
            if not (known pname) then
              shape (Printf.sprintf "rotation names unknown process %s" pname))
          rotation;
        System.set_rotation sys rotation);
    entries;
  ]

(* The counters: a fingerprint of the table's ordered names, then one
   word per counter in table order, loaded into the live table whole.
   An image written by a build with another counter table fails the
   fingerprint. *)
let counters : Isa.Machine.t field =
  let names = String.concat "\n" (Array.to_list Trace.Counters.names) in
  let fingerprint = checksum names 0 (String.length names) in
  {
    save =
      (fun b m ->
        w_int b fingerprint;
        Array.iter (w_int b) (Trace.Counters.values m.Isa.Machine.counters));
    load =
      (fun r m ->
        if r_int r <> fingerprint then corrupt "counter table differs";
        let v = Array.make (Array.length Trace.Counters.names) 0 in
        for i = 0 to Array.length v - 1 do
          v.(i) <- r_int r
        done;
        Trace.Counters.load m.Isa.Machine.counters v);
  }

(* The two sections of the payload, around the memory pages: [pre]
   holds the counters and processor state, [post] the rest of the
   machine, the trace surface and the scheduler. *)
let pre_section = counters :: machine_pre

let post_section = part (machine_post @ trace) ~get:System.machine :: system

(* {1 The payload frame}

   Everything after [base_sum].  A capture builds a frame from the live
   system; [flatten] builds one from the frames it folds. *)

(* A page of [words] words whose [nnz] (offset, word) pairs are bytes
   [off, off + 16 * nnz) of [src]. *)
type page = { pageno : int; words : int; nnz : int; src : string; off : int }

type frame = { pre : string; mem_size : int; pages : page list; post : string }

(* The buffers a capture writes through, kept per domain and reused:
   a capture then allocates little besides its image, where fresh
   buffers would put tens of kilobytes a capture on the major heap
   (serving shards capture from several domains at once).  [listing]
   holds one page record's (offset, word) pairs as a read decodes
   them. *)
type scratch = {
  out : Buffer.t;
  pre : Buffer.t;
  pages : Buffer.t;
  pairs : Buffer.t;
  listing : int array;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        out = Buffer.create (1 lsl 14);
        pre = Buffer.create 4096;
        pages = Buffer.create 4096;
        pairs = Buffer.create 4096;
        listing = Array.make (2 * Hw.Memory.page_words) 0;
      })

(* A page record's head, checked: its page number (above [last], in
   [mem_size] words), its length and its word count. *)
let r_page_head r ~mem_size ~last =
  let pageno = r_int r in
  if pageno <= last || pageno > (mem_size - 1) / Hw.Memory.page_words then
    corrupt "pages not ascending or out of range";
  let base_addr = pageno * Hw.Memory.page_words in
  let words = min Hw.Memory.page_words (mem_size - base_addr) in
  if r_int r <> words then corrupt "wrong page length";
  (pageno, words, r_count ~width:16 r "page word count")

(* A page record's [nnz] (offset, word) pairs, checked and decoded into
   [listing] for {!Hw.Memory.set_page}.  Offsets ascend below [words],
   so a record that passes fills at most [2 * words] slots. *)
let r_page_pairs r ~words ~nnz listing =
  let prev = ref (-1) in
  for i = 0 to nnz - 1 do
    let o = r_int r in
    let w = r_int r in
    if o <= !prev || o >= words then corrupt "page words not ascending";
    if w = 0 then corrupt "zero word in a sparse page";
    listing.(2 * i) <- o;
    listing.((2 * i) + 1) <- w;
    prev := o
  done

(* The page records, over [mem_size] words, read checked and kept as
   spans of the image for folding. *)
let pages ~mem_size =
  let last = ref (-1) in
  list
    {
      w =
        (fun b p ->
          int3.w b (p.pageno, p.words, p.nnz);
          Buffer.add_substring b p.src p.off (16 * p.nnz));
      r =
        (fun r ->
          let pageno, words, nnz = r_page_head r ~mem_size ~last:!last in
          last := pageno;
          let off = r.pos in
          r_page_pairs r ~words ~nnz (Domain.DLS.get scratch).listing;
          { pageno; words; nnz; src = r.data; off });
    }

let w_frame b (f : frame) =
  str.w b f.pre;
  w_int b f.mem_size;
  (pages ~mem_size:f.mem_size).w b f.pages;
  Buffer.add_string b f.post

(* An image is written into one buffer: the header with its payload
   length and checksum left zero, then the payload; [finish_image]
   copies it out once and patches the two header fields in. *)
let start_image out ~kind ~base_sum =
  Buffer.clear out;
  Buffer.add_string out kind;
  w_int out version;
  w_int out 0;
  w_int out 0;
  w_int out base_sum

let finish_image out =
  let image = Buffer.to_bytes out in
  let len = Bytes.length image - header_len in
  let sum = checksum (Bytes.unsafe_to_string image) header_len len in
  Bytes.set_int64_be image 16 (Int64.of_int len);
  Bytes.set_int64_be image 24 (Int64.of_int sum);
  (sum, Bytes.unsafe_to_string image)

(* Header and payload; the payload checksum comes back with the
   image, for the chain to link the next delta to. *)
let seal ~kind ~base_sum f =
  let out = Buffer.create (1 lsl 14) in
  start_image out ~kind ~base_sum;
  w_frame out f;
  finish_image out

(* Append page [p] of live memory to [pages] in the frame's page
   encoding; false (and nothing appended) when it holds only zeros and
   [keep_zero] is off. *)
let add_page mem ~pages ~pairs ~keep_zero p =
  let base_addr = p * Hw.Memory.page_words in
  let words = min Hw.Memory.page_words (Hw.Memory.size mem - base_addr) in
  Buffer.clear pairs;
  let nnz = ref 0 in
  Hw.Memory.iter_nonzero mem ~addr:base_addr ~len:words (fun i w ->
      incr nnz;
      w_int pairs i;
      w_int pairs w);
  if !nnz = 0 && not keep_zero then false
  else begin
    w_int pages p;
    w_int pages words;
    w_int pages !nnz;
    Buffer.add_buffer pages pairs;
    true
  end

(* The one writer.  [prev] is the predecessor's payload checksum for a
   delta, [None] for a full image.  Over the zero machine a page has
   changed exactly when it holds a nonzero word, and only a written
   page can; a delta cannot tell, so it lists every dirty page — even
   one that went back to zero, which the fold must still clear.  The
   payload is the {!w_frame} encoding, written in place; only [pre]
   and the pages, whose lengths come first, go through scratch
   buffers. *)
let encode sys ~prev =
  let m = System.machine sys in
  let mem = m.Isa.Machine.mem in
  let s = Domain.DLS.get scratch in
  Buffer.clear s.pre;
  write pre_section s.pre m;
  let kind, base_sum, candidates, keep_zero =
    match prev with
    | None -> (magic, 0, Hw.Memory.written_pages mem, false)
    | Some sum -> (delta_magic, sum, Hw.Memory.dirty_pages mem, true)
  in
  Buffer.clear s.pages;
  let npages =
    List.fold_left
      (fun n p ->
        if add_page mem ~pages:s.pages ~pairs:s.pairs ~keep_zero p then n + 1
        else n)
      0 candidates
  in
  let out = s.out in
  start_image out ~kind ~base_sum;
  w_int out (Buffer.length s.pre);
  Buffer.add_buffer out s.pre;
  w_int out (Hw.Memory.size mem);
  w_int out npages;
  Buffer.add_buffer out s.pages;
  write post_section out sys;
  finish_image out

(* The count is bumped {e before} serializing, so the image already
   carries its own capture: an uninterrupted checkpointing run and a
   run resumed from any of its images agree on [snapshots_written].
   If the capture then fails to produce an image, the bump is rolled
   back — a failed capture must not inflate the counter. *)
let with_capture_counted (c : Trace.Counters.t) f =
  let before = Trace.Counters.values c in
  Trace.Counters.(incr c snapshots_written);
  try f ()
  with e ->
    Trace.Counters.load c before;
    raise e

(* Every public capture — full or delta — is a capture point: clearing
   the dirty map moves its generation, so a delta chain straddling
   this capture refuses its next [capture_delta] instead of emitting a
   delta that silently misses these pages.  Memory now equals the
   image just sealed and no page is dirty: the anchor a later rewind
   to this image starts from. *)
let capture_point sys ~prev =
  let m = System.machine sys in
  let mem = m.Isa.Machine.mem in
  Isa.Machine.quiesce m;
  let ((sum, _) as sealed) = encode sys ~prev in
  Hw.Memory.clear_dirty mem;
  Hw.Memory.set_anchor mem sum;
  sealed

let capture sys =
  with_capture_counted (System.machine sys).Isa.Machine.counters (fun () ->
      snd (capture_point sys ~prev:None))

(* The restore self-check re-captures without bumping anything. *)
let capture_silent sys =
  Isa.Machine.quiesce (System.machine sys);
  snd (encode sys ~prev:None)

(* {1 Reading} *)

(* The one header parser.  [kind] is the magic the caller expects and
   [prev] the payload checksum the image's [base_sum] must name (0 for
   the zero machine); a wrong link is refused with [broken].  Returns
   the payload checksum and a reader just past [base_sum].  The
   checksum is verified unless the image is [trusted] (see
   {!warm_boot}). *)
let parse_header ?(trusted = false) ~kind ~prev ~broken image =
  let n = String.length image in
  if n < String.length kind then raise (Fail Truncated);
  if not (String.starts_with ~prefix:kind image) then raise (Fail Bad_magic);
  if n < header_len then raise (Fail Truncated);
  let r = { data = image; pos = String.length kind } in
  let v = r_int r in
  if v <> version then
    raise (Fail (Bad_version { expected = version; got = v }));
  let len = r_int r in
  let sum = r_int r in
  if len < 0 then corrupt "negative payload length";
  if n - header_len < len then raise (Fail Truncated);
  if n - header_len > len then corrupt "trailing bytes after payload";
  if (not trusted) && checksum image header_len len <> sum then
    raise (Fail Checksum_mismatch);
  if r_int r <> prev then raise (Fail broken);
  (sum, r)

let parse_full ?trusted image =
  parse_header ?trusted ~kind:magic ~prev:0
    ~broken:(Corrupt "full image names a predecessor")
    image

(* A frame read whole, nothing applied: what [flatten] folds and
   [rebase] anchors on. *)
let r_frame r =
  let pre = str.r r in
  let mem_size = r_int r in
  if mem_size < 0 then corrupt "negative memory size";
  let pages = (pages ~mem_size).r r in
  let post = String.sub r.data r.pos (String.length r.data - r.pos) in
  { pre; mem_size; pages; post }

(* Memory, page by page, in ascending address order.  A page record is
   its page's whole content, so {!Hw.Memory.set_page} makes a listed
   page hold exactly its record, and an unlisted page that can hold
   something else is zeroed the same way.  A page never written is
   still zero from [create].  While the image is the anchored one, a
   page that is not dirty still holds what the image lists, so only
   the dirty pages are stale; for any other image every written page
   is.  A [trusted] image that is anchored steps over a clean page's
   record by its length, unread: this system already checked those
   bytes, and the page already holds them.  Every other record is read
   and checked.  Words are only stored where they differ, so the dirty
   map, the tags and the write observers see only real changes.  Once
   the pass completes, memory equals the image: that is the new
   anchor. *)
let apply_memory r mem ~sum ~trusted =
  let mem_size = Hw.Memory.size mem in
  if r_int r <> mem_size then shape "memory size differs";
  let anchored = Hw.Memory.anchored mem sum in
  let stale =
    ref
      (if anchored then Hw.Memory.dirty_pages mem
       else Hw.Memory.written_pages mem)
  in
  let listing = (Domain.DLS.get scratch).listing in
  (* Zero the stale pages below [p] and say whether [p] is stale. *)
  let rec settle p =
    match !stale with
    | s :: rest when s < p ->
        Hw.Memory.set_page mem s listing 0;
        stale := rest;
        settle p
    | s :: rest when s = p ->
        stale := rest;
        true
    | _ -> false
  in
  let last = ref (-1) in
  for _ = 1 to r_count r "list length" do
    let pageno, words, nnz = r_page_head r ~mem_size ~last:!last in
    last := pageno;
    if settle pageno || not (trusted && anchored) then begin
      r_page_pairs r ~words ~nnz listing;
      Hw.Memory.set_page mem pageno listing nnz
    end
    else r.pos <- r.pos + (16 * nnz)
  done;
  ignore (settle max_int : bool);
  Hw.Memory.set_anchor mem sum

(* The one apply, shared by [warm_boot] and [restore]: a full image
   laid over the live system, in payload order.  With [trust], an
   image that is physically the one this system last applied whole is
   trusted (see {!warm_boot}); any other is checked in full.  The
   image is remembered only once its apply has completed. *)
let apply sys image ~trust =
  let m = System.machine sys in
  let trusted =
    trust
    && match System.last_applied sys with Some s -> s == image | None -> false
  in
  let sum, r = parse_full ~trusted image in
  (* Flush whatever host state the respawn replay (or the last run)
     left behind; the apply rebuilds the exact quiesced state the
     image was captured in. *)
  Isa.Machine.quiesce m;
  let pre = { data = str.r r; pos = 0 } in
  read pre_section pre m;
  if pre.pos <> String.length pre.data then corrupt "unconsumed pre section";
  apply_memory r m.Isa.Machine.mem ~sum ~trusted;
  read post_section r sys;
  if r.pos <> String.length r.data then corrupt "unconsumed payload";
  System.set_last_applied sys image

let decode f =
  try Ok (f ()) with
  | Fail e -> Error e
  | Invalid_argument msg -> Error (Corrupt msg)

(* Trusted fast path for images this very process captured: the
   re-capture self-check and the kernel-table audit — the two restore
   layers that exist to catch on-disk damage and tampering — are
   skipped, and the [restores] counter is left exactly as the image
   recorded it.  This is the serving fleet's warm-boot: rewinding a
   shard's machine to its boot image between requests touches, in
   memory, only the pages the requests since the boot dirtied (the
   machine stays anchored to the image it was last rewound to), and
   the restored counters are byte-for-byte the boot counters, so
   per-request deltas are comparable across shards and runs.

   The checks that guard the bytes themselves follow one trust rule.
   A system remembers the one full image its last completed apply
   laid over it ([System.last_applied]), by physical identity.  A warm
   boot to that very string skips only what the earlier apply already
   checked on it: the FNV pass, and the page records of the pages
   still clean under the memory anchor, which the memory pass steps
   over by their length.  That is sound because OCaml strings are
   immutable — the same bytes pass the same checks — and because a
   clean page still holds its record.  The rest of the payload is
   decoded and checked as always, the [same] and [present] shape
   checks included.  Any other string is checked in full: a byte-equal
   copy, an image a capture just returned (capture does not set the
   memo), and everything [restore], [restore_chain], [flatten] and
   [rebase] read, which never trust. *)
let warm_boot sys image = decode (fun () -> apply sys image ~trust:true)

let restore sys image =
  let m = System.machine sys in
  match decode (fun () -> apply sys image ~trust:false) with
  | Error e -> Error e
  | Ok () ->
      (* Self-check: the restored state must re-capture to the very
         bytes we just read — any state the codec forgot, or applied
         differently than it serialized, surfaces here rather than as
         a silent divergence thousands of cycles later. *)
      if not (String.equal (capture_silent sys) image) then
        Error Self_check_failed
      else begin
        Trace.Counters.(incr m.Isa.Machine.counters restores);
        (* Audit: re-derive every SDW from the kernel's authoritative
           tables and walk the crossing stacks — the same invariants
           the chaos harness checks after fault campaigns.  A
           tampered-but-well-checksummed image fails here, and so does
           one whose tables no longer derive an SDW at all. *)
        match
          try Chaos.check_invariants ~campaign:0 sys
          with Invalid_argument msg -> [ "underivable SDW: " ^ msg ]
        with
        | [] -> Ok ()
        | problems ->
            Trace.Counters.(
              incr m.Isa.Machine.counters restore_audit_rejections);
            Error (Audit_rejected problems)
      end

(* {1 Incremental capture}

   A delta lists only the pages dirtied since its predecessor (the
   dirty map in {!Hw.Memory} is cleared exactly at capture points, so
   between captures it is a conservative superset of the pages that
   changed) plus the complete non-memory state, which is small.
   Because a page record is the page's whole content, [flatten base
   deltas] just lays each delta's pages over the page map folded so
   far, keeps the last delta's pre and post, drops the pages that went
   back to zero and seals the result over the zero machine — byte for
   byte the image [capture] would have produced at that delta's
   capture point.  [base_sum] chains each image to its predecessor by
   payload checksum, so a delta applied over the wrong base
   ([Stale_base]) or a chain with a missing/reordered link
   ([Broken_chain]) is refused before any state is touched. *)

type chain = {
  mutable tail_sum : int;  (* payload checksum of the newest image *)
  mutable expected_gen : int;  (* memory dirty generation at that image *)
  chain_mem_size : int;
  mutable deltas_taken : int;
}

let start_chain sys =
  let m = System.machine sys in
  let mem = m.Isa.Machine.mem in
  let sum, image =
    with_capture_counted m.Isa.Machine.counters (fun () ->
        capture_point sys ~prev:None)
  in
  ( {
      tail_sum = sum;
      expected_gen = Hw.Memory.dirty_generation mem;
      chain_mem_size = Hw.Memory.size mem;
      deltas_taken = 0;
    },
    image )

let chain_length chain = chain.deltas_taken

let capture_delta sys chain =
  let m = System.machine sys in
  let mem = m.Isa.Machine.mem in
  with_capture_counted m.Isa.Machine.counters (fun () ->
      (* Inside the counted region: a refused delta is a failed
         capture and must leave [snapshots_written] unchanged. *)
      if Hw.Memory.dirty_generation mem <> chain.expected_gen then
        invalid_arg
          "Snapshot.capture_delta: dirty map cleared outside this chain \
           (another capture point intervened)";
      if Hw.Memory.size mem <> chain.chain_mem_size then
        invalid_arg "Snapshot.capture_delta: memory size changed";
      let sum, image = capture_point sys ~prev:(Some chain.tail_sum) in
      chain.expected_gen <- Hw.Memory.dirty_generation mem;
      chain.tail_sum <- sum;
      chain.deltas_taken <- chain.deltas_taken + 1;
      image)

let flatten ~base deltas =
  decode (fun () ->
      let sum, r = parse_full base in
      let f = r_frame r in
      let pages = Hashtbl.create 64 in
      let lay (f : frame) =
        List.iter (fun p -> Hashtbl.replace pages p.pageno p) f.pages
      in
      lay f;
      let _, _, last =
        List.fold_left
          (fun (i, prev, _) delta ->
            let broken = if i = 0 then Stale_base else Broken_chain i in
            let sum, r = parse_header ~kind:delta_magic ~prev ~broken delta in
            let d = r_frame r in
            if d.mem_size <> f.mem_size then
              shape
                (Printf.sprintf "delta %d memory size %d, base has %d" i
                   d.mem_size f.mem_size);
            lay d;
            (i + 1, sum, d))
          (0, sum, f) deltas
      in
      (* Pages that went back to zero drop out, as in a capture. *)
      let pages =
        List.filter (fun p -> p.nnz > 0) (List.map snd (sorted_bindings pages))
      in
      snd (seal ~kind:magic ~base_sum:0 { last with pages }))

let restore_chain sys ~base deltas =
  match flatten ~base deltas with
  | Error e -> Error e
  | Ok image -> restore sys image

(* After a GC pass folds BASE ++ deltas into a new full BASE on disk,
   the live chain must link its next delta to the flattened image, not
   to the last delta it captured.  No capture happens here, so the
   dirty-map generation is untouched — only the tail link and the
   delta count move.  The base is validated (magic, version, checksum,
   memory size) before the chain is touched, so a failed rebase leaves
   the chain usable. *)
let rebase chain ~base =
  decode (fun () ->
      let sum, r = parse_full base in
      let f = r_frame r in
      if f.mem_size <> chain.chain_mem_size then
        shape
          (Printf.sprintf "rebase image memory size %d, chain has %d"
             f.mem_size chain.chain_mem_size);
      chain.tail_sum <- sum;
      chain.deltas_taken <- 0)
