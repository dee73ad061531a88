(* A checkpoint image is a deterministic binary serialization of the
   complete machine state: anything that can influence a future
   instruction, counter, event or device transfer.  Host-side caches
   and memos are deliberately NOT serialized — [Isa.Machine.quiesce]
   flushes them at every capture, and the restore path rebuilds the
   same cold state in a fresh machine, so a resumed run and the
   uninterrupted one continue from identical footing.

   Layout (format version 5):

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
     page    = pageno | len | nnz | nnz × (offset | word)

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
  | Checksum_mismatch -> Format.fprintf ppf "snapshot payload fails its checksum"
  | Corrupt msg -> Format.fprintf ppf "snapshot is corrupt: %s" msg
  | Shape_mismatch msg ->
      Format.fprintf ppf "snapshot does not match the respawned system: %s" msg
  | Audit_rejected problems ->
      Format.fprintf ppf "restore audit rejected the image (%d problem(s)):@\n%a"
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
   page-wise payload. *)
let version = 5
let header_len = 8 + 8 + 8 + 8

(* FNV-1a 64 over [len] bytes of [s] from [off], truncated to OCaml's
   63-bit int (writer and reader truncate identically, so nothing is
   lost to the comparison).

   Computed in two 32-bit native limbs instead of boxed [Int64]: the
   FNV prime is 2^40 + 0x1b3, so one step over h = hi·2^32 + lo is

     h' = h·2^40 + h·0x1b3  (mod 2^64)
        = lo·2^40 + (hi·0x1b3)·2^32 + lo·0x1b3  (mod 2^64)

   and every intermediate fits well inside a 63-bit native int.  This
   sits on the per-delta hot path — incremental checkpointing
   checksums every image it seals — and the limb form is
   allocation-free.  The final fold to a native int matches
   [Int64.to_int]'s low-63-bit truncation bit for bit. *)
let checksum s off len =
  let mask32 = 0xFFFFFFFF in
  let lo = ref 0x84222325 and hi = ref 0xcbf29ce4 in
  for i = off to off + len - 1 do
    let l = !lo lxor Char.code (String.unsafe_get s i) in
    let h = !hi in
    let m = l * 0x1b3 in
    lo := m land mask32;
    hi := ((l lsl 8) + (h * 0x1b3) + (m lsr 32)) land mask32
  done;
  (!hi lsl 32) lor !lo

(* {1 Writer primitives} *)

(* Big-endian 8 bytes of the two's-complement value. *)
let w_int b n = Buffer.add_int64_be b (Int64.of_int n)

let w_bool b v = w_int b (if v then 1 else 0)

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_opt f b = function
  | None -> w_int b 0
  | Some v ->
      w_int b 1;
      f b v

let w_list f b xs =
  w_int b (List.length xs);
  List.iter (f b) xs

let w_array f b a =
  w_int b (Array.length a);
  Array.iter (f b) a

let w_int_array b a = w_array w_int b a

let w_pair f g b (x, y) =
  f b x;
  g b y

(* {1 Reader primitives} *)

type reader = { data : string; mutable pos : int }

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

let r_bool r =
  match r_int r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt (Printf.sprintf "bad boolean %d" n)

let r_str r =
  let n = r_count ~width:1 r "string length" in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_opt f r =
  match r_int r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> corrupt (Printf.sprintf "bad option tag %d" n)

(* Explicit recursion: List.init's application order is unspecified,
   and the reader is stateful.  Every item is at least one word. *)
let r_list f r =
  let n = r_count r "list length" in
  let rec go i acc = if i = 0 then List.rev acc else go (i - 1) (f r :: acc) in
  go n []

let r_array f r = Array.of_list (r_list f r)
let r_int_array r = r_array r_int r

let r_pair f g r =
  let x = f r in
  let y = g r in
  (x, y)

(* A constructor that validates (Ring.v, Addr.v, ...) turns a decoded
   out-of-range value into a typed [Corrupt]. *)
let guard what f = try f () with Invalid_argument m -> corrupt (what ^ ": " ^ m)

(* {1 Domain codecs} *)

let w_ring b ring = w_int b (Rings.Ring.to_int ring)

let r_ring r =
  let n = r_int r in
  guard "ring" (fun () -> Rings.Ring.v n)

let w_addr b (a : Hw.Addr.t) =
  w_int b a.Hw.Addr.segno;
  w_int b a.Hw.Addr.wordno

let r_addr r =
  let segno = r_int r in
  let wordno = r_int r in
  guard "address" (fun () -> Hw.Addr.v ~segno ~wordno)

let w_ptr b (p : Hw.Registers.ptr) =
  w_ring b p.Hw.Registers.ring;
  w_addr b p.Hw.Registers.addr

let r_ptr r =
  let ring = r_ring r in
  let addr = r_addr r in
  { Hw.Registers.ring; addr }

let w_dbr b (d : Hw.Registers.dbr) =
  w_int b d.Hw.Registers.base;
  w_int b d.Hw.Registers.bound;
  w_int b d.Hw.Registers.stack_base

let r_dbr r =
  let base = r_int r in
  let bound = r_int r in
  let stack_base = r_int r in
  { Hw.Registers.base; bound; stack_base }

let w_regs b (g : Hw.Registers.t) =
  w_dbr b g.Hw.Registers.dbr;
  w_ptr b g.Hw.Registers.ipr;
  w_array w_ptr b g.Hw.Registers.prs;
  w_int b g.Hw.Registers.a;
  w_int b g.Hw.Registers.q;
  w_int_array b g.Hw.Registers.xs;
  w_bool b g.Hw.Registers.ind_zero;
  w_bool b g.Hw.Registers.ind_negative

let r_regs r =
  let dbr = r_dbr r in
  let ipr = r_ptr r in
  let prs = r_array r_ptr r in
  if Array.length prs <> Hw.Registers.pr_count then
    corrupt "wrong pointer-register count";
  let a = r_int r in
  let q = r_int r in
  let xs = r_int_array r in
  if Array.length xs <> Hw.Registers.pr_count then
    corrupt "wrong index-register count";
  let ind_zero = r_bool r in
  let ind_negative = r_bool r in
  { Hw.Registers.dbr; ipr; prs; a; q; xs; ind_zero; ind_negative }

let w_fault b (f : Rings.Fault.t) =
  w_int b (Rings.Fault.code f);
  match f with
  | Rings.Fault.No_read_permission | No_write_permission | No_execute_permission
  | Divide_by_zero | Timer_runout | Io_completion | Io_error ->
      ()
  | Read_bracket_violation { effective; top }
  | Write_bracket_violation { effective; top }
  | Outside_gate_extension { effective; top } ->
      w_ring b effective;
      w_ring b top
  | Execute_bracket_violation { ring; bottom; top } ->
      w_ring b ring;
      w_ring b bottom;
      w_ring b top
  | Gate_violation { wordno; gates } | Cap_seal_violation { wordno; gates } ->
      w_int b wordno;
      w_int b gates
  | Upward_call { from_ring; to_ring; segno; wordno } ->
      w_ring b from_ring;
      w_ring b to_ring;
      w_int b segno;
      w_int b wordno
  | Effective_ring_raised { exec; effective }
  | Transfer_ring_change { exec; effective } ->
      w_ring b exec;
      w_ring b effective
  | Downward_return { from_ring; to_ring } ->
      w_ring b from_ring;
      w_ring b to_ring
  | Privileged_instruction { ring }
  | Halt_in_slave_ring { ring }
  | Cap_exec_violation { ring } ->
      w_ring b ring
  | Missing_segment { segno } -> w_int b segno
  | Missing_page { segno; pageno } ->
      w_int b segno;
      w_int b pageno
  | Bound_violation { segno; wordno; bound } ->
      w_int b segno;
      w_int b wordno;
      w_int b bound
  | Illegal_opcode { word } -> w_int b word
  | Cross_ring_transfer { segno; wordno } ->
      w_int b segno;
      w_int b wordno
  | Service_call { code } -> w_int b code
  | Parity_error { addr } -> w_int b addr
  | Watchdog_timeout { budget } -> w_int b budget
  | Quota_exhausted { resource; limit } ->
      w_str b resource;
      w_int b limit
  | Cap_load_violation { effective } | Cap_store_violation { effective } ->
      w_ring b effective
  | Cap_attenuation_violation { effective; limit } ->
      w_ring b effective;
      w_ring b limit
  | Cap_tag_violation { addr; segno } ->
      w_int b addr;
      w_int b segno

let r_fault r : Rings.Fault.t =
  match r_int r with
  | 0 -> No_read_permission
  | 1 -> No_write_permission
  | 2 -> No_execute_permission
  | 3 ->
      let effective = r_ring r in
      let top = r_ring r in
      Read_bracket_violation { effective; top }
  | 4 ->
      let effective = r_ring r in
      let top = r_ring r in
      Write_bracket_violation { effective; top }
  | 5 ->
      let ring = r_ring r in
      let bottom = r_ring r in
      let top = r_ring r in
      Execute_bracket_violation { ring; bottom; top }
  | 6 ->
      let wordno = r_int r in
      let gates = r_int r in
      Gate_violation { wordno; gates }
  | 7 ->
      let effective = r_ring r in
      let top = r_ring r in
      Outside_gate_extension { effective; top }
  | 8 ->
      let from_ring = r_ring r in
      let to_ring = r_ring r in
      let segno = r_int r in
      let wordno = r_int r in
      Upward_call { from_ring; to_ring; segno; wordno }
  | 9 ->
      let exec = r_ring r in
      let effective = r_ring r in
      Effective_ring_raised { exec; effective }
  | 10 ->
      let from_ring = r_ring r in
      let to_ring = r_ring r in
      Downward_return { from_ring; to_ring }
  | 11 ->
      let exec = r_ring r in
      let effective = r_ring r in
      Transfer_ring_change { exec; effective }
  | 12 -> Privileged_instruction { ring = r_ring r }
  | 13 -> Missing_segment { segno = r_int r }
  | 14 ->
      let segno = r_int r in
      let pageno = r_int r in
      Missing_page { segno; pageno }
  | 15 ->
      let segno = r_int r in
      let wordno = r_int r in
      let bound = r_int r in
      Bound_violation { segno; wordno; bound }
  | 16 -> Illegal_opcode { word = r_int r }
  | 17 ->
      let segno = r_int r in
      let wordno = r_int r in
      Cross_ring_transfer { segno; wordno }
  | 18 -> Halt_in_slave_ring { ring = r_ring r }
  | 19 -> Divide_by_zero
  | 20 -> Service_call { code = r_int r }
  | 21 -> Timer_runout
  | 22 -> Io_completion
  | 23 -> Parity_error { addr = r_int r }
  | 24 -> Io_error
  | 25 -> Watchdog_timeout { budget = r_int r }
  | 26 ->
      let resource = r_str r in
      let limit = r_int r in
      Quota_exhausted { resource; limit }
  | 27 -> Cap_load_violation { effective = r_ring r }
  | 28 -> Cap_store_violation { effective = r_ring r }
  | 29 -> Cap_exec_violation { ring = r_ring r }
  | 30 ->
      let wordno = r_int r in
      let gates = r_int r in
      Cap_seal_violation { wordno; gates }
  | 31 ->
      let effective = r_ring r in
      let limit = r_ring r in
      Cap_attenuation_violation { effective; limit }
  | 32 ->
      let addr = r_int r in
      let segno = r_int r in
      Cap_tag_violation { addr; segno }
  | n -> corrupt (Printf.sprintf "bad fault code %d" n)

let w_exit b (e : Kernel.exit) =
  match e with
  | Kernel.Halted -> w_int b 0
  | Kernel.Exited -> w_int b 1
  | Kernel.Preempted -> w_int b 2
  | Kernel.Blocked -> w_int b 3
  | Kernel.Terminated f ->
      w_int b 4;
      w_fault b f
  | Kernel.Gatekeeper_error msg ->
      w_int b 5;
      w_str b msg
  | Kernel.Out_of_budget -> w_int b 6
  | Kernel.Quarantined f ->
      w_int b 7;
      w_fault b f

let r_exit r : Kernel.exit =
  match r_int r with
  | 0 -> Kernel.Halted
  | 1 -> Kernel.Exited
  | 2 -> Kernel.Preempted
  | 3 -> Kernel.Blocked
  | 4 -> Kernel.Terminated (r_fault r)
  | 5 -> Kernel.Gatekeeper_error (r_str r)
  | 6 -> Kernel.Out_of_budget
  | 7 -> Kernel.Quarantined (r_fault r)
  | n -> corrupt (Printf.sprintf "bad exit tag %d" n)

let w_access b (a : Rings.Access.t) =
  w_bool b a.Rings.Access.read;
  w_bool b a.Rings.Access.write;
  w_bool b a.Rings.Access.execute;
  w_int b (Rings.Ring.to_int a.Rings.Access.brackets.Rings.Brackets.r1);
  w_int b (Rings.Ring.to_int a.Rings.Access.brackets.Rings.Brackets.r2);
  w_int b (Rings.Ring.to_int a.Rings.Access.brackets.Rings.Brackets.r3);
  w_int b a.Rings.Access.gates

let r_access r : Rings.Access.t =
  let read = r_bool r in
  let write = r_bool r in
  let execute = r_bool r in
  let r1 = r_int r in
  let r2 = r_int r in
  let r3 = r_int r in
  let brackets = guard "brackets" (fun () -> Rings.Brackets.of_ints r1 r2 r3) in
  let gates = r_int r in
  if gates < 0 then corrupt "negative gate count";
  { Rings.Access.read; write; execute; brackets; gates }

let w_io_request b (q : Isa.Machine.io_request) =
  w_addr b q.Isa.Machine.ccw;
  w_addr b q.Isa.Machine.buffer;
  w_int b (match q.Isa.Machine.direction with `Read -> 0 | `Write -> 1);
  w_int b q.Isa.Machine.count

let r_io_request r : Isa.Machine.io_request =
  let ccw = r_addr r in
  let buffer = r_addr r in
  let direction =
    match r_int r with
    | 0 -> `Read
    | 1 -> `Write
    | n -> corrupt (Printf.sprintf "bad I/O direction %d" n)
  in
  let count = r_int r in
  { Isa.Machine.ccw; buffer; direction; count }

let crossing_tag = function
  | Trace.Event.Same_ring -> 0
  | Trace.Event.Downward -> 1
  | Trace.Event.Upward -> 2
  | Trace.Event.Recovery -> 3

let tag_crossing = function
  | 0 -> Trace.Event.Same_ring
  | 1 -> Trace.Event.Downward
  | 2 -> Trace.Event.Upward
  | 3 -> Trace.Event.Recovery
  | n -> corrupt (Printf.sprintf "bad crossing tag %d" n)

let w_event b (e : Trace.Event.t) =
  match e with
  | Trace.Event.Instruction { ring; segno; wordno; text } ->
      w_int b 0;
      w_int b ring;
      w_int b segno;
      w_int b wordno;
      w_str b text
  | Trace.Event.Call { crossing; from_ring; to_ring; segno; wordno } ->
      w_int b 1;
      w_int b (crossing_tag crossing);
      w_int b from_ring;
      w_int b to_ring;
      w_int b segno;
      w_int b wordno
  | Trace.Event.Return { crossing; from_ring; to_ring; segno; wordno } ->
      w_int b 2;
      w_int b (crossing_tag crossing);
      w_int b from_ring;
      w_int b to_ring;
      w_int b segno;
      w_int b wordno
  | Trace.Event.Trap { ring; cause } ->
      w_int b 3;
      w_int b ring;
      w_str b cause
  | Trace.Event.Gatekeeper { action } ->
      w_int b 4;
      w_str b action
  | Trace.Event.Descriptor_switch { from_ring; to_ring } ->
      w_int b 5;
      w_int b from_ring;
      w_int b to_ring
  | Trace.Event.Note s ->
      w_int b 6;
      w_str b s

let r_event r : Trace.Event.t =
  match r_int r with
  | 0 ->
      let ring = r_int r in
      let segno = r_int r in
      let wordno = r_int r in
      let text = r_str r in
      Trace.Event.Instruction { ring; segno; wordno; text }
  | 1 ->
      let crossing = tag_crossing (r_int r) in
      let from_ring = r_int r in
      let to_ring = r_int r in
      let segno = r_int r in
      let wordno = r_int r in
      Trace.Event.Call { crossing; from_ring; to_ring; segno; wordno }
  | 2 ->
      let crossing = tag_crossing (r_int r) in
      let from_ring = r_int r in
      let to_ring = r_int r in
      let segno = r_int r in
      let wordno = r_int r in
      Trace.Event.Return { crossing; from_ring; to_ring; segno; wordno }
  | 3 ->
      let ring = r_int r in
      let cause = r_str r in
      Trace.Event.Trap { ring; cause }
  | 4 -> Trace.Event.Gatekeeper { action = r_str r }
  | 5 ->
      let from_ring = r_int r in
      let to_ring = r_int r in
      Trace.Event.Descriptor_switch { from_ring; to_ring }
  | 6 -> Trace.Event.Note (r_str r)
  | n -> corrupt (Printf.sprintf "bad event tag %d" n)

let w_stamped b (s : Trace.Event.stamped) =
  w_int b s.Trace.Event.seq;
  w_int b s.Trace.Event.cycles;
  w_event b s.Trace.Event.event

let r_stamped r : Trace.Event.stamped =
  let seq = r_int r in
  let cycles = r_int r in
  let event = r_event r in
  { Trace.Event.seq; cycles; event }

let w_open_span b (o : Trace.Span.open_span) =
  w_int b (crossing_tag o.Trace.Span.o_kind);
  w_int b o.Trace.Span.o_from_ring;
  w_int b o.Trace.Span.o_to_ring;
  w_int b o.Trace.Span.o_segno;
  w_int b o.Trace.Span.o_wordno;
  w_int b o.Trace.Span.o_start;
  w_int b o.Trace.Span.o_depth;
  w_int b o.Trace.Span.o_seq

let r_open_span r : Trace.Span.open_span =
  let o_kind = tag_crossing (r_int r) in
  let o_from_ring = r_int r in
  let o_to_ring = r_int r in
  let o_segno = r_int r in
  let o_wordno = r_int r in
  let o_start = r_int r in
  let o_depth = r_int r in
  let o_seq = r_int r in
  {
    Trace.Span.o_kind;
    o_from_ring;
    o_to_ring;
    o_segno;
    o_wordno;
    o_start;
    o_depth;
    o_seq;
  }

let w_completed b (c : Trace.Span.completed) =
  w_int b (crossing_tag c.Trace.Span.kind);
  w_int b c.Trace.Span.from_ring;
  w_int b c.Trace.Span.to_ring;
  w_int b c.Trace.Span.segno;
  w_int b c.Trace.Span.wordno;
  w_int b c.Trace.Span.start_cycles;
  w_int b c.Trace.Span.end_cycles;
  w_int b c.Trace.Span.depth;
  w_int b c.Trace.Span.seq;
  w_bool b c.Trace.Span.forced

let r_completed r : Trace.Span.completed =
  let kind = tag_crossing (r_int r) in
  let from_ring = r_int r in
  let to_ring = r_int r in
  let segno = r_int r in
  let wordno = r_int r in
  let start_cycles = r_int r in
  let end_cycles = r_int r in
  let depth = r_int r in
  let seq = r_int r in
  let forced = r_bool r in
  {
    Trace.Span.kind;
    from_ring;
    to_ring;
    segno;
    wordno;
    start_cycles;
    end_cycles;
    depth;
    seq;
    forced;
  }

let w_hist b (buckets, count, sum, vmin, vmax) =
  w_int_array b buckets;
  w_int b count;
  w_int b sum;
  w_int b vmin;
  w_int b vmax

let r_hist r =
  let buckets = r_int_array r in
  let count = r_int r in
  let sum = r_int r in
  let vmin = r_int r in
  let vmax = r_int r in
  (buckets, count, sum, vmin, vmax)

let w_placement b (p : Process.placement) =
  match p with
  | Process.Direct { base; bound } ->
      w_int b 0;
      w_int b base;
      w_int b bound
  | Process.Paged_at { pt_base; bound } ->
      w_int b 1;
      w_int b pt_base;
      w_int b bound

let r_placement r : Process.placement =
  match r_int r with
  | 0 ->
      let base = r_int r in
      let bound = r_int r in
      Process.Direct { base; bound }
  | 1 ->
      let pt_base = r_int r in
      let bound = r_int r in
      Process.Paged_at { pt_base; bound }
  | n -> corrupt (Printf.sprintf "bad placement tag %d" n)

let w_loaded b (l : Process.loaded) =
  w_str b l.Process.name;
  w_int b l.Process.segno;
  w_int b l.Process.base;
  w_int b l.Process.bound;
  w_access b l.Process.access;
  w_list (w_pair w_str w_int) b l.Process.symbols

let r_loaded r : Process.loaded =
  let name = r_str r in
  let segno = r_int r in
  let base = r_int r in
  let bound = r_int r in
  let access = r_access r in
  let symbols = r_list (r_pair r_str r_int) r in
  { Process.name; segno; base; bound; access; symbols }

let w_crossing b (c : Process.crossing) =
  w_int b
    (match c.Process.kind with Process.Inward -> 0 | Process.Outward -> 1);
  w_regs b c.Process.saved;
  w_ring b c.Process.caller_ring;
  w_ring b c.Process.callee_ring;
  w_list (w_pair w_addr w_addr) b c.Process.copy_back

let r_crossing r : Process.crossing =
  let kind =
    match r_int r with
    | 0 -> Process.Inward
    | 1 -> Process.Outward
    | n -> corrupt (Printf.sprintf "bad crossing kind %d" n)
  in
  let saved = r_regs r in
  let caller_ring = r_ring r in
  let callee_ring = r_ring r in
  let copy_back = r_list (r_pair r_addr r_addr) r in
  { Process.kind; saved; caller_ring; callee_ring; copy_back }

let w_inject_dump b (d : Hw.Inject.dump) =
  w_int b d.Hw.Inject.dump_rng;
  w_list (w_pair w_int w_int) b d.Hw.Inject.dump_armed;
  w_list (w_pair w_int w_int) b d.Hw.Inject.dump_poison;
  w_int b d.Hw.Inject.dump_total

let r_inject_dump r : Hw.Inject.dump =
  let dump_rng = r_int r in
  let dump_armed = r_list (r_pair r_int r_int) r in
  let dump_poison = r_list (r_pair r_int r_int) r in
  let dump_total = r_int r in
  { Hw.Inject.dump_rng; dump_armed; dump_poison; dump_total }

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* {1 Capture} *)

let write_counters b (c : Trace.Counters.t) =
  w_list (w_pair w_str w_int) b
    (Trace.Counters.fields (Trace.Counters.snapshot c))

(* The machine section is written in two pieces around the memory
   pages: [pre] (configuration + live processor state) and [post] (SDW
   tag population, injector, capability state). *)
let mode_tag (m : Isa.Machine.t) =
  match m.Isa.Machine.mode with
  | Isa.Machine.Ring_hardware -> 0
  | Isa.Machine.Ring_software_645 -> 1
  | Isa.Machine.Ring_capability -> 2

let rule_tag (m : Isa.Machine.t) =
  match m.Isa.Machine.stack_rule with
  | Rings.Stack_rule.Segno_equals_ring -> 0
  | Rings.Stack_rule.Dbr_stack_relative -> 1

let write_machine_pre b (m : Isa.Machine.t) =
  (* Immutable configuration, serialized so restore can shape-check
     that the respawned machine was built the same way. *)
  w_int b (mode_tag m);
  w_int b (rule_tag m);
  w_bool b m.Isa.Machine.gate_on_same_ring;
  w_bool b m.Isa.Machine.use_r1_in_indirection;
  (* Live processor state. *)
  w_regs b m.Isa.Machine.regs;
  w_bool b m.Isa.Machine.halted;
  w_opt
    (fun b (s : Isa.Machine.saved_state) ->
      w_regs b s.Isa.Machine.regs;
      w_fault b s.Isa.Machine.fault)
    b m.Isa.Machine.saved;
  w_opt w_int b m.Isa.Machine.timer;
  w_opt w_int b m.Isa.Machine.io_countdown;
  w_opt w_io_request b m.Isa.Machine.io_request;
  w_bool b m.Isa.Machine.inhibit;
  w_opt
    (fun b (t : Isa.Machine.trap_config) ->
      w_addr b t.Isa.Machine.vector_base;
      w_addr b t.Isa.Machine.conditions_base)
    b m.Isa.Machine.trap_config;
  w_bool b m.Isa.Machine.degraded;
  w_bool b m.Isa.Machine.io_fail_pending

let write_machine_post b (m : Isa.Machine.t) =
  (* The modeled SDW tag-store population — keys only: quiesce demoted
     every value to the absent sentinel before we got here, and the
     population is what drives modeled accounting. *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) m.Isa.Machine.sdw_tags [] in
  w_list w_int b (List.sort compare keys);
  (* Fault injector: RNG, armed-rule positions, poison table.  The
     address ranges themselves are re-registered by the respawn. *)
  w_opt w_inject_dump b
    (Option.map Hw.Inject.dump m.Isa.Machine.injector);
  (* Capability-backend state: the validity-tag population (addresses
     only — a tag is one bit) and the sealed-return stack.  Both are
     empty in the other modes, so their cost there is two zero
     counts. *)
  w_bool b (Hw.Memory.tags_enabled m.Isa.Machine.mem);
  w_list w_int b (Hw.Memory.tagged_addrs m.Isa.Machine.mem);
  w_list
    (fun b (sr : Cap.Capability.sealed_return) ->
      w_int b sr.Cap.Capability.sr_otype;
      w_int b sr.Cap.Capability.sr_segno;
      w_int b sr.Cap.Capability.sr_wordno)
    b m.Isa.Machine.cap_stack

let write_trace b (m : Isa.Machine.t) =
  w_bool b (Trace.Event.enabled m.Isa.Machine.log);
  let d = Trace.Event.dump m.Isa.Machine.log in
  w_list w_stamped b d.Trace.Event.d_entries;
  w_int b d.Trace.Event.d_next_seq;
  w_int b d.Trace.Event.d_dropped;
  w_int b d.Trace.Event.d_sampled_out;
  w_int b d.Trace.Event.d_high_water;
  w_int b d.Trace.Event.d_sample_interval;
  w_int b d.Trace.Event.d_sample_seed;
  w_int b d.Trace.Event.d_instr_interval;
  w_bool b (Trace.Span.enabled m.Isa.Machine.spans);
  let d = Trace.Span.dump m.Isa.Machine.spans in
  w_list w_open_span b d.Trace.Span.dump_stack;
  w_int b d.Trace.Span.dump_next_seq;
  w_list w_completed b d.Trace.Span.dump_completed;
  w_int b d.Trace.Span.dump_dropped;
  w_int b d.Trace.Span.dump_unmatched;
  w_int b d.Trace.Span.dump_sampled_out;
  w_int b d.Trace.Span.dump_sample_interval;
  w_int b d.Trace.Span.dump_sample_seed;
  w_array w_hist b d.Trace.Span.dump_hists;
  w_bool b (Trace.Profile.enabled m.Isa.Machine.profile);
  let ring_cycles, ring_instructions, segments, kernel_cycles =
    Trace.Profile.dump m.Isa.Machine.profile
  in
  w_int_array b ring_cycles;
  w_int_array b ring_instructions;
  w_list
    (fun b (segno, cycles, instructions) ->
      w_int b segno;
      w_int b cycles;
      w_int b instructions)
    b segments;
  w_int b kernel_cycles

let write_process b (p : Process.t) =
  w_str b p.Process.user;
  w_array w_dbr b p.Process.descsegs;
  w_list (w_pair w_int w_access) b (sorted_bindings p.Process.ring_data);
  w_list (w_pair w_int w_placement) b (sorted_bindings p.Process.placement);
  w_list w_loaded b p.Process.loaded;
  w_int b p.Process.next_segno;
  w_int b p.Process.next_free;
  w_opt
    (fun b (ps : Process.paging_state) ->
      w_list w_int b ps.Process.free_frames;
      w_list
        (fun b (frame, segno, pageno) ->
          w_int b frame;
          w_int b segno;
          w_int b pageno)
        b ps.Process.resident;
      w_list (w_pair w_int w_int_array) b (sorted_bindings ps.Process.backing))
    b p.Process.paging;
  w_list w_crossing b p.Process.crossings;
  w_int b p.Process.fault_count;
  w_int b p.Process.io_attempts;
  (* A directory search path holds live closures and is not
     snapshottable; record its presence so restore can refuse. *)
  w_bool b (p.Process.search_rules <> None);
  let input, output, next_seq = Device.dump p.Process.typewriter in
  w_list w_int b input;
  w_list w_int b output;
  w_int b next_seq

let write_entry b (e : System.entry) =
  w_str b e.System.pname;
  (match e.System.status with
  | System.Ready -> w_int b 0
  | System.Blocked -> w_int b 1
  | System.Done exit ->
      w_int b 2;
      w_exit b exit);
  w_regs b e.System.saved_regs;
  let countdown, request = e.System.saved_io in
  w_opt w_int b countdown;
  w_opt w_io_request b request;
  w_int b e.System.stalled;
  write_process b e.System.process

let write_system b sys =
  w_int b (System.slices sys);
  w_list (w_pair w_str w_exit) b (System.finished_log sys);
  w_list w_str b (System.rotation sys);
  w_list write_entry b (System.entries sys)

(* {1 The payload frame}

   Everything after [base_sum].  A capture builds a frame from the live
   system; [flatten] builds one from the frames it folds. *)

(* A page of [words] words whose [nnz] (offset, word) pairs are bytes
   [off, off + 16 * nnz) of [src]. *)
type page = { pageno : int; words : int; nnz : int; src : string; off : int }

type frame = { pre : string; mem_size : int; pages : page list; post : string }

let w_frame b f =
  w_str b f.pre;
  w_int b f.mem_size;
  w_list
    (fun b p ->
      w_int b p.pageno;
      w_int b p.words;
      w_int b p.nnz;
      Buffer.add_substring b p.src p.off (16 * p.nnz))
    b f.pages;
  Buffer.add_string b f.post

(* Header and payload; the payload checksum comes back with the
   image, for the chain to link the next delta to. *)
let seal ~kind ~base_sum f =
  let b = Buffer.create (1 lsl 14) in
  w_int b base_sum;
  w_frame b f;
  let payload = Buffer.contents b in
  let sum = checksum payload 0 (String.length payload) in
  let hdr = Buffer.create header_len in
  Buffer.add_string hdr kind;
  w_int hdr version;
  w_int hdr (String.length payload);
  w_int hdr sum;
  (sum, Buffer.contents hdr ^ payload)

(* Page [p] of live memory as a record, or [None] when it holds only
   zeros and [keep_zero] is off. *)
let page_of_memory mem pairs ~keep_zero p =
  let base_addr = p * Hw.Memory.page_words in
  let words = min Hw.Memory.page_words (Hw.Memory.size mem - base_addr) in
  Buffer.clear pairs;
  let nnz = ref 0 in
  for i = 0 to words - 1 do
    let w = Hw.Memory.read_silent mem (base_addr + i) in
    if w <> 0 then begin
      incr nnz;
      w_int pairs i;
      w_int pairs w
    end
  done;
  if !nnz = 0 && not keep_zero then None
  else
    Some { pageno = p; words; nnz = !nnz; src = Buffer.contents pairs; off = 0 }

(* The one writer.  [prev] is the predecessor's payload checksum for a
   delta, [None] for a full image.  Over the zero machine a page has
   changed exactly when it holds a nonzero word, and only a written
   page can; a delta cannot tell, so it lists every dirty page — even
   one that went back to zero, which the fold must still clear. *)
let encode sys ~prev =
  let m = System.machine sys in
  let mem = m.Isa.Machine.mem in
  let mem_size = Hw.Memory.size mem in
  let pre = Buffer.create 4096 in
  write_counters pre m.Isa.Machine.counters;
  write_machine_pre pre m;
  let kind, base_sum, candidates, keep_zero =
    match prev with
    | None -> (magic, 0, Hw.Memory.written_pages mem, false)
    | Some sum -> (delta_magic, sum, Hw.Memory.dirty_pages mem, true)
  in
  let pairs = Buffer.create 4096 in
  let pages =
    List.filter_map (page_of_memory mem pairs ~keep_zero) candidates
  in
  let post = Buffer.create 16384 in
  write_machine_post post m;
  write_trace post m;
  write_system post sys;
  seal ~kind ~base_sum
    {
      pre = Buffer.contents pre;
      mem_size;
      pages;
      post = Buffer.contents post;
    }

(* The count is bumped {e before} serializing, so the image already
   carries its own capture: an uninterrupted checkpointing run and a
   run resumed from any of its images agree on [snapshots_written].
   If the capture then fails to produce an image, the bump is rolled
   back — a failed capture must not inflate the counter. *)
let with_capture_counted (c : Trace.Counters.t) f =
  let before = Trace.Counters.snapshot c in
  Trace.Counters.bump_snapshots_written c;
  try f ()
  with e ->
    Trace.Counters.restore c before;
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
   the verified payload checksum and a reader just past [base_sum]. *)
let parse_header ~kind ~prev ~broken image =
  let n = String.length image in
  if n < String.length kind then raise (Fail Truncated);
  if not (String.starts_with ~prefix:kind image) then raise (Fail Bad_magic);
  if n < header_len then raise (Fail Truncated);
  let r = { data = image; pos = String.length kind } in
  let v = r_int r in
  if v <> version then raise (Fail (Bad_version { expected = version; got = v }));
  let len = r_int r in
  let sum = r_int r in
  if len < 0 then corrupt "negative payload length";
  if n - header_len < len then raise (Fail Truncated);
  if n - header_len > len then corrupt "trailing bytes after payload";
  if checksum image header_len len <> sum then raise (Fail Checksum_mismatch);
  if r_int r <> prev then raise (Fail broken);
  (sum, r)

let parse_full image =
  parse_header ~kind:magic ~prev:0
    ~broken:(Corrupt "full image names a predecessor")
    image

(* The one page reader, over [mem_size] words.  [word a w] sees every
   listed word in ascending address order; the records come back for
   folding. *)
let r_pages r ~mem_size ~word =
  let last = ref (-1) in
  r_list
    (fun r ->
      let pageno = r_int r in
      if pageno <= !last || pageno > (mem_size - 1) / Hw.Memory.page_words
      then corrupt "pages not ascending or out of range";
      last := pageno;
      let base_addr = pageno * Hw.Memory.page_words in
      let words = min Hw.Memory.page_words (mem_size - base_addr) in
      if r_int r <> words then corrupt "wrong page length";
      let nnz = r_count ~width:16 r "page word count" in
      let off = r.pos in
      let prev = ref (-1) in
      for _ = 1 to nnz do
        let o = r_int r in
        let w = r_int r in
        if o <= !prev || o >= words then corrupt "page words not ascending";
        if w = 0 then corrupt "zero word in a sparse page";
        word (base_addr + o) w;
        prev := o
      done;
      { pageno; words; nnz; src = r.data; off })
    r

(* A frame read whole, nothing applied: what [flatten] folds and
   [rebase] anchors on. *)
let r_frame r =
  let pre = r_str r in
  let mem_size = r_int r in
  if mem_size < 0 then corrupt "negative memory size";
  let pages = r_pages r ~mem_size ~word:(fun _ _ -> ()) in
  let post = String.sub r.data r.pos (String.length r.data - r.pos) in
  { pre; mem_size; pages; post }

let apply_counters r (c : Trace.Counters.t) =
  let fields = r_list (r_pair r_str r_int) r in
  match Trace.Counters.of_fields fields with
  | Ok snap -> Trace.Counters.restore c snap
  | Error msg -> corrupt msg

let apply_machine_pre r (m : Isa.Machine.t) =
  if r_int r <> mode_tag m then shape "machine mode differs";
  if r_int r <> rule_tag m then shape "stack rule differs";
  if r_bool r <> m.Isa.Machine.gate_on_same_ring then
    shape "gate-on-same-ring ablation differs";
  if r_bool r <> m.Isa.Machine.use_r1_in_indirection then
    shape "R1-in-indirection ablation differs";
  Hw.Registers.restore m.Isa.Machine.regs ~from:(r_regs r);
  m.Isa.Machine.halted <- r_bool r;
  m.Isa.Machine.saved <-
    r_opt
      (fun r ->
        let regs = r_regs r in
        let fault = r_fault r in
        { Isa.Machine.regs; fault })
      r;
  m.Isa.Machine.timer <- r_opt r_int r;
  m.Isa.Machine.io_countdown <- r_opt r_int r;
  m.Isa.Machine.io_request <- r_opt r_io_request r;
  m.Isa.Machine.inhibit <- r_bool r;
  m.Isa.Machine.trap_config <-
    r_opt
      (fun r ->
        let vector_base = r_addr r in
        let conditions_base = r_addr r in
        { Isa.Machine.vector_base; conditions_base })
      r;
  m.Isa.Machine.degraded <- r_bool r;
  m.Isa.Machine.io_fail_pending <- r_bool r

(* Memory, in one pass: every listed word is read and set, and the
   unlisted words are zeroed only in the pages that can hold something
   else.  A page never written is still zero from [create].  While the
   image is the anchored one, a page that is not dirty still holds what
   the image lists, so only the dirty pages are stale; for any other
   image every written page is.  Words are only written when they
   differ, so the dirty map, the tags and the write observers see only
   real changes.  Once the pass completes, memory equals the image:
   that is the new anchor. *)
let apply_memory r mem ~sum =
  let mem_size = Hw.Memory.size mem in
  if r_int r <> mem_size then shape "memory size differs";
  let stale =
    ref
      (if Hw.Memory.anchored mem sum then Hw.Memory.dirty_pages mem
       else Hw.Memory.written_pages mem)
  in
  let set a w =
    if Hw.Memory.read_silent mem a <> w then Hw.Memory.write_silent mem a w
  in
  (* Zero the stale pages' words in [!next, a): [next] is the first
     address no listed word has settled yet. *)
  let next = ref 0 in
  let rec zero_to a =
    match !stale with
    | p :: rest when p * Hw.Memory.page_words < a ->
        let page_end = min mem_size ((p + 1) * Hw.Memory.page_words) in
        for z = max !next (p * Hw.Memory.page_words) to min a page_end - 1 do
          set z 0
        done;
        if page_end <= a then begin
          stale := rest;
          zero_to a
        end
    | _ -> ()
  in
  let (_ : page list) =
    r_pages r ~mem_size ~word:(fun a w ->
        zero_to a;
        set a w;
        next := a + 1)
  in
  zero_to mem_size;
  Hw.Memory.set_anchor mem sum

let apply_machine_post r (m : Isa.Machine.t) =
  (* SDW tag-store population: every key present, every value absent —
     exactly the state [quiesce] leaves behind. *)
  let keys = r_list r_int r in
  Hashtbl.reset m.Isa.Machine.sdw_tags;
  List.iter
    (fun k -> Hashtbl.replace m.Isa.Machine.sdw_tags k Hw.Sdw.absent)
    keys;
  (match (r_opt r_inject_dump r, m.Isa.Machine.injector) with
  | None, None -> ()
  | Some d, Some i -> (
      try Hw.Inject.restore i d
      with Invalid_argument msg -> shape msg)
  | Some _, None -> shape "image has a fault injector, this run does not"
  | None, Some _ -> shape "this run has a fault injector, the image does not");
  (* Capability state.  The tag re-application must come after the
     memory pass: restoring a word goes through [write_silent], which
     clears its tag, so tags written earlier would be erased. *)
  let mem = m.Isa.Machine.mem in
  if r_bool r <> Hw.Memory.tags_enabled mem then
    shape "capability tag store presence differs";
  let tagged = r_list r_int r in
  if Hw.Memory.tags_enabled mem then begin
    Hw.Memory.clear_tags mem;
    List.iter
      (fun a ->
        if a < 0 || a >= Hw.Memory.size mem then
          corrupt "tag address out of range";
        Hw.Memory.set_tag mem a)
      tagged
  end
  else if tagged <> [] then corrupt "tagged words without a tag store";
  m.Isa.Machine.cap_stack <-
    r_list
      (fun r ->
        let sr_otype = r_int r in
        let sr_segno = r_int r in
        let sr_wordno = r_int r in
        { Cap.Capability.sr_otype; sr_segno; sr_wordno })
      r

let apply_trace r (m : Isa.Machine.t) =
  Trace.Event.set_enabled m.Isa.Machine.log (r_bool r);
  let d_entries = r_list r_stamped r in
  let d_next_seq = r_int r in
  let d_dropped = r_int r in
  let d_sampled_out = r_int r in
  let d_high_water = r_int r in
  let d_sample_interval = r_int r in
  let d_sample_seed = r_int r in
  let d_instr_interval = r_int r in
  Trace.Event.restore m.Isa.Machine.log
    {
      Trace.Event.d_entries;
      d_next_seq;
      d_dropped;
      d_sampled_out;
      d_high_water;
      d_sample_interval;
      d_sample_seed;
      d_instr_interval;
    };
  Trace.Span.set_enabled m.Isa.Machine.spans (r_bool r);
  let dump_stack = r_list r_open_span r in
  let dump_next_seq = r_int r in
  let dump_completed = r_list r_completed r in
  let dump_dropped = r_int r in
  let dump_unmatched = r_int r in
  let dump_sampled_out = r_int r in
  let dump_sample_interval = r_int r in
  let dump_sample_seed = r_int r in
  let dump_hists = r_array r_hist r in
  Trace.Span.restore m.Isa.Machine.spans
    {
      Trace.Span.dump_stack;
      dump_next_seq;
      dump_completed;
      dump_dropped;
      dump_unmatched;
      dump_sampled_out;
      dump_sample_interval;
      dump_sample_seed;
      dump_hists;
    };
  Trace.Profile.set_enabled m.Isa.Machine.profile (r_bool r);
  let ring_cycles = r_int_array r in
  let ring_instructions = r_int_array r in
  let segments =
    r_list
      (fun r ->
        let segno = r_int r in
        let cycles = r_int r in
        let instructions = r_int r in
        (segno, cycles, instructions))
      r
  in
  let kernel_cycles = r_int r in
  Trace.Profile.restore m.Isa.Machine.profile
    (ring_cycles, ring_instructions, segments, kernel_cycles)

let apply_process r (p : Process.t) =
  if not (String.equal (r_str r) p.Process.user) then shape "process user differs";
  let ndbr = r_int r in
  if ndbr <> Array.length p.Process.descsegs then
    shape "descriptor-segment count differs";
  for i = 0 to ndbr - 1 do
    if r_dbr r <> p.Process.descsegs.(i) then
      shape (Printf.sprintf "descriptor segment %d differs" i)
  done;
  let ring_data = r_list (r_pair r_int r_access) r in
  Hashtbl.reset p.Process.ring_data;
  List.iter (fun (k, v) -> Hashtbl.replace p.Process.ring_data k v) ring_data;
  let placement = r_list (r_pair r_int r_placement) r in
  Hashtbl.reset p.Process.placement;
  List.iter (fun (k, v) -> Hashtbl.replace p.Process.placement k v) placement;
  p.Process.loaded <- r_list r_loaded r;
  p.Process.next_segno <- r_int r;
  p.Process.next_free <- r_int r;
  (match (r_opt (fun r -> r) r, p.Process.paging) with
  | None, None -> ()
  | Some r, Some ps ->
      ps.Process.free_frames <- r_list r_int r;
      ps.Process.resident <-
        r_list
          (fun r ->
            let frame = r_int r in
            let segno = r_int r in
            let pageno = r_int r in
            (frame, segno, pageno))
          r;
      let backing = r_list (r_pair r_int r_int_array) r in
      Hashtbl.reset ps.Process.backing;
      List.iter
        (fun (segno, contents) ->
          Hashtbl.replace ps.Process.backing segno contents)
        backing
  | Some _, None -> shape "image process is demand-paged, this one is not"
  | None, Some _ -> shape "this process is demand-paged, the image's is not");
  p.Process.crossings <- r_list r_crossing r;
  p.Process.fault_count <- r_int r;
  p.Process.io_attempts <- r_int r;
  if r_bool r then corrupt "directory search rules are not snapshottable";
  let input = r_list r_int r in
  let output = r_list r_int r in
  let next_seq = r_int r in
  Device.restore p.Process.typewriter (input, output, next_seq)

let apply_entry r (e : System.entry) =
  if not (String.equal (r_str r) e.System.pname) then
    shape "process names differ";
  e.System.status <-
    (match r_int r with
    | 0 -> System.Ready
    | 1 -> System.Blocked
    | 2 -> System.Done (r_exit r)
    | n -> corrupt (Printf.sprintf "bad status tag %d" n));
  e.System.saved_regs <- r_regs r;
  let countdown = r_opt r_int r in
  let request = r_opt r_io_request r in
  e.System.saved_io <- (countdown, request);
  e.System.stalled <- r_int r;
  apply_process r e.System.process

let apply_system r sys =
  System.set_slices sys (r_int r);
  System.set_finished_log sys (r_list (r_pair r_str r_exit) r);
  let rotation = r_list r_str r in
  let known pname = List.exists (fun (e : System.entry) -> String.equal e.System.pname pname) (System.entries sys) in
  List.iter (fun pname -> if not (known pname) then shape (Printf.sprintf "rotation names unknown process %s" pname)) rotation;
  System.set_rotation sys rotation;
  let n = r_int r in
  let entries = System.entries sys in
  if n <> List.length entries then shape "process count differs";
  List.iter (apply_entry r) entries

(* The one apply, shared by [warm_boot] and [restore]: a full image
   laid over the live system, in payload order. *)
let apply sys image =
  let m = System.machine sys in
  let sum, r = parse_full image in
  (* Flush whatever host state the respawn replay (or the last run)
     left behind; the apply rebuilds the exact quiesced state the
     image was captured in. *)
  Isa.Machine.quiesce m;
  let pre = { data = r_str r; pos = 0 } in
  apply_counters pre m.Isa.Machine.counters;
  apply_machine_pre pre m;
  if pre.pos <> String.length pre.data then corrupt "unconsumed pre section";
  apply_memory r m.Isa.Machine.mem ~sum;
  apply_machine_post r m;
  apply_trace r m;
  apply_system r sys;
  if r.pos <> String.length r.data then corrupt "unconsumed payload"

let decode f =
  try Ok (f ()) with
  | Fail e -> Error e
  | Invalid_argument msg -> Error (Corrupt msg)

(* Trusted fast path for images this very process captured: header and
   checksum are still verified (cheap), but the re-capture self-check
   and the kernel-table audit — the two expensive restore layers that
   exist to catch on-disk damage and tampering — are skipped, and the
   [restores] counter is left exactly as the image recorded it.  This
   is the serving fleet's warm-boot: rewinding a shard's machine to
   its boot image between requests reads the image and, in memory,
   touches only the pages the requests since the boot dirtied (the
   machine stays anchored to the image it was last rewound to), and
   the restored counters are byte-for-byte the boot counters, so
   per-request deltas are comparable across shards and runs. *)
let warm_boot sys image = decode (fun () -> apply sys image)

let restore sys image =
  let m = System.machine sys in
  match warm_boot sys image with
  | Error e -> Error e
  | Ok () ->
      (* Self-check: the restored state must re-capture to the very
         bytes we just read — any state the codec forgot, or applied
         differently than it serialized, surfaces here rather than as
         a silent divergence thousands of cycles later. *)
      if not (String.equal (capture_silent sys) image) then
        Error Self_check_failed
      else begin
        Trace.Counters.bump_restores m.Isa.Machine.counters;
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
            Trace.Counters.bump_restore_audit_rejections
              m.Isa.Machine.counters;
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
