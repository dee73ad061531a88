type mode = Ring_hardware | Ring_software_645 | Ring_capability

(* Which per-access decision procedure a mode runs.  The machine keeps
   [mode] (the capability backend also changes CALL/RETURN mechanics
   and enables the tag store); the backend is what the per-reference
   validations dispatch on. *)
let backend_of_mode = function
  | Ring_hardware -> Rings.Backend.Hardware
  | Ring_software_645 -> Rings.Backend.Software_645
  | Ring_capability -> Rings.Backend.Capability

type saved_state = { regs : Hw.Registers.t; fault : Rings.Fault.t }

type trap_config = {
  vector_base : Hw.Addr.t;
  conditions_base : Hw.Addr.t;
}

type io_request = {
  ccw : Hw.Addr.t;
  buffer : Hw.Addr.t;
  direction : [ `Read | `Write ];
  count : int;
}

(* Associative-memory keys are packed into a single immediate int so
   the hot path never allocates a tuple or runs the polymorphic hash
   over one.

   SDW entries are identified by (descriptor segment base, segno):
   base is at most 21 bits, segno at most {!Hw.Addr.segno_bits}.

   PTW entries are identified by (descriptor segment base, segno,
   pageno): wordno is under 2^18 and pages are 1024 words, so pageno
   fits 8 bits, and the whole key fits 43 bits.  Including the base
   keeps entries from a 645-style per-ring descriptor segment alive
   across the DBR flips of every ring crossing, exactly like the
   modeled associative memory.

   A PTW value packs (page-table word address, frame base), both under
   22 bits, so a TLB hit allocates nothing and eviction can still find
   the watch entry. *)
let segno_mask = (1 lsl Hw.Addr.segno_bits) - 1
let sdw_key ~base ~segno = (base lsl Hw.Addr.segno_bits) lor segno
let pageno_bits = 8
let ptw_key ~base ~segno ~pageno =
  (base lsl (Hw.Addr.segno_bits + pageno_bits))
  lor (segno lsl pageno_bits)
  lor pageno

let ptw_value ~waddr ~frame_base = (waddr lsl 22) lor frame_base
let ptw_value_frame v = v land ((1 lsl 22) - 1)

(* A fetch-cache key identifies everything a cached instruction fetch
   was computed from that can vary per fetch: descriptor segment base,
   segment, ring of execution and word number — 21+14+3+18 = 56
   bits. *)
let fetch_key ~base ~ring ~segno ~wordno =
  (((base lsl Hw.Addr.segno_bits) lor segno) lsl 21)
  lor (ring lsl 18) lor wordno

(* An instruction cached with the generation current at fill time;
   stale generations (descriptor writes, page-table writes,
   invalidations, modeled-cache flushes) make every older entry miss
   without a scan.  [f_paged] records which modeled walk to replay.
   The prebuilt result is stored so a hit allocates nothing. *)
type fetch_entry = {
  f_res : (Instr.t, Rings.Fault.t) result;
  f_gen : int;
  f_paged : bool;
}

(* Same idea for whole address translations: a generation-current hit
   returns the prebuilt [Ok (sdw, abs)] and replays the modeled
   activity of the walk that filled it.  Keyed by packed (DBR base,
   segno, wordno) — faults are never cached. *)
type resolve_entry = {
  r_res : (Hw.Sdw.t * int, Rings.Fault.t) result;
  r_gen : int;
  r_paged : bool;
}

let resolve_key ~base ~segno ~wordno =
  (((base lsl Hw.Addr.segno_bits) lor segno) lsl 18) lor wordno

(* Both memo tables are direct-mapped: a power-of-two slot array
   indexed by the low key bits, the full key stored alongside for the
   match check.  One masked array probe per lookup — no hashing — and
   a colliding fill simply overwrites.  Slot [-1] is empty (keys are
   non-negative), and the dummy entries carry a never-current
   generation so an uninitialized slot can never hit. *)
let fetch_cache_slots = 8192
let resolve_cache_slots = 8192

(* Fibonacci hashing for the slot index: the packed keys carry the
   wordno in their low bits, so masking those alone would collide
   caller and callee code at equal word numbers in different segments.
   One multiply spreads base, segno and ring into the top bits. *)
let slot_index key = (key * 0x2545F4914F6CDD1D) lsr 50

let fetch_index key = slot_index key
let resolve_index key = slot_index key

let dummy_fetch_entry =
  {
    f_res = Error Rings.Fault.No_execute_permission;
    f_gen = min_int;
    f_paged = false;
  }

let dummy_resolve_entry =
  {
    r_res = Error Rings.Fault.No_read_permission;
    r_gen = min_int;
    r_paged = false;
  }

(* Which host caches watch an absolute address, one byte per memory
   word, so the write observer is a single byte test on the (vastly
   common) unwatched store. *)
let bit_sdw = 1
let bit_ptw = 2
let bit_icache = 4
let bit_fetch = 8

(* The countdown sentinel: no timer or channel operation running. *)
let disarmed = min_int

let countdown_of_option = function Some n -> n | None -> disarmed
let option_of_countdown n = if n = disarmed then None else Some n

type operand_kind = No_operand | Immediate_operand | Memory_operand

type t = {
  mem : Hw.Memory.t;
  regs : Hw.Registers.t;
  counters : Trace.Counters.t;
  log : Trace.Event.log;
  spans : Trace.Span.tracker;
  profile : Trace.Profile.t;
  mode : mode;
  backend : Rings.Backend.t;
      (* [backend_of_mode mode], cached: the validate_* calls sit on
         the per-reference hot path and must not re-match the mode. *)
  stack_rule : Rings.Stack_rule.t;
  gate_on_same_ring : bool;
  use_r1_in_indirection : bool;
  mutable halted : bool;
  mutable saved : saved_state option;
  mutable timer : int;
  mutable io_countdown : int;
  mutable io_request : io_request option;
  mutable inhibit : bool;
  mutable trap_config : trap_config option;
  sdw_tags : (int, Hw.Sdw.t) Hashtbl.t;
  sdw_cache : (int, Hw.Sdw.t) Hw.Assoc.t;
  ptw_tlb : (int, int) Hw.Assoc.t;
  icache : (int, Instr.t) Hw.Assoc.t;
  sdw_watch : (int, int) Hashtbl.t;
  ptw_watch : (int, int) Hashtbl.t;
  fetch_slots : int array;
  fetch_entries : fetch_entry array;
  fetch_watch : (int, int) Hashtbl.t;
  resolve_slots : int array;
  resolve_entries : resolve_entry array;
  mutable fetch_gen : int;
  watched : Bytes.t;
  mutable sdw_cache_base : int;
  mutable resident_bases : int list;
  mutable injector : Hw.Inject.t option;
  mutable degraded : bool;
  mutable io_fail_pending : bool;
  mutable on_recovery : Rings.Fault.t -> unit;
  mutable cycle_limit : int option;
  mutable cap_stack : Cap.Capability.sealed_return list;
  mutable op_kind : operand_kind;
  mutable op_effective : Rings.Effective_ring.t;
  mutable op_segno : int;
  mutable op_wordno : int;
  mutable op_value : Hw.Word.t;
}

let cache_capacity = 64
let sdw_cache_entries = 512
let ptw_tlb_entries = 256
let icache_entries = 4096

(* Watch tables use Hashtbl.add multi-bindings: distinct descriptor
   segments can interleave in absolute memory, and per-ring descriptor
   segments of a 645-style process share page tables, so one written
   word can back several cached entries. *)
let watch t ~bit table addr key =
  if not (List.mem key (Hashtbl.find_all table addr)) then
    Hashtbl.add table addr key;
  Bytes.unsafe_set t.watched addr
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.watched addr) lor bit))

let unwatch_all table addr =
  while Hashtbl.mem table addr do
    Hashtbl.remove table addr
  done

let drop_ptw_where t pred =
  ignore
    (Hw.Assoc.drop_where t.ptw_tlb (fun key v ->
         if pred key then begin
           unwatch_all t.ptw_watch (v lsr 22);
           true
         end
         else false))

(* Memory-write coherence, slow half: the written word is (or once
   was) backing host-cached state.  An overwritten SDW invalidates its
   cached decode, every TLB entry translated through it, and — via the
   generation counter — every cached instruction fetch, since those
   froze its translation and access check.  An overwritten PTW
   invalidates its TLB entries.  Any store invalidates decoded
   instructions at that absolute address, so self-modifying code
   refetches.  The modeled tag store's population is deliberately
   untouched: the modeled hardware requires an explicit
   [invalidate_sdw], and its hit/miss pattern (hence the cycle
   accounting) must not depend on host cache residency. *)
let on_watched_write t addr b =
  if b land bit_sdw <> 0 then begin
    List.iter
      (fun key ->
        (* The modeled tag must survive, but its host-side decode is
           now stale: mark it with the [absent] sentinel so the next
           hit refetches silently. *)
        if Hashtbl.mem t.sdw_tags key then
          Hashtbl.replace t.sdw_tags key Hw.Sdw.absent;
        ignore (Hw.Assoc.remove t.sdw_cache key);
        drop_ptw_where t (fun k -> k lsr pageno_bits = key))
      (Hashtbl.find_all t.sdw_watch addr);
    unwatch_all t.sdw_watch addr;
    t.fetch_gen <- t.fetch_gen + 1
  end;
  if b land bit_ptw <> 0 then begin
    List.iter
      (fun key -> ignore (Hw.Assoc.remove t.ptw_tlb key))
      (Hashtbl.find_all t.ptw_watch addr);
    unwatch_all t.ptw_watch addr;
    (* Cached fetches from paged segments froze a translation through
       some PTW; a rewritten page table must fault or retranslate. *)
    t.fetch_gen <- t.fetch_gen + 1
  end;
  if b land bit_icache <> 0 then ignore (Hw.Assoc.remove t.icache addr);
  if b land bit_fetch <> 0 then begin
    List.iter
      (fun key ->
        let i = fetch_index key in
        if Array.unsafe_get t.fetch_slots i = key then
          Array.unsafe_set t.fetch_slots i (-1))
      (Hashtbl.find_all t.fetch_watch addr);
    unwatch_all t.fetch_watch addr
  end;
  Bytes.unsafe_set t.watched addr '\000'

(* Fast half: one byte test per store. *)
let on_memory_write t addr =
  let b = Char.code (Bytes.unsafe_get t.watched addr) in
  if b <> 0 then on_watched_write t addr b

(* Silent disassembly for lazy trace-text resolution: re-decode the
   word at [segno|wordno] through the current DBR without touching
   counters, charges, caches or the write observer — export must not
   perturb the modeled machine.  Resolution happens at export time, so
   the walk sees the descriptor state of that moment; an address that
   no longer resolves (revoked segment, paged-out page, word that no
   longer decodes) is [None], which the event log renders as ["?"]. *)
let disassemble_at t ~segno ~wordno =
  match Hw.Descriptor.fetch_sdw_silent t.mem t.regs.Hw.Registers.dbr ~segno with
  | Error _ -> None
  | Ok sdw -> (
      let abs =
        if not (Hw.Sdw.contains sdw ~wordno) then None
        else if sdw.Hw.Sdw.paged then begin
          let pageno = Hw.Paging.page_of_wordno wordno in
          let waddr = sdw.Hw.Sdw.base + pageno in
          let ptw = Hw.Paging.decode_ptw (Hw.Memory.read_silent t.mem waddr) in
          if ptw.Hw.Paging.present then
            Some (ptw.Hw.Paging.frame_base + Hw.Paging.offset_in_page wordno)
          else None
        end
        else
          match Hw.Descriptor.translate sdw ~segno ~wordno with
          | Ok abs -> Some abs
          | Error _ -> None
      in
      match abs with
      | None -> None
      | Some abs -> (
          match Instr.decode (Hw.Memory.read_silent t.mem abs) with
          | Ok instr -> Some (Format.asprintf "%a" Instr.pp instr)
          | Error _ -> None))

let create ?(mode = Ring_hardware)
    ?(stack_rule = Rings.Stack_rule.Segno_equals_ring)
    ?(gate_on_same_ring = true) ?(use_r1_in_indirection = true) ?mem_size ()
    =
  let counters = Trace.Counters.create () in
  let mem = Hw.Memory.create ?size:mem_size counters in
  let log = Trace.Event.create_log () in
  let t =
    {
      mem;
      regs = Hw.Registers.create ();
      counters;
      log;
      spans = Trace.Span.create ();
      profile = Trace.Profile.create ~rings:Rings.Ring.count ();
      mode;
      backend = backend_of_mode mode;
      stack_rule;
      gate_on_same_ring;
      use_r1_in_indirection;
      halted = false;
      saved = None;
      timer = disarmed;
      io_countdown = disarmed;
      io_request = None;
      inhibit = false;
      trap_config = None;
      sdw_tags = Hashtbl.create cache_capacity;
      sdw_cache = Hw.Assoc.create ~capacity:sdw_cache_entries ();
      ptw_tlb = Hw.Assoc.create ~capacity:ptw_tlb_entries ();
      icache = Hw.Assoc.create ~capacity:icache_entries ();
      sdw_watch = Hashtbl.create 64;
      ptw_watch = Hashtbl.create 64;
      fetch_slots = Array.make fetch_cache_slots (-1);
      fetch_entries = Array.make fetch_cache_slots dummy_fetch_entry;
      fetch_watch = Hashtbl.create 256;
      resolve_slots = Array.make resolve_cache_slots (-1);
      resolve_entries = Array.make resolve_cache_slots dummy_resolve_entry;
      fetch_gen = 0;
      watched = Bytes.make (Hw.Memory.size mem) '\000';
      sdw_cache_base = -1;
      resident_bases = [];
      injector = None;
      degraded = false;
      io_fail_pending = false;
      on_recovery = (fun _ -> ());
      cycle_limit = None;
      cap_stack = [];
      op_kind = No_operand;
      op_effective = Rings.Effective_ring.start Rings.Ring.r0;
      op_segno = 0;
      op_wordno = 0;
      op_value = 0;
    }
  in
  (* The capability machine carries validity tags on memory words;
     allocating the tag store only here keeps the other two backends'
     write path untouched. *)
  if mode = Ring_capability then Hw.Memory.enable_tags mem;
  Trace.Span.set_backend t.spans
    (Rings.Backend.to_string (backend_of_mode mode));
  Hw.Memory.set_write_observer t.mem (on_memory_write t);
  (* Instruction events defer their disassembly to export time; the
     log resolves it by silently re-decoding the segment image.  Both
     trace sinks mirror their discard statistics into the machine's
     counters so drops and sampling ride the ordinary counter surface;
     the same counters stamp each event with the modeled cycle count. *)
  Trace.Event.set_text_resolver t.log (fun ~segno ~wordno ->
      disassemble_at t ~segno ~wordno);
  Trace.Event.set_stats t.log counters;
  Trace.Span.set_stats t.spans counters;
  t

let ring t = t.regs.Hw.Registers.ipr_ring

(* The modeled associative memory: same replacement behaviour as the
   original simulated hardware — [cache_capacity] entries, flushed
   wholesale when full — so the cycle accounting is reproduced
   bit-for-bit.  Each tag carries the host's decoded SDW so the common
   case (modeled hit, coherent value) is a single int-keyed lookup;
   {!Hw.Sdw.absent} never enters through an insert (only present SDWs
   are cached), so it doubles as the "host value stale" sentinel. *)
let tag_insert t key sdw =
  if Hashtbl.length t.sdw_tags >= cache_capacity then begin
    Hashtbl.clear t.sdw_tags;
    (* Cached fetches replay a modeled tag hit; a flushed tag store
       makes every one of them a modeled miss again. *)
    t.fetch_gen <- t.fetch_gen + 1
  end;
  Hashtbl.replace t.sdw_tags key sdw

let host_insert_sdw t ~base ~segno key sdw =
  if not t.degraded then
    (match Hw.Assoc.insert t.sdw_cache key sdw with
    | None -> ()
    | Some _ -> Trace.Counters.bump_sdw_cache_evictions t.counters);
  (* The watches stay armed even degraded: the modeled tag store keeps
     carrying host decodes, and those must still heal on descriptor
     writes. *)
  let a = base + (Hw.Descriptor.words_per_sdw * segno) in
  watch t ~bit:bit_sdw t.sdw_watch a key;
  watch t ~bit:bit_sdw t.sdw_watch (a + 1) key

(* A reloaded DBR names a different descriptor segment.  A 645
   process keeps one descriptor segment per ring (at most
   {!Rings.Ring.count}), and switching rings flips the DBR between
   them on every crossing, so bases inside that working set stay
   resident — write-coherence is the observer's job, not the purge's.
   A reload to a base {e outside} the working set is a process switch
   (or a genuinely new descriptor segment): entries cached under the
   old bases are dropped rather than left to squat until capacity
   eviction.  Lazy detection — the DBR is written directly by LDBR,
   the kernel and the 645 descriptor-segment switch, so [fetch_sdw]
   notices the base change on the next translation. *)
let sync_dbr_base t base =
  if not (List.memq base t.resident_bases) then begin
    if List.length t.resident_bases >= Rings.Ring.count then begin
      ignore
        (Hw.Assoc.drop_where t.sdw_cache (fun key _ ->
             key lsr Hw.Addr.segno_bits <> base));
      t.resident_bases <- [ base ]
    end
    else t.resident_bases <- base :: t.resident_bases
  end;
  t.sdw_cache_base <- base

(* Capability backend only: an SDW read from core is trusted only if
   both of its words still carry validity tags.  [store_sdw] — the
   kernel's descriptor-install path — mints the tags; any other store
   (including injected corruption, which writes through the
   coherence-preserving silent path) clears them, so a forged or
   damaged descriptor refuses with {!Rings.Fault.Cap_tag_violation}
   instead of being decoded and obeyed.  Runs only after a successful
   walk, so [segno] is within the DBR bound and the addresses are in
   range.  Modeled-hit paths skip the check by design: a store over
   the words always demotes the modeled tag first (the write
   observer), forcing the checked refill. *)
let check_sdw_tags t (dbr : Hw.Registers.dbr) ~segno =
  if t.mode <> Ring_capability then Ok ()
  else begin
    let a0 = dbr.Hw.Registers.base + (Hw.Descriptor.words_per_sdw * segno) in
    if not (Hw.Memory.tagged t.mem a0) then
      Error (Rings.Fault.Cap_tag_violation { addr = a0; segno })
    else if not (Hw.Memory.tagged t.mem (a0 + 1)) then
      Error (Rings.Fault.Cap_tag_violation { addr = a0 + 1; segno })
    else Ok ()
  end

(* Modeled hit whose host-side decode was invalidated by a write:
   refetch silently and heal the tag.  The modeled activity is the hit
   already bumped by the caller — nothing further is charged. *)
let refill_tag t dbr ~base ~segno key =
  Trace.Counters.bump_sdw_cache_misses t.counters;
  match Hw.Descriptor.fetch_sdw_silent t.mem dbr ~segno with
  | Error _ as e -> e
  | Ok sdw -> (
      match check_sdw_tags t dbr ~segno with
      | Error _ as e -> e
      | Ok () ->
          Hashtbl.replace t.sdw_tags key sdw;
          host_insert_sdw t ~base ~segno key sdw;
          Ok sdw)

(* Modeled miss: the two SDW words are read from core — charged as
   memory traffic exactly as before the host cache split.  The host
   LRU spares the walk when it can. *)
let fetch_sdw_miss t dbr ~base ~segno key =
  match
    if t.degraded then raise_notrace Not_found
    else Hw.Assoc.find t.sdw_cache key
  with
  | sdw when segno < dbr.Hw.Registers.bound ->
      (* Replays the uncached walk's accounting exactly: the SDW-fetch
         bump and charge, then the two SDW words from core.  (The
         bound guard mirrors the walk's own check — a shrunk DBR bound
         must still fault.) *)
      Trace.Counters.bump_sdw_cache_hits t.counters;
      Trace.Counters.bump_sdw_fetches t.counters;
      Trace.Counters.charge t.counters Hw.Costs.sdw_fetch;
      Trace.Counters.charge t.counters (2 * Hw.Costs.memory_access);
      tag_insert t key sdw;
      (* Refreshes recency and re-arms the descriptor-word watches the
         observer may have dropped while only the LRU entry lived. *)
      host_insert_sdw t ~base ~segno key sdw;
      Ok sdw
  | _ | exception Not_found -> (
      Trace.Counters.bump_sdw_cache_misses t.counters;
      match Hw.Descriptor.fetch_sdw t.mem dbr ~segno with
      | Error _ as e -> e
      | Ok sdw -> (
          Trace.Counters.charge t.counters (2 * Hw.Costs.memory_access);
          match check_sdw_tags t dbr ~segno with
          | Error _ as e -> e
          | Ok () ->
              tag_insert t key sdw;
              host_insert_sdw t ~base ~segno key sdw;
              Ok sdw))

let fetch_sdw t ~segno =
  let dbr = t.regs.Hw.Registers.dbr in
  let base = dbr.Hw.Registers.base in
  if base <> t.sdw_cache_base then sync_dbr_base t base;
  let key = sdw_key ~base ~segno in
  match Hashtbl.find t.sdw_tags key with
  | sdw when sdw != Hw.Sdw.absent ->
      (* Modeled hit with a coherent host decode — the hot path. *)
      Trace.Counters.bump_sdw_fetches t.counters;
      Trace.Counters.bump_sdw_cache_hits t.counters;
      Ok sdw
  | _ ->
      Trace.Counters.bump_sdw_fetches t.counters;
      refill_tag t dbr ~base ~segno key
  | exception Not_found -> fetch_sdw_miss t dbr ~base ~segno key

let invalidate_sdw t ~segno =
  let stale =
    Hashtbl.fold
      (fun key _ acc -> if key land segno_mask = segno then key :: acc else acc)
      t.sdw_tags []
  in
  List.iter (Hashtbl.remove t.sdw_tags) stale;
  ignore
    (Hw.Assoc.drop_where t.sdw_cache (fun key _ ->
         key land segno_mask = segno));
  drop_ptw_where t (fun key ->
      (key lsr pageno_bits) land segno_mask = segno);
  (* Conservatively drop decoded instructions too: revoking a segment
     must leave nothing derived from it behind. *)
  Hw.Assoc.clear t.icache;
  Array.fill t.fetch_slots 0 fetch_cache_slots (-1);
  Hashtbl.reset t.fetch_watch;
  Array.fill t.resolve_slots 0 resolve_cache_slots (-1);
  t.fetch_gen <- t.fetch_gen + 1

(* Paged translation with a host-side TLB.  The modeled activity is
   identical on hit and miss — one PTW retrieval counted and charged
   as a memory access, exactly {!Hw.Descriptor.translate_paged} — the
   TLB only spares the host the read-decode on a hit.  Not-present
   PTWs are never cached, so a missing page faults afresh each time,
   as the uncached walk does. *)
let translate_paged_cached t (sdw : Hw.Sdw.t) ~segno ~wordno =
  if not (Hw.Sdw.contains sdw ~wordno) then
    Error (Rings.Fault.Bound_violation { segno; wordno; bound = sdw.Hw.Sdw.bound })
  else begin
    let pageno = Hw.Paging.page_of_wordno wordno in
    Trace.Counters.bump_ptw_fetches t.counters;
    Trace.Counters.bump_memory_reads t.counters;
    Trace.Counters.charge t.counters Hw.Costs.memory_access;
    let key =
      ptw_key ~base:t.regs.Hw.Registers.dbr.Hw.Registers.base ~segno ~pageno
    in
    match
      if t.degraded then raise_notrace Not_found
      else Hw.Assoc.find t.ptw_tlb key
    with
    | v ->
        Trace.Counters.bump_ptw_tlb_hits t.counters;
        Ok (ptw_value_frame v + Hw.Paging.offset_in_page wordno)
    | exception Not_found ->
        Trace.Counters.bump_ptw_tlb_misses t.counters;
        let waddr = sdw.Hw.Sdw.base + pageno in
        let ptw = Hw.Paging.decode_ptw (Hw.Memory.read_silent t.mem waddr) in
        if ptw.Hw.Paging.present then begin
          let frame = ptw.Hw.Paging.frame_base in
          if not t.degraded then begin
            (match
               Hw.Assoc.insert t.ptw_tlb key (ptw_value ~waddr ~frame_base:frame)
             with
            | None -> ()
            | Some _ ->
                (* The evicted entry's page-table word stays watched:
                   cached fetches may still depend on it, and a stale
                   watch costs one harmless observer firing. *)
                Trace.Counters.bump_ptw_tlb_evictions t.counters);
            watch t ~bit:bit_ptw t.ptw_watch waddr key
          end;
          Ok (frame + Hw.Paging.offset_in_page wordno)
        end
        else Error (Rings.Fault.Missing_page { segno; pageno })
  end

let resolve_uncached t ~segno ~wordno =
  match fetch_sdw t ~segno with
  | Error _ as e -> e
  | Ok sdw -> (
      let translated =
        if sdw.Hw.Sdw.paged then translate_paged_cached t sdw ~segno ~wordno
        else Hw.Descriptor.translate sdw ~segno ~wordno
      in
      match translated with Error _ as e -> e | Ok abs -> Ok (sdw, abs))

let resolve_slow t ~segno ~wordno key =
  let res = resolve_uncached t ~segno ~wordno in
  (match res with
  | Ok (sdw, _) when not t.degraded ->
      let i = resolve_index key in
      t.resolve_slots.(i) <- key;
      t.resolve_entries.(i) <-
        { r_res = res; r_gen = t.fetch_gen; r_paged = sdw.Hw.Sdw.paged }
  | Ok _ | Error _ -> ());
  res

(* Replay the filling walk's modeled activity: a free SDW fetch from
   the modeled associative memory, plus — through a page table — the
   PTW retrieval's counted, charged core read. *)
let resolve_at t ~segno ~wordno =
  let base = t.regs.Hw.Registers.dbr.Hw.Registers.base in
  if base <> t.sdw_cache_base then sync_dbr_base t base;
  let key = resolve_key ~base ~segno ~wordno in
  let i = resolve_index key in
  if (not t.degraded) && Array.unsafe_get t.resolve_slots i = key then begin
    let e = Array.unsafe_get t.resolve_entries i in
    if e.r_gen = t.fetch_gen then begin
      let c = t.counters in
      Trace.Counters.bump_sdw_fetches c;
      Trace.Counters.bump_sdw_cache_hits c;
      if e.r_paged then begin
        Trace.Counters.bump_ptw_fetches c;
        Trace.Counters.bump_memory_reads c;
        Trace.Counters.charge c Hw.Costs.memory_access;
        Trace.Counters.bump_ptw_tlb_hits c
      end;
      e.r_res
    end
    else resolve_slow t ~segno ~wordno key
  end
  else resolve_slow t ~segno ~wordno key

let resolve t (addr : Hw.Addr.t) =
  resolve_at t ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno

(* Instruction retrieval with a decoded-instruction cache keyed by
   absolute address.  The modeled activity on either path is the one
   memory read the uncached fetch performed; the cache spares the host
   the word read and re-decode.  The write observer drops entries for
   stored-to addresses, so self-modifying code decodes the new word. *)
let fetch_decoded t abs =
  Trace.Counters.bump_memory_reads t.counters;
  Trace.Counters.charge t.counters Hw.Costs.memory_access;
  match
    if t.degraded then raise_notrace Not_found else Hw.Assoc.find t.icache abs
  with
  | instr ->
      Trace.Counters.bump_icache_hits t.counters;
      Ok instr
  | exception Not_found -> (
      Trace.Counters.bump_icache_misses t.counters;
      match Instr.decode (Hw.Memory.read_silent t.mem abs) with
      | Error _ as e -> e
      | Ok instr ->
          if not t.degraded then begin
            (match Hw.Assoc.insert t.icache abs instr with
            | None -> ()
            | Some _ -> Trace.Counters.bump_icache_evictions t.counters);
            Bytes.unsafe_set t.watched abs
              (Char.unsafe_chr
                 (Char.code (Bytes.unsafe_get t.watched abs) lor bit_icache))
          end;
          Ok instr)

let validate_fetch t (sdw : Hw.Sdw.t) ~ring =
  Rings.Backend.validate_fetch t.backend sdw.access ~ring

(* Whole-fetch memoization: translation, execute validation, word
   read and decode collapsed into one lookup.  An entry is filled
   only from a successful uncached fetch of an unpaged segment whose
   SDW tag is (now) resident, so a generation-current hit replays
   precisely the modeled activity of that walk: one free SDW fetch
   from the modeled associative memory and one core read of the
   instruction word.  Anything that could change any ingredient —
   a store into a descriptor segment, an SDW invalidation, a flush
   of the modeled tag store — advances [fetch_gen]; a store over the
   cached word drops the entry itself via [fetch_watch]. *)
let fetch_instr_slow t ~ring ~segno ~wordno key =
  match resolve_at t ~segno ~wordno with
  | Error _ as e -> e
  | Ok (sdw, abs) -> (
      match validate_fetch t sdw ~ring with
      | Error _ as e -> e
      | Ok () -> (
          match fetch_decoded t abs with
          | Error _ as e -> e
          | Ok _ as res ->
              if not t.degraded then begin
                (* The watch table accumulates a binding per distinct
                   (word, key) pair; slot overwrites leave old bindings
                   harmlessly stale, so bound its growth by starting the
                   memo over when it gets far larger than the slots. *)
                if Hashtbl.length t.fetch_watch > 4 * fetch_cache_slots
                then begin
                  Array.fill t.fetch_slots 0 fetch_cache_slots (-1);
                  Hashtbl.reset t.fetch_watch
                end;
                let i = fetch_index key in
                t.fetch_slots.(i) <- key;
                t.fetch_entries.(i) <-
                  {
                    f_res = res;
                    f_gen = t.fetch_gen;
                    f_paged = sdw.Hw.Sdw.paged;
                  };
                watch t ~bit:bit_fetch t.fetch_watch abs key
              end;
              res))

let fetch_instr t =
  let regs = t.regs in
  let base = regs.Hw.Registers.dbr.Hw.Registers.base in
  if base <> t.sdw_cache_base then sync_dbr_base t base;
  let ring = regs.Hw.Registers.ipr_ring
  and segno = regs.Hw.Registers.ipr_segno
  and wordno = regs.Hw.Registers.ipr_wordno in
  let key = fetch_key ~base ~ring:(Rings.Ring.to_int ring) ~segno ~wordno in
  let i = fetch_index key in
  if (not t.degraded) && Array.unsafe_get t.fetch_slots i = key then begin
    let e = Array.unsafe_get t.fetch_entries i in
    if e.f_gen = t.fetch_gen then begin
      let c = t.counters in
      Trace.Counters.bump_sdw_fetches c;
      Trace.Counters.bump_sdw_cache_hits c;
      if e.f_paged then begin
        (* The walk's PTW retrieval: one counted, charged core read. *)
        Trace.Counters.bump_ptw_fetches c;
        Trace.Counters.bump_memory_reads c;
        Trace.Counters.charge c Hw.Costs.memory_access;
        Trace.Counters.bump_ptw_tlb_hits c
      end;
      Trace.Counters.bump_memory_reads c;
      Trace.Counters.charge c Hw.Costs.memory_access;
      Trace.Counters.bump_icache_hits c;
      e.f_res
    end
    else fetch_instr_slow t ~ring ~segno ~wordno key
  end
  else fetch_instr_slow t ~ring ~segno ~wordno key

let validate_read t (sdw : Hw.Sdw.t) ~effective =
  Rings.Backend.validate_read t.backend sdw.access ~effective

let validate_write t (sdw : Hw.Sdw.t) ~effective =
  Rings.Backend.validate_write t.backend sdw.access ~effective

let validate_transfer t (sdw : Hw.Sdw.t) ~exec ~effective =
  Rings.Backend.validate_transfer t.backend sdw.access ~exec ~effective

let take_fault t ~ring:saved_ring ~segno ~wordno fault =
  Trace.Counters.bump_traps t.counters;
  if Rings.Fault.is_access_violation fault then
    Trace.Counters.bump_access_violations t.counters;
  Trace.Counters.charge t.counters Hw.Costs.trap_entry;
  if Trace.Event.enabled t.log then
    Trace.Event.record_trap t.log
      ~ring:(Rings.Ring.to_int (ring t))
      ~cause:(Rings.Fault.to_string fault);
  let regs = Hw.Registers.copy t.regs in
  Hw.Registers.set_ipr_at regs ~ring:saved_ring ~segno ~wordno;
  t.saved <- Some { regs; fault };
  t.inhibit <- true;
  (* With a simulated supervisor configured, complete the trap in
     hardware: conditions to memory, ring 0, fixed location. *)
  match t.trap_config with
  | None -> ()
  | Some { vector_base; conditions_base } -> (
      match Hw.Descriptor.resolve t.mem t.regs.Hw.Registers.dbr conditions_base with
      | Error _ -> () (* misconfigured: leave the fault to the host *)
      | Ok (_, abs) ->
          let words =
            Hw.Conditions.store regs ~fault_code:(Rings.Fault.code fault)
          in
          Array.iteri
            (fun i w -> Hw.Memory.write_silent t.mem (abs + i) w)
            words;
          let vector = Hw.Addr.offset vector_base (Rings.Fault.code fault) in
          Hw.Registers.set_ipr_at t.regs ~ring:Rings.Ring.r0
            ~segno:vector.Hw.Addr.segno ~wordno:vector.Hw.Addr.wordno)

let restore_saved t =
  t.inhibit <- false;
  match t.trap_config with
  | Some { conditions_base; _ } -> (
      (* Reload the conditions from memory, where the supervisor may
         have patched them. *)
      Trace.Counters.charge t.counters Hw.Costs.trap_restore;
      match Hw.Descriptor.resolve t.mem t.regs.Hw.Registers.dbr conditions_base with
      | Error _ -> invalid_arg "Machine.restore_saved: conditions unreachable"
      | Ok (_, abs) ->
          let words =
            Array.init Hw.Conditions.words (fun i ->
                Hw.Memory.read_silent t.mem (abs + i))
          in
          ignore (Hw.Conditions.load t.regs words);
          t.saved <- None)
  | None -> (
      match t.saved with
      | None -> invalid_arg "Machine.restore_saved: no saved state"
      | Some { regs; _ } ->
          Trace.Counters.charge t.counters Hw.Costs.trap_restore;
          Hw.Registers.restore t.regs ~from:regs;
          t.saved <- None)

(* {1 Fault injection} *)

let attach_injector t inj = t.injector <- Some inj

(* Drop everything the host caches: the three LRU memories, the watch
   tables only they and the fetch memo arm, and the DBR working set.
   The [fetch_gen] bump makes every fetch- and resolve-memo entry miss,
   so the memo arrays are left as they are.  The modeled associative
   memory ([sdw_tags]) and [sdw_watch] are the callers' business. *)
let drop_host_caches t =
  Hw.Assoc.clear t.sdw_cache;
  Hw.Assoc.clear t.ptw_tlb;
  Hw.Assoc.clear t.icache;
  Hashtbl.reset t.fetch_watch;
  Hashtbl.reset t.ptw_watch;
  t.fetch_gen <- t.fetch_gen + 1;
  t.resident_bases <- []

(* Graceful degradation after coherence damage: flush and disable the
   host-side performance caches and run uncached from here on.  The
   modeled associative memory ([sdw_tags]) is untouched — its hit/miss
   pattern is part of the cycle accounting and must not change — and
   [sdw_watch] stays armed so the tags' host decodes keep healing on
   descriptor writes. *)
let degrade t =
  if not t.degraded then begin
    t.degraded <- true;
    Trace.Counters.bump_degraded t.counters;
    drop_host_caches t
  end

(* Checkpoint boundary.  Flush every host-side memoization layer and
   demote every modeled SDW tag to the absent sentinel — keys survive,
   because the tag-store population drives modeled accounting (the
   wholesale flush in [tag_insert], and the hit-vs-walk split in
   [fetch_sdw]).  The live run calls this at every checkpoint it
   writes, and [restore] rebuilds exactly this state in a fresh
   machine, so both continue from identical cold host caches and the
   counters they export stay byte-identical.  Unlike [degrade] the
   caches come back: the next references refill them. *)
let quiesce t =
  drop_host_caches t;
  t.sdw_cache_base <- -1;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.sdw_tags [] in
  List.iter (fun k -> Hashtbl.replace t.sdw_tags k Hw.Sdw.absent) keys

(* Called by the CPU between instructions (never under [inhibit]).
   Corruption has already been applied by [Inject.poll] through the
   silent-write path, so the write observer has kept the host caches
   coherent with the damaged word; what comes back here is the fault
   the processor's checking hardware would raise.  I/O events only
   arm state that the completion path consumes. *)
let poll_injection t =
  match t.injector with
  | None -> None
  | Some inj -> (
      match
        Hw.Inject.poll inj ~mem:t.mem
          ~cycles:(Trace.Counters.cycles t.counters)
      with
      | None -> None
      | Some ev -> (
          Trace.Counters.bump_injected t.counters;
          match ev with
          | Hw.Inject.Deliver_parity { addr; transient = _ } ->
              Some (Rings.Fault.Parity_error { addr })
          | Hw.Inject.Fail_next_io ->
              t.io_fail_pending <- true;
              None
          | Hw.Inject.Stall_io n ->
              if t.io_countdown <> disarmed then
                t.io_countdown <- t.io_countdown + n;
              None))

(* {1 Trace volume} *)

type sampling = { sample : int; seed : int; capacity : int; instr : int }

let set_sampling t s =
  Trace.Event.set_capacity t.log s.capacity;
  Trace.Event.set_sampling t.log ~interval:s.sample ~seed:s.seed;
  Trace.Event.set_instr_sampling t.log ~interval:s.instr;
  Trace.Span.set_sampling t.spans ~interval:s.sample ~seed:s.seed

(* Back to what [create] built, in place, so one machine can host
   run after run without allocating its memory again.  Memory zeroes
   only the pages ever written; everything else — registers, counters,
   trace state, every host cache, memo, watch table and watched byte —
   is refilled or emptied here.  Kept apart from [create] so a fresh
   machine never pays for refilling arrays it has just allocated.  The
   configuration (mode, stack rule, ablations) and the wiring [create]
   installed (write observer, trace clock, resolver, stats) stay. *)
let reset t =
  Hw.Memory.reset t.mem;
  Hw.Registers.restore t.regs ~from:(Hw.Registers.create ());
  Trace.Counters.reset t.counters;
  Trace.Event.reset t.log;
  Trace.Span.reset t.spans;
  Trace.Profile.reset t.profile;
  t.halted <- false;
  t.saved <- None;
  t.timer <- disarmed;
  t.io_countdown <- disarmed;
  t.io_request <- None;
  t.inhibit <- false;
  t.trap_config <- None;
  Hashtbl.reset t.sdw_tags;
  drop_host_caches t;
  Hw.Assoc.reset_stats t.sdw_cache;
  Hw.Assoc.reset_stats t.ptw_tlb;
  Hw.Assoc.reset_stats t.icache;
  Hashtbl.reset t.sdw_watch;
  Array.fill t.fetch_slots 0 fetch_cache_slots (-1);
  Array.fill t.fetch_entries 0 fetch_cache_slots dummy_fetch_entry;
  Array.fill t.resolve_slots 0 resolve_cache_slots (-1);
  Array.fill t.resolve_entries 0 resolve_cache_slots dummy_resolve_entry;
  t.fetch_gen <- 0;
  Bytes.fill t.watched 0 (Bytes.length t.watched) '\000';
  t.sdw_cache_base <- -1;
  t.injector <- None;
  t.degraded <- false;
  t.io_fail_pending <- false;
  t.on_recovery <- (fun _ -> ());
  t.cycle_limit <- None;
  t.cap_stack <- [];
  t.op_kind <- No_operand;
  t.op_effective <- Rings.Effective_ring.start Rings.Ring.r0;
  t.op_segno <- 0;
  t.op_wordno <- 0;
  t.op_value <- 0
