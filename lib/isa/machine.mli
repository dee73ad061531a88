(** A simulated processor plus its memory: the unit the CPU steps.

    A machine runs in one of three protection modes:

    - {!Ring_hardware}: the paper's proposal.  The bracket and gate
      fields of each SDW are honoured on every reference, the
      effective ring is maintained through address formation, and CALL
      and RETURN switch rings without software intervention.

    - {!Ring_software_645}: the baseline — the initial Multics on the
      Honeywell 645, which had only read/write/execute flags per SDW.
      The ring fields in SDWs, indirect words and pointer registers
      are ignored by the hardware; references are validated against
      the flags of whatever descriptor segment the DBR currently names
      (one per ring per process, maintained by software); CALL and
      RETURN never switch rings, and any cross-ring transfer surfaces
      as a fault for the software gatekeeper.

    - {!Ring_capability}: the capability-machine reading of the same
      layout.  Memory words carry validity tags ({!Hw.Memory} tag
      store) and every installed SDW is a capability at rest: the
      permission mask a domain holds on a segment is derived from the
      SDW access field and, by construction, agrees with the bracket
      predicate — so the backend admits exactly the references the
      hardware admits, refusing in capability vocabulary.  Gate words
      become sealed entry capabilities, the crossing stack discipline
      becomes sealed return capabilities ([cap_stack]), and bracket
      nesting becomes monotonic attenuation.  See docs/CAPABILITIES.md.

    The per-access decision procedure behind each mode lives in
    {!Rings.Backend}; the two ablation switches exist only for the
    benches and tests that demonstrate why the corresponding rule is
    in the paper. *)

type mode = Ring_hardware | Ring_software_645 | Ring_capability

val backend_of_mode : mode -> Rings.Backend.t

type saved_state = {
  regs : Hw.Registers.t;  (** Deep copy; IPR at the faulting instruction. *)
  fault : Rings.Fault.t;
}

(** The simulated-supervisor trap path.  On any trap the processor
    stores the machine conditions ({!Hw.Conditions}) at
    [conditions_base] and transfers, in ring 0, to
    [vector_base + Fault.code] — a one-word-per-cause transfer vector.
    The privileged RTRAP instruction reloads the conditions from
    memory. *)
type trap_config = {
  vector_base : Hw.Addr.t;
  conditions_base : Hw.Addr.t;
}

(** A channel program started by SIOT, performed by the supervisor at
    completion time. *)
type io_request = {
  ccw : Hw.Addr.t;  (** The channel control word pair's address. *)
  buffer : Hw.Addr.t;  (** Transfer area (from CCW word 0). *)
  direction : [ `Read | `Write ];
  count : int;
}

type fetch_entry = {
  f_res : (Instr.t, Rings.Fault.t) result;
  f_gen : int;
  f_paged : bool;
}
(** A memoized instruction fetch: valid while [f_gen] matches the
    machine's current fetch generation.  [f_paged] selects which
    modeled walk a hit replays (unpaged, or through a page table).
    The prebuilt result makes a hit allocation-free. *)

type resolve_entry = {
  r_res : (Hw.Sdw.t * int, Rings.Fault.t) result;
  r_gen : int;
  r_paged : bool;
}
(** A memoized address translation, same generation discipline;
    faults are never cached. *)

val disarmed : int
(** The [timer] and [io_countdown] value that means no countdown is
    running.  An integer sentinel rather than an option, so a running
    countdown ticks without allocating. *)

val countdown_of_option : int option -> int
(** [None] is {!disarmed}. *)

val option_of_countdown : int -> int option
(** {!disarmed} is [None]. *)

(** What the operand scratch fields of {!t} hold for the instruction
    in flight. *)
type operand_kind =
  | No_operand  (** The instruction takes no operand. *)
  | Immediate_operand  (** [op_value] is the sign-extended offset. *)
  | Memory_operand
      (** [op_segno|op_wordno], validated against [op_effective]. *)

type t = {
  mem : Hw.Memory.t;
  regs : Hw.Registers.t;
  counters : Trace.Counters.t;
  log : Trace.Event.log;
      (** Bounded ring-buffer event log; its clock is wired to
          [counters] so recorded events carry modeled-cycle stamps. *)
  spans : Trace.Span.tracker;
      (** Call/return span tracker — one span per CALL that transfers
          control, closed by its matching RETURN.  Disabled by
          default; enabling it never changes the modeled counters. *)
  profile : Trace.Profile.t;
      (** Per-ring / per-segment cycle and instruction attribution,
          filled by {!Cpu.step} when enabled. *)
  mode : mode;
  backend : Rings.Backend.t;
      (** [backend_of_mode mode], cached off the per-reference hot
          path. *)
  stack_rule : Rings.Stack_rule.t;
  gate_on_same_ring : bool;
      (** Ablation: when false, same-ring CALLs skip the gate check. *)
  use_r1_in_indirection : bool;
      (** Ablation: when false, effective-ring formation omits the
          SDW.R1 term for segments containing indirect words. *)
  mutable halted : bool;
  mutable saved : saved_state option;
      (** Processor state captured by the last trap, for RTRAP. *)
  mutable timer : int;
      (** Interval timer: decremented once per retired instruction;
          reaching zero raises [Timer_runout] between instructions.
          {!disarmed} disables it. *)
  mutable io_countdown : int;
      (** Pending I/O operation started by SIOC/SIOT: counts down per
          instruction like the timer and raises the I/O-completion
          trap when it reaches zero; {!disarmed} when none is
          pending. *)
  mutable io_request : io_request option;
      (** The transfer the supervisor performs at completion (SIOT);
          [None] for a bare SIOC. *)
  mutable inhibit : bool;
      (** Interrupt inhibit: set by the hardware on every trap entry
          and cleared by RTRAP, so the timer and I/O completions
          cannot preempt a supervisor handler before it has consumed
          the machine conditions.  (Synchronous faults still trap —
          a buggy handler is not protected from itself.) *)
  mutable trap_config : trap_config option;
      (** When set, the processor itself completes the trap sequence:
          it stores the machine conditions, forces ring 0, and
          transfers to the vector — the "bare-metal" mode where a
          {e simulated} supervisor handles traps.  When unset (the
          default), faults surface to the host-level kernel. *)
  sdw_tags : (int, Hw.Sdw.t) Hashtbl.t;
      (** The {e modeled} SDW associative memory, keyed by packed
          (descriptor segment base, segment number): a hit costs
          nothing, a miss reads the two SDW words from the descriptor
          segment.  Keying by the DBR base means loading a different
          descriptor segment naturally misses — the 645 baseline pays
          the refill after every ring switch, as the paper's cost
          discussion notes.  The key population alone determines the
          cycle accounting; the value is the host's decoded SDW, with
          {!Hw.Sdw.absent} (physical equality) marking a tag whose
          decode was invalidated by a store into the descriptor
          segment and must be silently refetched. *)
  sdw_cache : (int, Hw.Sdw.t) Hw.Assoc.t;
      (** Host-side LRU cache of decoded SDWs, same packed key as
          [sdw_tags].  Kept coherent by the memory write observer and
          purged of stale bases on DBR reload; never affects modeled
          cycles. *)
  ptw_tlb : (int, int) Hw.Assoc.t;
      (** Host-side TLB over {!Hw.Descriptor.translate_paged}, keyed
          by packed (DBR base, segno, pageno); the value packs the
          watched page-table word address with the frame base. *)
  icache : (int, Instr.t) Hw.Assoc.t;
      (** Host-side decoded-instruction cache keyed by absolute
          address; any store to a cached address drops the entry, so
          self-modifying code refetches and redecodes. *)
  sdw_watch : (int, int) Hashtbl.t;
      (** Descriptor-word address -> packed SDW keys (multi-binding)
          for write-coherence of [sdw_cache] and [ptw_tlb]. *)
  ptw_watch : (int, int) Hashtbl.t;
      (** Page-table word address -> packed PTW keys (multi-binding)
          for write-coherence of [ptw_tlb]. *)
  fetch_slots : int array;
      (** Whole-fetch memo, direct-mapped: slot [key land mask] holds
          the packed (DBR base, ring, segno, wordno) key, [-1] when
          empty.  A generation-current entry replays the modeled
          activity of the uncached fetch (one free SDW fetch, one core
          read — plus the PTW retrieval for paged segments) and skips
          translation, validation, read and decode on the host. *)
  fetch_entries : fetch_entry array;
      (** The entry filled alongside each [fetch_slots] key. *)
  fetch_watch : (int, int) Hashtbl.t;
      (** Absolute instruction-word address -> fetch-cache keys
          (multi-binding), so stores over cached words — self-modifying
          code — drop exactly the affected entries. *)
  resolve_slots : int array;
      (** Memoized successful translations, direct-mapped like
          [fetch_slots], keyed by packed (DBR base, segno, wordno). *)
  resolve_entries : resolve_entry array;
      (** The entry filled alongside each [resolve_slots] key. *)
  mutable fetch_gen : int;
      (** Generation stamp for [fetch_cache]; advanced by descriptor
          writes, SDW invalidation and modeled tag-store flushes, each
          of which could change what a cached fetch froze. *)
  watched : Bytes.t array;
      (** One byte per memory word, one map per
          {!Hw.Memory.page_words}-word page: which host caches have
          state keyed off an absolute address (bit 1 SDW, 2 PTW, 4
          decoded-instruction, 8 fetch memo).  Makes the common
          unwatched store a single byte test in the write observer.
          Every page starts on one all-zero map shared by every machine
          and never written; the first watch bit set in a page gives it
          a map of its own, so a machine allocates maps only for the
          pages its caches watch. *)
  watched_pages : Bytes.t;
      (** One byte per page, nonzero once a bit of its [watched] map
          was set.  Every place that sets a [watched] bit flags its
          page, so {!reset} clears only the flagged pages' maps. *)
  mutable sdw_cache_base : int;
      (** DBR base the host caches were last synchronized against;
          [fetch_sdw] lazily detects DBR reloads through it. *)
  mutable resident_bases : int list;
      (** Descriptor-segment bases currently resident in the host
          caches — at most {!Rings.Ring.count}, one per ring of a 645
          process.  Flipping the DBR among resident bases (every 645
          ring crossing) costs nothing; reloading to a base outside
          the set purges entries cached under the old bases. *)
  mutable injector : Hw.Inject.t option;
      (** Deterministic fault injector, polled between instructions
          when attached.  [None] (the default) costs one option test
          per step and leaves every modeled quantity untouched. *)
  mutable degraded : bool;
      (** Host caches disabled after coherence damage; see
          {!degrade}. *)
  mutable io_fail_pending : bool;
      (** The next I/O completion must deliver {!Rings.Fault.Io_error}
          instead of performing the transfer (armed by an injected
          channel failure). *)
  mutable on_recovery : Rings.Fault.t -> unit;
      (** Called by the kernel after each injected-fault recovery
          decision (resume, retry or quarantine) with the fault it
          acted on.  The chaos harness hangs its invariant checker
          here; the default does nothing. *)
  mutable cycle_limit : int option;
      (** Arena billing ceiling on {!Trace.Counters.cycles}: checked
          between instructions, raising
          {!Rings.Fault.Quota_exhausted} (and clearing itself) once
          the running cycle total reaches the limit.  Slice policy,
          not machine state: the dispatcher arms it before a tenant's
          slice and disarms it after, so it is always [None] at
          checkpoint boundaries and is not serialized. *)
  mutable cap_stack : Cap.Capability.sealed_return list;
      (** Capability mode's crossing stack: each cross-domain CALL
          pushes the caller's continuation sealed under the caller's
          domain, and the matching RETURN unseals and pops it.  Pops
          are lenient — the outward-return trampoline executes an
          upward RETN with no matching hardware CALL, so a top entry
          sealed under a different domain is simply left in place.
          Always [[]] in the other two modes; serialized in
          snapshots. *)
  mutable op_kind : operand_kind;
      (** The operand of the instruction in flight, as
          {!Eff_addr.form} left it.  The [op_] fields are the
          conceptual TPR: scratch, rewritten by every instruction that
          takes an operand, never saved or restored. *)
  mutable op_effective : Rings.Effective_ring.t;
  mutable op_segno : int;
  mutable op_wordno : int;
  mutable op_value : Hw.Word.t;
      (** The immediate operand, or the word the last operand read
          returned. *)
}

val create :
  ?mode:mode ->
  ?stack_rule:Rings.Stack_rule.t ->
  ?gate_on_same_ring:bool ->
  ?use_r1_in_indirection:bool ->
  ?mem_size:int ->
  unit ->
  t
(** Defaults: hardware rings, [Segno_equals_ring], both ablation
    switches on (the paper's rules). *)

type sampling = { sample : int; seed : int; capacity : int; instr : int }
(** Trace volume: keep 1 in [sample] events and spans (seeded by
    [seed], deterministic — see {!Trace.Event.set_sampling}) in an
    event arena of [capacity] cells, and sample the instruction stream
    at its own 1-in-[instr] rate ([0] follows [sample]). *)

val set_sampling : t -> sampling -> unit
(** Apply [s] to the event log and the span recorder.  Call it before
    anything is recorded: setting the capacity empties the log.
    Raises [Invalid_argument] on a [sample] or [capacity] below 1 or a
    negative [instr]. *)

val ring : t -> Rings.Ring.t
(** Current ring of execution (IPR.RING). *)

val fetch_sdw : t -> segno:int -> (Hw.Sdw.t, Rings.Fault.t) result

val resolve : t -> Hw.Addr.t -> (Hw.Sdw.t * int, Rings.Fault.t) result

val resolve_at :
  t -> segno:int -> wordno:int -> (Hw.Sdw.t * int, Rings.Fault.t) result
(** [resolve] from the address parts.  A memo hit returns the prebuilt
    result and allocates nothing. *)

val fetch_decoded : t -> int -> (Instr.t, Rings.Fault.t) result
(** The instruction word at absolute address [abs], through the
    decoded-instruction cache.  Models exactly one memory read whether
    the decode was cached or not. *)

val fetch_instr : t -> (Instr.t, Rings.Fault.t) result
(** The full instruction fetch at the current IPR: resolve, validate
    the execute bracket, read and decode — memoized whole through the
    fetch cache.  Modeled activity is identical cached or not. *)

val disassemble_at : t -> segno:int -> wordno:int -> string option
(** Silently re-decode and render the instruction word at
    [segno|wordno] through the current DBR — no counters, charges,
    caches or observers are touched.  This is the event log's lazy
    text resolver ({!Trace.Event.set_text_resolver}, registered by
    {!create}): trace export resolves instruction text on demand
    instead of the CPU formatting it per retired instruction.  [None]
    if the address no longer resolves or the word no longer decodes. *)

(** {1 Mode-dependent validation}

    Each of these dispatches through {!Rings.Backend.t} for the
    machine's mode: the hardware applies the {!Rings.Policy} bracket
    rules, the 645 consults only the flags (the per-ring descriptor
    segment is what makes the flags ring-specific), and the capability
    backend runs the derived-capability check, which refuses exactly
    where the hardware refuses but in capability vocabulary. *)

val validate_fetch :
  t -> Hw.Sdw.t -> ring:Rings.Ring.t -> (unit, Rings.Fault.t) result

val validate_read :
  t ->
  Hw.Sdw.t ->
  effective:Rings.Effective_ring.t ->
  (unit, Rings.Fault.t) result

val validate_write :
  t ->
  Hw.Sdw.t ->
  effective:Rings.Effective_ring.t ->
  (unit, Rings.Fault.t) result

val validate_transfer :
  t ->
  Hw.Sdw.t ->
  exec:Rings.Ring.t ->
  effective:Rings.Effective_ring.t ->
  (unit, Rings.Fault.t) result
(** Ordinary (non-CALL/RETURN) transfer validation — what {!Exec}
    applies to TRA-family targets. *)

val invalidate_sdw : t -> segno:int -> unit
(** Drop any associative-memory entries for [segno] (under every
    descriptor segment) — the modeled tags, the host SDW cache, every
    TLB entry translated through the segment's SDWs, and the decoded
    instruction cache.  Supervisor code that rewrites an SDW — e.g.
    to change a segment's access fields at run time — must call this
    for the change to be "immediately effective" as the paper
    requires. *)

val take_fault :
  t -> ring:Rings.Ring.t -> segno:int -> wordno:int -> Rings.Fault.t -> unit
(** Trap bookkeeping: charge the trap-entry cost, bump the trap (and,
    when appropriate, access-violation) counters, record the event,
    and capture the processor state with IPR at [ring], [segno|wordno]
    — the instruction that faulted — so RTRAP can resume it. *)

val restore_saved : t -> unit
(** The RTRAP action: restore the captured state and clear it.
    Raises [Invalid_argument] when no state is saved. *)

(** {1 Fault injection and degradation} *)

val attach_injector : t -> Hw.Inject.t -> unit

val degrade : t -> unit
(** Flush and disable every host-side performance cache (SDW LRU, PTW
    TLB, decoded-instruction cache, fetch and resolve memos) and
    continue uncached.  The modeled associative memory is untouched,
    so the cycle accounting of the run is unchanged — only the host
    pays.  Idempotent; bumps the [degraded] counter on the first
    call. *)

val quiesce : t -> unit
(** Checkpoint boundary: flush every host-side cache and memo, and
    demote every modeled SDW tag to the absent sentinel (tag {e keys}
    survive — the tag-store population drives modeled accounting).
    The live run quiesces at each checkpoint it writes and the restore
    path rebuilds the same state in a fresh machine, so a resumed run
    and the uninterrupted one continue from identical cold host state
    and export byte-identical counters.  Unlike {!degrade} the caches
    refill on subsequent references. *)

val reset : t -> unit
(** Return [t], in place, to the state {!create} built it in: memory
    zeroed ({!Hw.Memory.reset}, which touches only the pages ever
    written), registers, counters, event log, spans and profile as
    new, no timer, channel, trap, halt or degraded state, no injector,
    recovery hook or cycle limit, an empty capability stack, every host
    cache and watch table empty, and every [watched] byte zero (only
    the pages [watched_pages] flags are cleared).  The fetch and
    resolve memo arrays keep their slots, but the [fetch_gen] bump
    that empties the host caches makes every entry miss, as after
    {!quiesce}.  Mode, stack rule and ablation switches are kept.  A
    run on the reset machine is indistinguishable from the same run on
    a fresh one — counters, exits and snapshot bytes alike — and costs
    what the previous run touched, not the memory size. *)

val poll_injection : t -> Rings.Fault.t option
(** Fire at most one due injection rule.  A returned fault is a parity
    error the CPU must deliver between instructions (corruption, if
    any, has already been applied through the coherence-preserving
    silent-write path); I/O events arm [io_fail_pending] or stretch
    the in-flight countdown and return [None]. *)
