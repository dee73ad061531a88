(** Processor multiplexing and inter-user sharing.

    The paper places processor multiplexing among the ring-0
    primitives and makes segment sharing a founding goal: "a single
    segment may be part of several virtual memories at the same time,
    allowing straightforward sharing of segments among users".  This
    module is that substrate: one simulated machine whose memory holds
    several processes (each with its own descriptor segment(s), stacks
    and private segments), a way to map one resident segment into
    several virtual memories with per-user access fields, and a
    round-robin dispatcher that multiplexes the processor by swapping
    the register file at quantum boundaries.

    Ring protection is per-process: each process's descriptor segments
    carry the brackets its user's ACL entries grant, so two processes
    can hold different capabilities for the same shared segment. *)

type status =
  | Ready
  | Blocked  (** Asleep until its channel operation completes. *)
  | Done of Kernel.exit

type entry = {
  pname : string;
  process : Process.t;
  mutable saved_regs : Hw.Registers.t;
      (** The register file as of the entry's last slice — after
          completion, its final state.  The entry owns this record:
          spawn, {!quarantine}, completion and the snapshot decoder
          each store a fresh one, and a slice that expires or blocks
          overwrites it in place ({!Hw.Registers.restore}), so hold a
          copy, not this record, to keep a past state. *)
  mutable status : status;
  mutable saved_io : int option * Isa.Machine.io_request option;
      (** The entry's virtual channel, stashed across slices. *)
  mutable stalled : int;
      (** Instructions retired since the entry last made progress —
          the watchdog's accumulator, carried across slices (and
          checkpoints). *)
}

type t

val create :
  ?mode:Isa.Machine.mode ->
  ?stack_rule:Rings.Stack_rule.t ->
  ?mem_size:int ->
  store:Store.t ->
  unit ->
  t
(** One machine; default memory 2^21 words, giving eight process
    regions of 2^18 words each. *)

val reset : t -> store:Store.t -> unit
(** Make [t] what [create ~store ()] would build under the same mode,
    stack rule and memory size, reusing its machine
    ({!Isa.Machine.reset}): no entries, regions, slices, completion
    log or rotation, no {!last_applied} image, and [store] as its
    on-line storage.  What runs on it next runs exactly as on a fresh
    system; the arena resets one system per worker between waves
    instead of building one for each.  Both are cheap — a machine's
    memory pages are allocated on first store, and a reset clears only
    what the last run touched — but a reset also keeps those pages, so
    the next wave's stores allocate nothing. *)

val machine : t -> Isa.Machine.t

val region_words : t -> int
(** Size of one process's memory region; the entry spawned [i]th owns
    absolute words [[i * region_words, (i+1) * region_words)].  The
    cross-tenant auditor checks every placement against this map. *)

val entries : t -> entry list
(** Every spawned entry, in spawn order — the traffic controller's
    process table.  The chaos harness walks it to audit each virtual
    memory against the kernel's authoritative tables. *)

val spawn :
  ?shared:(string * string) list ->
  ?paged:bool ->
  t ->
  pname:string ->
  user:string ->
  segments:string list ->
  start:string * string ->
  ring:int ->
  (entry, string) result
(** Create a process named [pname] for [user] in the next free memory
    region; map each [(segment, owner_pname)] of [shared] from the
    owning process's virtual memory ({!share}); then add [segments]
    from the store — their [seg$sym] externals may reference the
    shared segments; finally point the process at
    [start = (segment, entry)] in [ring] and record its initial
    register file.  With [paged] the process's own segments are
    demand-paged; segments mapped from other processes stay direct
    (the paging state, like the backing store, is per-process). *)

val share :
  t -> segment:string -> owner:string -> into:string -> (unit, string) result
(** Map [segment], already loaded in process [owner]'s virtual memory,
    into process [into]'s virtual memory without copying — both
    processes then address the same words.  The access fields for
    [into] are derived from the segment's ACL and [into]'s user; the
    ACL may deny, or grant different brackets than the owner has. *)

val find : t -> string -> entry option

val slices : t -> int
(** Lifetime slice count — the [max_slices] budget is charged against
    this, so a resumed run inherits the slices the dead run spent. *)

val set_slices : t -> int -> unit
(** Restore path: re-seat the slice count from a checkpoint. *)

val finished_log : t -> (string * Kernel.exit) list
(** Every exit ever finished, in completion order — cumulative across
    {!run} calls and checkpoints, so a resumed run reports exits the
    dead run observed before the checkpoint. *)

val set_finished_log : t -> (string * Kernel.exit) list -> unit
(** Restore path: re-seat the completion log from a checkpoint. *)

val rotation : t -> string list
(** The dispatcher's current round-robin rotation: pnames not yet
    dispatched this pass.  Scheduler state — a checkpoint taken
    mid-rotation must carry it, or the resumed run would restart the
    pass from the top and dispatch (and finish) processes in a
    different order than the run it is reproducing. *)

val set_rotation : t -> string list -> unit
(** Restore path: re-seat the rotation from a checkpoint. *)

val last_applied : t -> string option
(** The full image whose apply ({!Snapshot.warm_boot} or
    {!Snapshot.restore}) last completed on [t]; [None] after {!create}
    and {!reset}.  {!Snapshot.warm_boot} trusts the checks it already
    ran on exactly this string — the same string, by physical
    equality, not an equal copy. *)

val set_last_applied : t -> string -> unit
(** Snapshot path: record the image an apply has just completed. *)

val quarantine : t -> entry -> Rings.Fault.t -> unit
(** Kill one entry through the PR-3 quarantine path — bump the
    [quarantined] counter, capture its final register file, mark it
    [Done (Quarantined fault)] and log the exit — without touching the
    other entries.  The arena's quota policy resolves breaches to
    this, never to a whole-machine abort.  No-op when the entry is
    already finished. *)

val run :
  ?quantum:int ->
  ?max_slices:int ->
  ?watchdog:int ->
  ?before_slice:(entry -> unit) ->
  ?after_slice:(entry -> Kernel.exit -> unit) ->
  ?on_slice:(unit -> unit) ->
  t ->
  (string * Kernel.exit) list
(** Round-robin dispatch: the interval timer is armed with [quantum]
    (default 50) before each slice, so preemption is a hardware
    timer-runout trap; the register file is then swapped to the next
    ready process.  Traps are serviced by {!Kernel} within the slice.
    A process that blocks on channel I/O (MME {!Calling.svc_block})
    sleeps while others run; its channel advances with the
    instructions they retire (or with idle quanta when everyone
    sleeps) and the dispatcher performs the completion and reawakens
    it — the traffic controller.  Returns each process's exit, in
    completion order.  Processes still unfinished after [max_slices]
    (default 10,000) are reported as [Out_of_budget].

    With [watchdog], an entry that retires [watchdog] instructions
    (accumulated across slices) without a fault, ring crossing,
    descriptor switch or channel activity is quarantined with
    {!Rings.Fault.Watchdog_timeout} through the PR-3 quarantine path,
    bumping the [watchdog_tripped] and [quarantined] counters; the
    rest of the system keeps running.  Off by default — a legitimate
    compute loop is indistinguishable from a hang, so the budget is
    the caller's policy; without it a slice reads no progress
    counters.

    [before_slice] is called with the entry about to run, after its
    registers and channel state are seated and the timer armed — the
    arena arms per-tenant machine limits here.  [after_slice] is
    called with the entry and its slice result after the state is
    stashed back; it may call {!quarantine} on the entry, and a kill
    it performs still lands in this call's return list.

    [on_slice] is called after every completed slice, at a clean
    scheduling boundary (register file stashed, channel state saved) —
    the checkpoint subsystem's trigger point. *)
