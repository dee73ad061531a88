(** Processes and their virtual memories.

    The first Multics assumption: a process is created for each user,
    the user's name is attached to it, and the process is the user's
    only means of referencing on-line information.  A [Process.t]
    owns a simulated machine and builds its virtual memory:

    - segment numbers 0–7 are the eight standard per-ring stack
      segments (DBR.STACK = 0), each with read and write brackets
      ending at its ring and a header ITS word per {!Calling};
    - segment 8 is the communication segment used by the upward-call
      emulation (the paper's "copy arguments into segments accessible
      in the called ring" solution);
    - segment 9 is the return-gate trampoline for downward returns;
    - user segments are added from the {!Store} starting at segment
      10, gated by each segment's ACL against the process's user.

    In hardware mode there is a single descriptor segment carrying the
    full bracket information.  In 645 mode the process gets {e eight}
    descriptor segments, one per ring — the software-ring technique of
    the initial Multics — each holding only read/write/execute flags
    as appropriate for its ring, and the kernel keeps the bracket and
    gate information in its own tables ({!ring_data}). *)

type loaded = {
  name : string;
  segno : int;
  base : int;  (** Absolute address of word 0. *)
  bound : int;
  access : Rings.Access.t;
  symbols : (string * int) list;
}

(** A ring-crossing record pushed by the gatekeepers; the dynamic
    stack of return gates the paper calls for. *)
type crossing_kind =
  | Inward  (** 645-mode downward call awaiting its upward return. *)
  | Outward  (** Emulated upward call awaiting its downward return. *)

type crossing = {
  kind : crossing_kind;
  saved : Hw.Registers.t;
      (** Caller state; IPR addresses the trapped CALL instruction. *)
  caller_ring : Rings.Ring.t;
  callee_ring : Rings.Ring.t;
  copy_back : (Hw.Addr.t * Hw.Addr.t) list;
      (** (communication-segment address, original address) pairs of
          copied argument words to write back on return.  Virtual
          addresses, so the records stay valid across page movement. *)
}

type placement =
  | Direct of { base : int; bound : int }
  | Paged_at of { pt_base : int; bound : int }

(** Demand-paging state: the kernel's frame pool and the backing store
    ("drum") images of paged segments. *)
type paging_state = {
  mutable free_frames : int list;
  mutable resident : (int * int * int) list;
      (** (frame base, segno, pageno), oldest last — FIFO eviction. *)
  backing : (int, int array) Hashtbl.t;  (** segno -> full contents. *)
}

type t = {
  user : string;
  store : Store.t;
  machine : Isa.Machine.t;
  descsegs : Hw.Registers.dbr array;
      (** One DBR value in hardware mode; eight in 645 mode. *)
  ring_data : (int, Rings.Access.t) Hashtbl.t;
      (** Kernel tables: true access fields per segment number. *)
  placement : (int, placement) Hashtbl.t;
  paging : paging_state option;
  mutable loaded : loaded list;
  mutable next_segno : int;
  mutable next_free : int;
  region_end : int;
      (** End (exclusive) of the absolute memory this process may
          allocate from; [next_free] never passes it. *)
  comm_segno : int;
  retgate_segno : int;
  typewriter : Device.t;
      (** The process's terminal, moved by channel I/O ({!Io}). *)
  mutable search_rules : (Directory.t * string list) option;
      (** When set, the add-segment supervisor service resolves bare
          names through these directories in order ({!Directory.search})
          — per-process search rules, as on Multics. *)
  mutable crossings : crossing list;
  mutable mapped : int list;
      (** Segment numbers {!map_segment} installed: another process's
          words, shared on purpose.  The cross-tenant auditor exempts
          them. *)
  mutable fault_count : int;
      (** Injected faults this process has absorbed; past the
          injection plan's fault budget the kernel quarantines it. *)
  mutable io_attempts : int;
      (** Consecutive failed attempts of the current channel transfer;
          cleared on a successful completion. *)
}

val create :
  ?mode:Isa.Machine.mode ->
  ?stack_rule:Rings.Stack_rule.t ->
  ?gate_on_same_ring:bool ->
  ?use_r1_in_indirection:bool ->
  ?mem_size:int ->
  ?machine:Isa.Machine.t ->
  ?region_base:int ->
  ?region_end:int ->
  ?paged:bool ->
  ?frame_pool:int ->
  store:Store.t ->
  user:string ->
  unit ->
  t
(** With [machine] the process is built inside an existing machine's
    memory — the multiprogramming case ({!System}) — and the mode and
    ablation options are the machine's; [region_base] (default 0) is
    the absolute address where this process's private storage
    (descriptor segments, stacks, segments) begins and [region_end]
    (default the end of memory) where it must stop. *)

val add_segments : t -> string list -> (unit, string) result
(** Add the named store segments to the virtual memory, as a batch so
    they may reference one another with [seg$sym] externals.  Each
    source is parsed once: surveyed ({!Asm.Assemble.survey}) for its
    size and symbols, then linked ({!Asm.Assemble.link}) against the
    batch and the segments already loaded.  Fails — without loading
    anything or using up a segment number — if any name is unknown,
    any ACL denies the process's user, any source fails to assemble,
    or the batch needs more than 256 segment numbers or more words
    than are left before [region_end].  The checks run in that order:
    each segment's lookup, ACL and survey, then the fit, then each
    link. *)

val add_segment : t -> string -> (unit, string) result

val map_segment :
  t ->
  name:string ->
  base:int ->
  bound:int ->
  access:Rings.Access.t ->
  symbols:(string * int) list ->
  (int, string) result
(** Map a segment already resident in (shared) absolute memory into
    this virtual memory, with the given access fields — how a single
    segment becomes part of several virtual memories at the same time.
    The caller has already derived [access] from the segment's ACL for
    this process's user.  Returns the assigned segment number. *)

val segno_of : t -> string -> int option
val find_by_segno : t -> int -> loaded option

val address_of : t -> segment:string -> symbol:string -> Hw.Addr.t option

val start :
  t -> segment:string -> entry:string -> ring:int -> (unit, string) result
(** Point the machine at [segment$entry] in [ring], with PR0/PR6 and
    the ring's stack initialized per {!Calling} (as though the
    environment had just been entered).  In 645 mode also selects the
    ring's descriptor segment. *)

(** {1 Kernel services} (used by the gatekeepers) *)

val stack_segno_for : t -> Rings.Ring.t -> int

val switch_descriptor_segment : t -> Rings.Ring.t -> unit
(** 645 mode: load the DBR with the given ring's descriptor segment,
    charging the descriptor-switch cost and bumping its counter.
    A no-op in hardware mode. *)

val abs_of : t -> Hw.Addr.t -> (int, string) result
(** Kernel address resolution through its own tables (no access
    checks — the kernel has all capabilities). *)

val kread : t -> Hw.Addr.t -> (int, string) result
(** Kernel read, charged as machine memory traffic. *)

val ring_may :
  t -> ring:Rings.Ring.t -> write:bool -> Hw.Addr.t -> bool
(** Would a program executing in [ring] be allowed to read (or, with
    [write], write) this word?  Gatekeepers acting on a caller's
    behalf must check this before touching memory the caller named,
    or they become confused deputies. *)

val kwrite : t -> Hw.Addr.t -> int -> (unit, string) result

val push_crossing : t -> crossing -> unit
val pop_crossing : t -> crossing option

val set_access :
  t -> name:string -> Rings.Access.t -> (unit, string) result
(** Rewrite the access fields in the segment's SDW(s) — the dynamic
    change of "the finer constraints recorded in the SDW", immediately
    effective on the next reference (the associative memory is
    invalidated).  The gate count is preserved from the loaded
    segment. *)

val reinstall_sdw : t -> segno:int -> bool
(** Re-derive and store the SDW for [segno] from the process's own
    segment tables — the capability backend's recovery action after a
    {!Rings.Fault.Cap_tag_violation}: storing through the install path
    re-mints the descriptor words' validity tags.  [false] when the
    segment was never installed (the refusal stands). *)

val pp_layout : Format.formatter -> t -> unit
(** The virtual memory map: one line per segment number with name,
    placement (direct base or page table), bound and access fields —
    the view a Multics operator would get of a process. *)

val descriptor_ranges : t -> (int * int) list
(** [(base, length)] of every absolute region whose words address
    translation trusts: the descriptor segment(s), then every page
    table.  {!attach_injector} registers these with the fault injector
    so descriptor corruption aims where it can do protection damage. *)

val attach_injector : Isa.Machine.t -> Hw.Inject.plan -> t list -> Hw.Inject.t
(** A fresh injector for [plan] with every listed process's
    {!descriptor_ranges} registered, attached to [m] — the machine the
    processes share.  Attach once the processes are built, so every
    descriptor region exists and plan cycle offsets count from the
    start of execution. *)

val handle_page_fault :
  t -> segno:int -> pageno:int -> (unit, string) result
(** Demand paging: allocate a frame (evicting the oldest resident page
    to its backing image when the pool is empty), fill it from the
    backing store, and mark the PTW present.  Charged the
    {!Costs.page_transfer} cost per page moved. *)
