(** The multi-tenant arena: thousands of untrusted guest programs in
    outer rings, metered and mutually isolated.

    The paper's thesis is that hardware-checked rings let {e mutually
    suspicious} procedures share one machine safely.  The arena stages
    that claim at consumer scale: [N] tenant programs — honest
    computations, legitimate ring-crossing services, and seeded
    adversaries (gate squeezers, argument-chain ring maximizers, stack
    bracket forgers, self-modifying cache probes, quota spinners) —
    run under per-tenant quotas for cycles, memory words, faults and
    channel operations.  Every slice is billed to the tenant that
    owned the processor: each tenant's bill is one {!Trace.Counters.t},
    charged in place ({!Trace.Counters.accrue}) with what the
    machine's counters moved during the slice, and each spawned entry
    is paired with its tenant and bill once, so a slice finds its bill
    by the entry's identity.  A breach resolves to the PR-3 quarantine
    path ({!System.quarantine}) for that tenant alone, never to a
    whole-machine abort.

    After every quarantine and at the end of each wave, the SDW
    auditor ({!Chaos.check_invariants}) and the cross-tenant region
    auditor ({!Chaos.check_cross_tenant}) must find the protection
    state intact — a standing zero-leak gate over the whole campaign.

    A machine's memory holds {!wave_capacity} process regions, so a
    campaign runs in waves of at most that many tenants, each wave on
    its own store and a machine in its freshly created state: a worker
    builds one wave system and {!System.reset}s it between waves, which
    clears only what the last wave touched and keeps its memory pages
    for the next.  Wave composition is a pure function of the tenant
    list and each wave is self-contained, so waves may run sequentially
    or spread across domains ({!Serve.Tenants} does the latter) and the
    assembled report is byte-identical either way. *)

type quota = {
  cycles : int;
      (** Modeled-cycle allowance; a tenant billed [>= cycles] is
          quarantined — mid-slice, via {!Isa.Machine.t.cycle_limit},
          so a spinner cannot hide inside a long quantum. *)
  mem : int;
      (** Maximum virtual-memory words (sum of loaded segment bounds);
          checked at admission and after every slice. *)
  faults : int;
      (** Maximum billed faults (access violations + page faults +
          injected-fault recoveries); exceeding it quarantines. *)
  io : int;  (** Maximum channel operations (SIOC/SIOT connects). *)
}

val default_quota : quota
(** [{ cycles = 20_000; mem = 4_096; faults = 8; io = 64 }]. *)

type tenant = {
  id : int;  (** Global tenant index; determines wave placement. *)
  name : string;
  kind : string;  (** Generator label, e.g. ["gate-squeeze"]. *)
  adversarial : bool;
  ring : int;  (** Ring of execution — outer rings for guests. *)
  paged : bool;  (** Demand-page the tenant's own segments. *)
  start : string * string;  (** [(segment, entry symbol)]. *)
  segments : (string * Acl.entry list * string) list;
      (** [(name, acl, source)] — added to the wave's store, then to
          the tenant's virtual memory in order. *)
}

val wave_capacity : int
(** Tenants per machine: 8, one per {!System.region_words} region. *)

val waves : tenant list -> (int * tenant list) list
(** Partition tenants (sorted by [id]) into waves of at most
    {!wave_capacity}; pure, so every shard computes the same layout. *)

type bill = {
  tenant : int;
  name : string;
  kind : string;
  adversarial : bool;
  ring : int;
  mem_words : int;  (** Loaded virtual-memory words at wave end. *)
  usage : Trace.Counters.snapshot;
      (** Everything billed to this tenant: the sum over its slices of
          the whole-machine counter deltas while it held the
          processor (including kernel service performed on its
          behalf).  Idle quanta bill nobody. *)
  faults : int;
      (** What counted against the fault quota: access violations,
          page faults and recovered injected faults. *)
  exit : string;  (** {!Kernel.pp_exit} text. *)
  verdict : string;
      (** ["ok"], ["contained"], ["quarantined: <resource> quota"],
          ["quarantined: fault budget"], ["over budget"] or
          ["stuck"]. *)
}

type wave_result = {
  wave : int;
  bills : bill list;  (** In tenant-id order. *)
  violations : string list;
      (** Auditor findings; empty is the security gate passing. *)
  audits : int;  (** Auditor invocations for this wave. *)
}

val run_wave :
  ?sys:System.t ->
  ?mode:Isa.Machine.mode ->
  ?quantum:int ->
  ?inject:Hw.Inject.plan ->
  quota:quota ->
  wave:int ->
  tenant list ->
  wave_result
(** Run one wave (at most {!wave_capacity} tenants) on a fresh store.
    With [sys] the wave runs on that system, {!System.reset} onto the
    new store first, so a caller running many waves reuses one
    machine; without it a new system is created.  Both start from the
    same state, so the result is the same.  [mode] selects the
    protection backend of a created system (default
    {!Isa.Machine.Ring_hardware}; under {!Isa.Machine.Ring_capability}
    the cross-tenant auditor additionally re-checks isolation in
    capability terms); raises [Invalid_argument] if it differs from
    [sys]'s.  Admission checks the memory quota before the first
    slice; {!System.run}'s [before_slice] hook arms the machine's
    cycle ceiling at the tenant's remaining allowance and
    [after_slice] bills the slice and resolves breaches.  With
    [inject], an injector under [plan.seed + wave * 7919] is attached
    and the auditors also run after every recovery decision.
    Deterministic: same inputs, same result, on any domain. *)

type report = {
  tenants : int;
  seed : int;
  quota : quota;
  waves : int;
  bills : bill list;  (** In tenant-id order across all waves. *)
  exits : (string * int) list;
      (** {!Kernel.pp_exit} text -> occurrences, sorted. *)
  completed : int;  (** Verdict ["ok"]. *)
  contained : int;  (** Faulted and terminated by ring hardware. *)
  quarantined : int;  (** Quota breaches and fault-budget exhaustion. *)
  audits : int;
  violations : string list;
}

val assemble : seed:int -> quota:quota -> wave_result list -> report
(** Merge wave results (sorted by wave index, so arrival order —
    e.g. from racing domains — cannot perturb the report). *)

val pp_report : Format.formatter -> report -> unit
(** One summary line plus one line per violation. *)

val print_table : report -> unit
(** Per-tenant billing table when the campaign is small (<= 32
    tenants), per-kind aggregate otherwise. *)

val report_json : report -> string
(** Deterministic JSON: campaign parameters, verdict counts, exit
    histogram, violations, and the full per-tenant billing array. *)
