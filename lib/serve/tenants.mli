(** Seeded tenant-program generation for the multi-tenant arena, and
    the domain-parallel campaign runner.

    A population is a pure function of [(profile, seed, tenants)]:
    the same stream on any host, the first link in the arena's
    byte-identical-report contract.  The [standard] profile is mostly
    honest compute and ring-crossing programs with a steady trickle of
    adversaries — gate squeezers (linked past the gate list),
    argument-chain ring maximizers, stack-bracket forgers (absolute
    ITS into an inner ring's stack), self-modifying cache probes,
    quota spinners and admission-time memory hogs — plus two honest
    stressors: [io-heavy] (ring-0 channel traffic keeping a transfer
    in flight) and [paging-heavy] (demand-paged sweeps of a
    three-page data segment).  The [cooperative] profile draws honest
    kinds only — the bench's degradation baseline. *)

val profiles : string list
(** [["standard"; "cooperative"]]. *)

val validate :
  ?profile:string ->
  ?tenants:int ->
  ?shards:int ->
  ?quota:Os.Arena.quota ->
  unit ->
  (unit, string) result
(** The arena's checks on whichever arguments are given: an unknown
    [profile], [tenants] or [shards] below 1, a quota whose cycles or
    memory are below 1 or whose faults or channel operations are
    negative.  The error is the message [ringsim arena] prints for the
    flag (["--tenants must be at least 1"]). *)

val generate :
  ?profile:string ->
  seed:int ->
  tenants:int ->
  unit ->
  Os.Arena.tenant list
(** Deterministic population with ids [0 .. tenants-1].  A [standard]
    draw that happens to contain no quota spinner has its last tenant
    drafted as one, so every standard campaign exercises the
    quarantine path.  Raises [Invalid_argument] with {!validate}'s
    message on an unknown profile or a nonpositive count. *)

val run_sharded :
  ?mode:Isa.Machine.mode ->
  ?quantum:int ->
  ?inject:Hw.Inject.plan ->
  ?quota:Os.Arena.quota ->
  shards:int ->
  seed:int ->
  Os.Arena.tenant list ->
  Os.Arena.report
(** Run the campaign's waves through {!Pool.map} on [shards] workers
    ([shards = 1] stays on the calling domain) and assemble.  Each
    worker builds one wave system on its first wave and resets it
    ({!Os.System.reset}) for every later one; the systems live only
    for this call.  Waves are self-contained, so the report is
    byte-identical to the sequential run regardless of [shards].
    [mode] selects each wave's protection backend
    ({!Os.Arena.run_wave}).  Raises
    [Invalid_argument] with {!validate}'s message on a bad [shards] or
    [quota]. *)
