(** Security-under-fault campaigns.

    The paper's central claim is that ring protection is enforced by
    hardware on {e every} reference, leaving no software path that a
    transient malfunction can widen.  This harness probes the
    corresponding property of the simulator and its supervisor: under
    a deterministic barrage of injected faults ({!Hw.Inject}), the
    kernel's recovery actions — scrub, retry, quarantine, degrade —
    must never leave the system in a state where some process holds
    more access than its ACLs granted.

    A campaign builds a fresh multiprogrammed {!System} (a ring-4
    caller crossing into a ring-1 gated service, a pure-computation
    worker, and a polling channel reader), attaches an injector
    derived from the base plan and the campaign index, and runs it to
    completion.  After {e every} recovery decision (via
    {!Isa.Machine.t.on_recovery}) and once more at the end, the
    invariant checker audits the machine:

    - every in-memory SDW equals the SDW the kernel's authoritative
      tables ([ring_data] + placement) would install — corruption of
      descriptor words must never survive recovery;
    - the eight standard stack segments keep read and write brackets
      ending at their owning ring;
    - every live process's saved instruction pointer sits inside the
      execute bracket of the segment it addresses;
    - at campaign end, the injector's poison table is empty (all
      damage was scrubbed) and every exit is a documented
      {!Kernel.exit}.

    Campaigns are deterministic: the same plan and count produce a
    byte-identical report. *)

type violation = { campaign : int; detail : string }

type report = {
  campaigns : int;
  seed : int;  (** The base plan's seed. *)
  exits : (string * int) list;
      (** Exit description ({!Kernel.pp_exit}) -> occurrences, sorted
          by description. *)
  injected : int;
  retried : int;
  recovered : int;
  quarantined : int;
  degraded : int;  (** Campaigns that dropped to uncached operation. *)
  violations : violation list;
  recovery_latency : Trace.Histogram.t;
      (** Fault delivery to recovery decision, modeled cycles, merged
          across campaigns. *)
}

val check_invariants : campaign:int -> System.t -> string list
(** Audit every process of the system as described above; each
    returned string describes one invariant breach.  Empty means the
    protection state is intact. *)

val check_cross_tenant : System.t -> string list
(** Arena isolation audit: every word a process's address translation
    can reach (direct segments, descriptor segments, page tables)
    must lie inside the memory region it was assigned at spawn, so no
    tenant's SDWs can name another tenant's memory.  Under the
    capability backend the same claim is re-checked in capability
    terms: every {e tagged} (still-live) descriptor word is re-derived
    into the capability it decodes to, whose [base, base+bound) region
    must stay inside the tenant's own.  Segments mapped in from their
    owner ({!Process.t.mapped}: a [?shared] spawn or {!System.share})
    name the owner's words by design and are exempt; arena tenants
    never share. *)

val run_campaigns :
  ?mode:Isa.Machine.mode ->
  ?campaigns:int ->
  ?quantum:int ->
  Hw.Inject.plan ->
  report
(** Run [campaigns] (default 10) independent campaigns under plans
    derived from the given base plan (campaign [i] uses seed
    [seed + i * 7919]); [quantum] (default 40) is the dispatcher's
    time slice.  [mode] selects the protection backend of the systems
    built (default {!Isa.Machine.Ring_hardware}) — under
    {!Isa.Machine.Ring_capability}, descriptor damage surfaces as
    {!Rings.Fault.Cap_tag_violation} and recovery runs the kernel's
    re-tag path, so per-backend recovery latencies are comparable. *)

val pp_report : Format.formatter -> report -> unit

val report_json : report -> string
(** The report as a JSON object, deterministically serialized. *)
