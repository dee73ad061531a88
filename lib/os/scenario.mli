(** Ready-made workloads exercising the ring mechanisms.

    Each builder returns a booted {!Process.t} whose program ends with
    the exit service call, so [Kernel.run] yields [Exited] on success.
    The same scenarios run under hardware rings and under the 645
    software baseline — the object code is identical, which is itself
    one of the paper's claims — making them the common substrate for
    the tests, the C1/C2 benches and the examples. *)

type config = {
  mode : Isa.Machine.mode;
  stack_rule : Rings.Stack_rule.t;
  gate_on_same_ring : bool;
  use_r1_in_indirection : bool;
  paged : bool;  (** Demand-page the user segments. *)
  frame_pool : int;  (** Page frames available when [paged]. *)
}

val default_config : config
(** Hardware rings, [Segno_equals_ring], the paper's rules. *)

val software_config : config
(** The 645 baseline. *)

val capability_config : config
(** The capability-machine backend ({!Isa.Machine.Ring_capability}). *)

val caller_source :
  ?arg_symbol:string ->
  callee_link:string ->
  iterations:int ->
  unit ->
  string
(** A procedure that performs [iterations] calls to [callee_link]
    (an external reference like ["gate$entry"]) using the {!Calling}
    convention, then exits.  With [arg_symbol] (e.g. ["data$word0"])
    each call passes that word as a single by-reference argument;
    otherwise the argument list is empty. *)

val callee_source : ?touch_argument:bool -> unit -> string
(** A gated service procedure: standard prologue, loads 42 into A
    (and, with [touch_argument], adds one to its first argument
    through the argument list), standard epilogue. *)

val crossing_sources :
  caller_ring:int ->
  callee_ring:int ->
  ?callable_from:int ->
  ?with_argument:bool ->
  int ->
  (string * Acl.entry list * string) list
(** [crossing_sources ~caller_ring ~callee_ring iterations] is the
    [(segment, acl, source)] list {!crossing} builds its process from:
    ["caller"] and the gated ["service"], plus — [with_argument] — the
    ["data"] segment holding the argument word.  Every ACL grants all
    users.  Exposed so a caller that feeds its own store (a serving
    shard) runs exactly these programs. *)

val crossing :
  ?config:config ->
  ?caller_ring:int ->
  ?callee_ring:int ->
  ?callable_from:int ->
  ?iterations:int ->
  ?with_argument:bool ->
  unit ->
  (Process.t, string) result
(** The canonical crossing workload: a caller in [caller_ring]
    (default 4) repeatedly calls a gated service in [callee_ring]
    (default 1, i.e. a downward call; choose a callee ring above the
    caller for an upward call).  [callable_from] defaults to the
    maximum of the two rings.  The callee leaves 42 in A. *)

val crossing_with_args :
  ?config:config ->
  ?caller_ring:int ->
  ?callee_ring:int ->
  arg_count:int ->
  iterations:int ->
  unit ->
  (Process.t, string) result
(** Like {!crossing}, but each call passes [arg_count] by-reference
    arguments (a static argument list in a caller-ring data segment).
    The callee does not touch them — what this workload isolates is
    the {e per-argument validation} cost: free under the effective-ring
    hardware, charged per pointer by the 645 gatekeeper. *)

val same_ring_pair :
  ?config:config -> ?ring:int -> ?iterations:int -> unit ->
  (Process.t, string) result
(** Caller and callee in the same ring, callee still entered through
    its gate — the baseline cost a crossing is compared against. *)
