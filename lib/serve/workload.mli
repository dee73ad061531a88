(** Seeded deterministic request generation for the serving fleet.

    The paper's rings exist so one machine can safely multiplex
    mutually suspicious users; a serving fleet multiplies that machine.
    A workload here is the stream such a fleet would face: each request
    names a program from the shard catalog ({!Shard.programs} — the
    same crossing/gate scenarios the benches and examples run) plus its
    argument (the iteration count), and carries an arrival stamp on a
    {e virtual} clock measured in modeled cycles.  Generation is a pure
    function of [(mix, seed, requests)]: the same triple yields the
    same stream on any host, which is the first link in the fleet's
    determinism contract (see docs/SCALING.md). *)

type request = {
  id : int;  (** Position in the stream, from 0. *)
  program : string;  (** Catalog program name ({!Shard.programs}). *)
  iterations : int;  (** The request's argument: units of service work. *)
  arrival : int;  (** Virtual arrival time, in modeled cycles. *)
}

type mix = {
  mix_name : string;
  entries : (string * int * int) list;
      (** [(program, iterations, weight)] — each request draws one
          entry with probability proportional to its weight. *)
  mean_gap : int;
      (** Mean virtual-cycle gap between consecutive arrivals; actual
          gaps are drawn uniformly from [1 .. 2*mean_gap]. *)
}

val standard_mix : mix
(** The default serving mix: hardware and 645 crossings, same-ring
    calls, an outward (upward) call, an argument-passing crossing and
    a demand-paged crossing, in bench-like proportions. *)

val mixes : (string * mix) list
(** Every named mix: [standard], [crossing] (ring-crossing flavours
    only), [uniform] (every program, equal weight). *)

val find_mix : string -> (mix, string) result
(** Look a mix up by name; the error lists the valid names. *)

val generate : mix:mix -> seed:int -> requests:int -> request list
(** [generate ~mix ~seed ~requests] is the deterministic request
    stream: an xorshift64* generator seeded with [seed] draws each
    request's program and the virtual gap to the next arrival.
    Arrivals are strictly increasing.  Raises [Invalid_argument] on a
    mix with no entries or nonpositive weights. *)

val mix_seed : int -> int
(** The generator state for a seed: never zero, so the stream never
    sticks. *)

val next : int ref -> int
(** Advance an xorshift64* state and return a nonnegative draw.  The
    arena's tenant generator ({!Tenants}) draws from the same
    stream. *)

val classes : request list -> (string * int) list
(** The distinct [(program, iterations)] service classes a stream
    touches, sorted — what a shard will need boot images for. *)

val pp_request : Format.formatter -> request -> unit
