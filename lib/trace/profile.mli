(** Per-ring and per-segment modeled-cycle and instruction accounting.

    When enabled, the CPU attributes each retired instruction's cycle
    delta (including any trap-entry cost it incurred) to the ring and
    segment it was fetched from, and the OS substrate attributes
    host-side fault handling — the gatekeeper — to a separate kernel
    bucket.  Everything here is modeled cycles: deterministic and
    host-independent, so profiles diff cleanly across runs. *)

type t

val create : rings:int -> unit -> t
(** [rings] buckets (ring numbers [0 .. rings-1]). *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Created disabled; the disabled path is one bool test per
    instruction. *)

val attribute :
  t -> ring:int -> segno:int -> cycles:int -> instructions:int -> unit
(** Charge [cycles] and [instructions] (0 when the step faulted before
    retiring) to the ring and segment buckets. *)

val attribute_kernel : t -> cycles:int -> unit
(** Gatekeeper/supervisor work performed outside any simulated
    instruction (host-side fault handling). *)

val per_ring : t -> (int * int * int) list
(** [(ring, cycles, instructions)] for each ring with activity,
    ascending by ring. *)

val per_segment : t -> (int * int * int) list
(** [(segno, cycles, instructions)], ascending by segment number. *)

val kernel_cycles : t -> int

val total_cycles : t -> int
(** Sum of all ring buckets plus the kernel bucket. *)

val clear : t -> unit

val reset : t -> unit
(** {!clear}, and disable: the profile {!create} builds. *)

val merge_into : dst:t -> t -> unit
(** [merge_into ~dst src] adds [src]'s ring, segment and kernel
    buckets into [dst] pointwise (aggregating per-shard profiles into
    one fleet profile; commutative, so shard order does not matter).
    [src] is unchanged.  Raises [Invalid_argument] if the ring counts
    differ. *)

val dump : t -> int array * int array * (int * int * int) list * int
(** Checkpoint support: [(ring_cycles, ring_instructions,
    per_segment, kernel_cycles)] with segments ascending by number. *)

val restore : t -> int array * int array * (int * int * int) list * int -> unit
(** Inverse of {!dump}; raises [Invalid_argument] if the ring arrays
    are the wrong size for this profile. *)
