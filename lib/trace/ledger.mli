(** Per-tenant counter attribution for the multi-tenant arena.

    The machine has one {!Counters.t}; the arena multiplexes many
    tenants over it.  The dispatcher marks the counters when each
    tenant's slice starts and charges what they moved when it ends, so
    every cycle, fault and channel operation the machine counted is
    attributed to exactly one tenant.  A bill is a sum of those moves,
    so it does not depend on slice interleaving or on how waves were
    spread over domains. *)

type t

val create : unit -> t

val start : t -> Counters.t -> unit
(** [start t c] marks [c]'s values where a slice begins. *)

val charge : t -> tenant:int -> Counters.t -> unit
(** [charge t ~tenant c] adds what [c] moved since the last {!start}
    to the tenant's bill, in place. *)

val bill : t -> tenant:int -> Counters.t
(** The tenant's bill so far, one value per counter; all-zero for a
    tenant never charged.  It is the ledger's own table: read it, do
    not count into it. *)
