(** A bounded associative memory with least-recently-used replacement.

    This is the host-side model of the paper's hardware associative
    memory: a small, fully associative store consulted on every
    reference, with O(1) lookup, insert and eviction.  The simulator
    uses three instances — SDWs, page-table words and decoded
    instructions — to avoid re-walking core and re-decoding words on
    the host.  Instances memoize work for the {e host}; they must
    never change the modeled cycle accounting, which is charged by the
    machine's separate modeled tag store (see {!Isa.Machine}).

    Each instance keeps its own hit/miss/eviction/invalidation
    counters so cache effectiveness is observable. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** Entries displaced by capacity pressure. *)
  invalidations : int;  (** Entries dropped by [remove]/[drop_where]/[clear]. *)
}

val create : capacity:int -> unit -> ('k, 'v) t
(** [create ~capacity ()] is an empty cache holding at most [capacity]
    entries.  [capacity 0] is a legal degenerate instance — caching
    disabled: every {!find} misses and every {!insert} immediately
    "evicts" the inserted pair — so callers can tune capacity down to
    nothing without a special case.  Raises [Invalid_argument] if
    [capacity < 0]. *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v
(** [find t k] returns the cached value and marks [k] most recently
    used; raises [Not_found] on a miss.  Counts a hit or a miss, and
    allocates nothing either way. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Presence test without touching recency or the hit/miss counters. *)

val insert : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** [insert t k v] binds [k] to [v] as most recently used, replacing
    any previous binding of [k].  When the cache is full the
    least-recently-used entry is evicted and returned (and counted),
    so the caller can release anything keyed off it.  At capacity 0
    the inserted pair itself comes straight back as the eviction. *)

val remove : ('k, 'v) t -> 'k -> bool
(** [remove t k] drops [k]'s entry if present; returns whether one was
    dropped (counted as an invalidation). *)

val drop_where : ('k, 'v) t -> ('k -> 'v -> bool) -> int
(** [drop_where t f] drops every entry satisfying [f], returning how
    many were dropped (each counted as an invalidation).  O(n). *)

val clear : ('k, 'v) t -> unit
(** Drop everything (counted as invalidations).  Counters survive. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a

val stats : ('k, 'v) t -> stats

val reset_stats : ('k, 'v) t -> unit
