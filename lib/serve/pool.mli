(** One parallel map over self-contained work items.

    The serving dispatcher and the arena both fan out work whose result
    does not depend on where it runs (a request rewinds its machine to
    the sealed class image; an arena wave starts on its worker's wave
    system, reset to its freshly created state), so all either needs
    from the host is "run these, in parallel, and give the results
    back in order".  Which worker ran which item changes wall-clock
    time only. *)

val map : workers:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** [map ~workers f items] is [List.mapi]-shaped: it applies [f w x]
    to every item exactly once and returns the results in input order.
    [min workers (List.length items)] workers claim items through one
    atomic cursor; worker [w] (in [\[0, workers)]) is the calling
    domain for [w = 0] and a freshly spawned domain otherwise, so
    [workers = 1] runs inline and [f] may keep per-worker state indexed
    by [w].  If [f] raises, no further items are claimed, every spawned
    domain is joined, and then the first exception is re-raised.
    Raises [Invalid_argument] when [workers < 1]. *)
