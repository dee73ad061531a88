(** Absolute (physical) memory.

    36-bit words addressed by absolute address, held in pages of
    {!page_words} words.  Every page starts out as one all-zero page
    shared by every memory and never written; the first store to a
    page gives it a page of its own.  So a memory costs what its
    machine touches: building one allocates a slot per page, not a word
    per word, and the untouched pages of a 2^21-word machine cost
    nothing.  None of this is visible through the interface — the
    paging here is host storage, not the simulated processor's paging.
    Accesses made on behalf of the simulated processor go through
    {!read} and {!write}, which charge one cycle each and bump the
    memory counters; the loader and the inspection tools use the
    [_silent] variants, which model no hardware activity.

    Addressing outside physical memory raises [Invalid_argument]: it
    indicates a simulator configuration error, not a condition the
    simulated hardware can reach (segment bounds are checked during
    address translation before any absolute access). *)

type t

val create : ?size:int -> Trace.Counters.t -> t
(** An all-zero memory of [size] words (default 2^21).  Costs one
    slot per page: no page is allocated until it is first stored to.
    Raises [Invalid_argument] on a negative [size]. *)

val size : t -> int
val counters : t -> Trace.Counters.t

val set_write_observer : t -> (int -> unit) -> unit
(** [set_write_observer t f] arranges for [f addr] to run after every
    store into [t] — {!write} and {!write_silent} alike — so caches
    layered above memory (SDW, page-table and decoded-instruction
    associative memories) can invalidate entries that depend on the
    written word.  One observer at a time; the machine that owns the
    memory installs it.  The observer must not write to [t]. *)

val read : t -> int -> Word.t
val write : t -> int -> Word.t -> unit

val read_silent : t -> int -> Word.t
val write_silent : t -> int -> Word.t -> unit

val blit_silent : t -> int -> Word.t array -> unit
(** [blit_silent mem addr words] copies [words] to consecutive
    absolute addresses starting at [addr]. *)

val iter_nonzero : t -> addr:int -> len:int -> (int -> Word.t -> unit) -> unit
(** [iter_nonzero t ~addr ~len f] calls [f i w] for each nonzero word
    [w] at [addr + i], [0 <= i < len], in address order — silently,
    like {!read_silent}.  Pages never stored to are skipped unread.
    The snapshot writer's page scan. *)

(** {1 Dirty-page tracking}

    Each page carries a stamp: the dirty generation of its last store,
    or none if nothing was ever stored there.  Every store — {!write},
    {!write_silent}, {!blit_silent}, and everything layered on them
    (the injector's poison writes, fault frames, journal replay,
    snapshot application) — stamps the written page with the current
    generation, in one array store.  Two page sets follow:

    - a page is {e dirty} when its stamp is the current generation.
      The snapshot layer moves the generation at capture points, so
      between two captures the dirty set is a conservative superset
      of the pages whose contents changed: incremental captures need
      only serialize those;
    - a page is {e written} when it has a stamp at all.  A page outside
      the written set is still all zero from {!create} (or {!reset}),
      so a full capture and an apply over a foreign image need only
      visit the written pages.  Only {!reset}, which zeroes them,
      shrinks the written set.

    Nothing in the simulated machine reads the stamps; they cannot
    affect modeled cycles. *)

val page_words : int
(** Words per page (a power of two): the unit of storage, of dirty
    tracking and of the tag store's page flags. *)

val page_shift : int
(** [page_words = 1 lsl page_shift]: the page of address [a] is
    [a lsr page_shift]. *)

val set_page : t -> int -> int array -> int -> unit
(** [set_page t p pairs n] makes page [p] hold exactly [n] listed
    words and zero everywhere else: word [pairs.(2i+1)] at offset
    [pairs.(2i)] of the page, for [i < n].  Offsets must ascend; one
    outside the page raises [Invalid_argument].  Only the words that
    differ are stored, through {!write_silent} in ascending address
    order, so the page stamps, the tags and the write observer see
    exactly those stores.  The snapshot apply's memory pass, one call
    per page it rewrites. *)

val dirty_pages : t -> int list
(** Page numbers marked dirty since the last {!clear_dirty}, in
    ascending order.  Page [p] covers absolute addresses
    [p * page_words .. min ((p+1) * page_words, size) - 1]. *)

val written_pages : t -> int list
(** Page numbers stored to at least once since {!create} or the last
    {!reset}, in ascending order — a superset of the pages holding a
    nonzero word, and of {!dirty_pages}.  {!clear_dirty} leaves it
    alone. *)

val clear_dirty : t -> unit
(** Advance {!dirty_generation}, which empties the dirty set in O(1).
    Only capture points may call this: clearing anywhere else breaks
    the superset invariant the incremental snapshot relies on. *)

val dirty_generation : t -> int
(** Number of {!clear_dirty} calls so far — stamps which capture epoch
    a dirty set belongs to. *)

val reset : t -> unit
(** Return [t] to its state at {!create}: zero every written page and
    unstamp it, set the generation back to 0, drop the anchor and untag
    every word (an enabled tag store stays allocated).  Costs one pass
    over the page stamps plus the written pages and the pages holding
    tags — not the whole memory.  The zeroed pages stay allocated, so
    the next run's stores into them allocate nothing.  Counters and
    the write observer are left alone, and the observer does not run
    for the zeroed words: the machine that owns caches over this
    memory resets them itself. *)

(** {2 The anchor}

    One (payload checksum, generation) pair, kept for the snapshot
    layer.  It states: memory equalled the image with that checksum
    when the anchor was set, and every page changed since then is
    dirty.  Because every store stamps its page, the second half keeps
    holding by itself until the next {!clear_dirty}; that call ends
    the anchor.  While the anchor holds, rewinding memory to its image
    needs to touch only the dirty pages. *)

val set_anchor : t -> int -> unit
(** [set_anchor t sum] records that memory equals, right now, the
    image whose payload checksum is [sum].  Callers set it at capture
    points (after {!clear_dirty}) and after an apply whose memory pass
    completed. *)

val anchored : t -> int -> bool
(** [anchored t sum] is [true] when the anchor names [sum] and no
    {!clear_dirty} has run since it was set. *)

(** {1 Validity tags}

    One tag bit per word — the capability backend's tag store.  The
    store is lazily allocated: until {!enable_tags} runs, every
    operation below is a single length test and the write path carries
    no extra work, so the hardware and 645 machines are untouched.
    When enabled, {b every} store clears the written word's tag (a
    forged descriptor is just data); only {!set_tag} — the kernel
    installing a capability — sets one. *)

val enable_tags : t -> unit
(** Allocate the tag store (all words untagged).  Idempotent. *)

val tags_enabled : t -> bool

val set_tag : t -> int -> unit
(** Mark a word as holding a valid capability.  Raises
    [Invalid_argument] when the tag store is not enabled: only the
    capability machine may mint tags. *)

val clear_tag : t -> int -> unit
(** Explicitly untag a word.  No-op when tags are disabled. *)

val tagged : t -> int -> bool
(** [false] whenever tags are disabled. *)

val tagged_addrs : t -> int list
(** Absolute addresses of all tagged words, ascending — what the
    snapshot codec serializes.  {!set_tag} flags the page of every word
    it tags, and only flagged pages are scanned. *)

val clear_tags : t -> unit
(** Untag every word (snapshot restore resets then re-applies).
    Visits only the pages {!set_tag} flagged, and unflags them. *)
