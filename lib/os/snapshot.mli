(** Checkpoint/restore: the whole machine in one deterministic image.

    A snapshot serializes everything that can influence a future
    instruction, counter, trace event or device transfer: memory (with
    the injector's poison table), the register file, every process's
    kernel tables and crossing stacks, the scheduler's queue and
    budgets, the fault-injection plan state, and the full observability
    surface (counters, event log, spans, profile).  Host-side caches
    are {e not} serialized: {!capture} quiesces them
    ({!Isa.Machine.quiesce}) and {!restore} rebuilds the same cold
    state, so a run resumed from a checkpoint and the uninterrupted
    run that wrote it continue from identical footing and export
    byte-identical counters, traces and device output.

    Images are versioned (format {!version}) and checksummed (FNV-1a
    64 over the payload).  A full image (magic ["RINGSNAP"]) and a
    delta (magic ["RINGDELT"]) share one payload layout — a full image
    is a delta whose predecessor is the all-zero machine:

    {v
    payload = base_sum | pre_len | pre | mem_size | npages | page* | post
    page    = pageno | len | nnz | nnz × (offset | word)
    v}

    where [base_sum] is the predecessor's payload checksum (0 in a
    full image), [pre] carries the counters and processor state,
    [post] the rest of the machine, the trace surface and the
    scheduler, and a page record is its page's whole content.  A full
    image lists every page holding a nonzero word, a delta every page
    dirtied since its predecessor.

    Neither direction walks the whole memory: a full capture reads
    only the pages ever written ({!Hw.Memory.written_pages}), a delta
    only the dirty ones, and an apply zeroes only the pages that can
    differ from the image (see {!warm_boot}).

    {!restore} refuses anything it cannot prove whole: bad magic,
    other versions, truncation, checksum failure, structural
    corruption (including a count or length the payload cannot hold),
    an image that does not match the respawned system's shape, an
    image whose restored state fails the kernel-table audit, or one
    that does not re-capture to the same bytes. *)

type error =
  | Bad_magic  (** Not a snapshot image at all. *)
  | Bad_version of { expected : int; got : int }
      (** The format version differs; images are not cross-version. *)
  | Truncated  (** Shorter than its header claims. *)
  | Checksum_mismatch  (** Payload bytes were damaged. *)
  | Corrupt of string
      (** Checksum passes but the structure does not decode (bad tag,
          negative length, unconsumed bytes, ...). *)
  | Shape_mismatch of string
      (** The image is whole but describes a different system than the
          one respawned for it: different program, mode, memory size,
          process set or injector wiring. *)
  | Audit_rejected of string list
      (** The restored state failed the kernel-table audit
          ({!Chaos.check_invariants}): some SDW no longer matches the
          access the kernel granted, or a crossing stack is damaged —
          a tampered-but-well-checksummed image lands here. *)
  | Self_check_failed
      (** The restored state did not re-capture to the input bytes —
          a codec defect, never a user error. *)
  | Stale_base
      (** The first delta of a chain does not reference the base image
          it was handed — the caller mixed images from different
          capture chains, or the base was re-captured since. *)
  | Broken_chain of int
      (** Delta [i] (0-based) does not reference its predecessor in
          the list: a link is missing, reordered, or from another
          chain. *)

val pp_error : Format.formatter -> error -> unit

val version : int
(** Current image format version. *)

val capture : System.t -> string
(** Serialize the complete system state.  Bumps the
    [snapshots_written] counter {e before} serializing (so the image
    carries its own capture) and quiesces the machine's host caches —
    the live run continues from the same cold-cache state a restored
    run starts in, which is what makes kill-and-resume byte-identical.
    If serialization fails, the bump is rolled back before the
    exception propagates: a failed capture never inflates the
    counter. *)

(** {1 Incremental capture}

    A chain is a full base image followed by deltas that list only the
    memory pages dirtied since the previous image (via
    {!Hw.Memory.dirty_pages}) plus the complete — and small —
    non-memory state.  Every image references its predecessor by
    payload checksum, and {!flatten} folds the chain's page maps back
    into a full image that is {e byte-identical} to what {!capture}
    would have produced at the last delta's capture point, so restore
    semantics are exactly full-capture semantics.  Every public capture — full
    or delta — is a capture point that clears the dirty map and moves
    its generation, so a chain straddling a full {!capture} (or
    another chain's captures) notices at its next {!capture_delta}
    and refuses with [Invalid_argument] rather than emit a delta that
    silently misses pages. *)

type chain
(** Host-side chain state: the predecessor's payload checksum and the
    dirty-map generation it was captured at.  Not serialized — a chain
    lives and dies with the process that started it. *)

val start_chain : System.t -> chain * string
(** Capture a full base image ({!capture} semantics, including the
    counter bump), clear the dirty map, and open a chain on it. *)

val capture_delta : System.t -> chain -> string
(** Capture a delta over the chain's newest image: only pages dirtied
    since then are serialized.  Bumps [snapshots_written] like
    {!capture} (rolled back if the capture fails), quiesces, clears
    the dirty map and advances the chain.  Raises [Invalid_argument]
    if the dirty map was cleared outside this chain — the delta would
    silently miss pages. *)

val chain_length : chain -> int
(** Deltas captured on this chain so far. *)

val rebase : chain -> base:string -> (unit, error) result
(** [rebase chain ~base] re-anchors the chain on a full image —
    normally the {!flatten} of everything captured so far — after a
    garbage-collection pass has replaced the on-disk base and deleted
    the folded deltas.  The next {!capture_delta} then links to
    [base]'s payload, and {!chain_length} restarts at 0.  No capture
    happens and the dirty map is untouched, so the chain keeps
    accumulating from exactly where it was.  The image is validated
    (magic, version, checksum, memory size) before the chain is
    touched; on [Error] the chain is unchanged. *)

val flatten : base:string -> string list -> (string, error) result
(** [flatten ~base deltas] folds a base image and its deltas (oldest
    first) into one full image, byte-identical to a {!capture} at the
    last delta's capture point.  [flatten ~base []] re-seals the base
    unchanged.  Refuses a first delta that does not reference [base]
    with [Stale_base], a later delta that does not reference its
    predecessor with [Broken_chain], and anything damaged with the
    same layered errors as {!restore}. *)

val restore_chain : System.t -> base:string -> string list -> (unit, error) result
(** [restore_chain sys ~base deltas] = {!flatten} then {!restore}:
    full validation, self-check and audit included. *)

val warm_boot : System.t -> string -> (unit, error) result
(** Trusted fast restore for images captured by this same process —
    the serving fleet's per-request rewind.  The full state is
    applied, but the two layers that defend against on-disk damage
    ({!restore}'s re-capture self-check and kernel-table audit) are
    skipped, and the [restores] counter is left exactly as the image
    recorded it, so a rewound machine's counters are byte-identical to
    the boot state and per-request deltas compare cleanly.  Never pass
    an image from outside this process here — use {!restore} for
    those.

    The checks on the image's bytes follow one trust rule.  A system
    remembers the one full image whose apply last completed on it
    ({!System.last_applied}), by physical identity.  A warm boot to
    that very string skips only the checks the earlier apply already
    ran on it: the payload checksum, and the page records of the pages
    still clean under the {!Hw.Memory} anchor, which the memory pass
    steps over by their length.  That is sound because OCaml strings
    are immutable, so the same bytes pass the same checks, and because
    a clean page still holds its record.  The rest of the payload is
    decoded and checked as always, including every shape check
    against the live system.  Any other string is checked in full: a
    byte-equal copy of the remembered image, an image {!capture} just
    returned (capture does not set the memory of an applied image),
    and everything {!restore}, {!restore_chain}, {!flatten} and
    {!rebase} read, which never trust.

    The memory pass makes each page the image lists hold exactly its
    record, and zeroes the other pages only where memory can hold
    something else.  When the machine was last captured at, or rewound
    to, this very image and the dirty set has not been cleared since
    (its {!Hw.Memory} anchor holds), those are the pages dirtied
    since; otherwise they are the pages ever written.  Rewinding the
    remembered image request after request therefore costs the pages
    the requests dirtied, not the image's listed words or the
    machine's memory size. *)

val restore : System.t -> string -> (unit, error) result
(** Overwrite a freshly respawned system — same program file, same
    flags — with a captured image.  On success the system is
    indistinguishable from the one that called {!capture}.  The
    restore path validates in layers: header (magic, version, length),
    checksum, structural decode with shape checks against the
    respawned system, then a self-check (the restored state must
    re-capture to the same bytes, bumping [restores] once it does) and
    finally the kernel-table audit (bumping [restore_audit_rejections]
    and returning [Audit_rejected] on failure).  On any error the
    system state is unspecified and must be discarded. *)
