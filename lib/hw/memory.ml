type t = {
  words : int array;
  counters : Trace.Counters.t;
  mutable on_write : int -> unit;
  (* Page stamps: for each [page_words]-word page, the dirty
     generation of its last store, or -1 if nothing was ever stored
     there (the page is still all zero from [create]).  A page is
     dirty when its stamp is the current generation and written when
     its stamp is >= 0, so [clear_dirty] is a generation bump.  The
     stamp store rides the write path — one array store, no branch. *)
  stamps : int array;
  mutable generation : int;
  (* The anchor: memory equalled the image with payload checksum
     [anchor_sum] when the anchor was set in generation [anchor_gen],
     and every page stored to since is stamped with that generation.
     [anchor_gen = -1] means no anchor. *)
  mutable anchor_sum : int;
  mutable anchor_gen : int;
  (* Validity tags, one byte per word — the capability backend's tag
     store.  Zero-length (and therefore branch-free to test) unless
     [enable_tags] ran: the hardware and 645 machines never allocate
     it, so their write path is untouched.  When enabled, every store
     clears the written word's tag; only {!set_tag} (the kernel
     installing a capability) sets one. *)
  mutable tags : Bytes.t;
}

let default_size = 1 lsl 21

(* Power of two so the page of an address is a shift, not a divide. *)
let page_shift = 10
let page_words = 1 lsl page_shift

let ignore_write (_ : int) = ()

let create ?(size = default_size) counters =
  {
    words = Array.make size 0;
    counters;
    on_write = ignore_write;
    stamps = Array.make ((size + page_words - 1) lsr page_shift) (-1);
    generation = 0;
    anchor_sum = 0;
    anchor_gen = -1;
    tags = Bytes.empty;
  }

let size t = Array.length t.words
let counters t = t.counters
let set_write_observer t f = t.on_write <- f

let check t addr =
  if addr < 0 || addr >= Array.length t.words then
    invalid_arg (Printf.sprintf "Memory: absolute address %d out of range" addr)

let read_silent t addr =
  check t addr;
  t.words.(addr)

let write_silent t addr w =
  check t addr;
  t.words.(addr) <- Word.of_int w;
  t.stamps.(addr lsr page_shift) <- t.generation;
  if Bytes.length t.tags <> 0 then Bytes.unsafe_set t.tags addr '\000';
  t.on_write addr

let read t addr =
  Trace.Counters.(incr t.counters memory_reads);
  Trace.Counters.charge t.counters Costs.memory_access;
  read_silent t addr

let write t addr w =
  Trace.Counters.(incr t.counters memory_writes);
  Trace.Counters.charge t.counters Costs.memory_access;
  write_silent t addr w

let iter_nonzero t ~addr ~len f =
  if len > 0 then begin
    check t addr;
    check t (addr + len - 1)
  end;
  let words = t.words in
  for i = 0 to len - 1 do
    let w = Array.unsafe_get words (addr + i) in
    if w <> 0 then f i w
  done

let blit_silent t addr words =
  Array.iteri (fun i w -> write_silent t (addr + i) w) words

let dirty_pages t =
  let gen = t.generation in
  let acc = ref [] in
  for p = Array.length t.stamps - 1 downto 0 do
    if t.stamps.(p) = gen then acc := p :: !acc
  done;
  !acc

let written_pages t =
  let acc = ref [] in
  for p = Array.length t.stamps - 1 downto 0 do
    if t.stamps.(p) >= 0 then acc := p :: !acc
  done;
  !acc

let clear_dirty t = t.generation <- t.generation + 1
let dirty_generation t = t.generation

let set_anchor t sum =
  t.anchor_sum <- sum;
  t.anchor_gen <- t.generation

let anchored t sum = t.anchor_gen = t.generation && t.anchor_sum = sum

(* {1 Validity tags} *)

let enable_tags t =
  if Bytes.length t.tags = 0 then
    t.tags <- Bytes.make (Array.length t.words) '\000'

let tags_enabled t = Bytes.length t.tags <> 0

let set_tag t addr =
  check t addr;
  if Bytes.length t.tags = 0 then
    invalid_arg "Memory.set_tag: tag store not enabled";
  Bytes.unsafe_set t.tags addr '\001'

let clear_tag t addr =
  check t addr;
  if Bytes.length t.tags <> 0 then Bytes.unsafe_set t.tags addr '\000'

let tagged t addr =
  check t addr;
  Bytes.length t.tags <> 0 && Bytes.unsafe_get t.tags addr = '\001'

let tagged_addrs t =
  let acc = ref [] in
  for a = Bytes.length t.tags - 1 downto 0 do
    if Bytes.unsafe_get t.tags a = '\001' then acc := a :: !acc
  done;
  !acc

let clear_tags t =
  if Bytes.length t.tags <> 0 then
    Bytes.fill t.tags 0 (Bytes.length t.tags) '\000'

(* Only a written page can hold a nonzero word, so zeroing those alone
   brings every word back to [create]'s zero. *)
let reset t =
  let size = Array.length t.words in
  for p = 0 to Array.length t.stamps - 1 do
    if t.stamps.(p) >= 0 then begin
      let base = p lsl page_shift in
      Array.fill t.words base (min page_words (size - base)) 0;
      t.stamps.(p) <- -1
    end
  done;
  t.generation <- 0;
  t.anchor_sum <- 0;
  t.anchor_gen <- -1;
  clear_tags t
