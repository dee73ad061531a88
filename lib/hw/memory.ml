(* Memory is an array of [page_words]-word pages.  Every page starts
   as [zero_page], one all-zero page shared by every memory and never
   written; the first store to a page swaps in a fresh page of its own
   ([write_silent] is the only store path).  So building a memory
   costs one slot per page, not one word per word, and a machine pays
   only for the pages it touches. *)
type t = {
  pages : int array array;
  size : int;
  counters : Trace.Counters.t;
  mutable on_write : int -> unit;
  (* Page stamps: for each page, the dirty generation of its last
     store, or -1 if nothing was stored there since [create] or the
     last [reset] (the page is all zero).  A page is dirty when its
     stamp is the current generation and written when its stamp is
     >= 0, so [clear_dirty] is a generation bump.  The stamp store
     rides the write path — one array store, no branch. *)
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
     installing a capability) sets one, and it flags the word's page
     in [tag_pages] (one byte per page), so clearing and listing the
     tags visit only flagged pages.  A flag may outlive its page's
     tags; it never misses one. *)
  mutable tags : Bytes.t;
  mutable tag_pages : Bytes.t;
}

let default_size = 1 lsl 21

(* Power of two so the page of an address is a shift, not a divide. *)
let page_shift = 10
let page_words = 1 lsl page_shift
let page_mask = page_words - 1

let zero_page = Array.make page_words 0

let ignore_write (_ : int) = ()

let create ?(size = default_size) counters =
  if size < 0 then invalid_arg "Memory.create: negative size";
  let npages = (size + page_words - 1) lsr page_shift in
  {
    pages = Array.make npages zero_page;
    size;
    counters;
    on_write = ignore_write;
    stamps = Array.make npages (-1);
    generation = 0;
    anchor_sum = 0;
    anchor_gen = -1;
    tags = Bytes.empty;
    tag_pages = Bytes.empty;
  }

let size t = t.size
let counters t = t.counters
let set_write_observer t f = t.on_write <- f

(* Reads and stores test the range themselves and reach this by a tail
   call, so their common path makes no call and needs no stack frame. *)
let[@inline never] out_of_range addr =
  invalid_arg (Printf.sprintf "Memory: absolute address %d out of range" addr)

let[@inline] check t addr = if addr < 0 || addr >= t.size then out_of_range addr

let read_silent t addr =
  if addr >= 0 && addr < t.size then
    Array.unsafe_get (Array.unsafe_get t.pages (addr lsr page_shift))
      (addr land page_mask)
  else out_of_range addr

(* The first store to page [p] gives it a page of its own (the final
   page of a memory whose size is not a multiple of [page_words] is
   short) and then stores again.  The common path pays one pointer
   test for it. *)
let[@inline never] own_page t p =
  t.pages.(p) <- Array.make (min page_words (t.size - (p lsl page_shift))) 0

let rec write_silent t addr w =
  if addr < 0 || addr >= t.size then out_of_range addr
  else
    let p = addr lsr page_shift in
    let page = Array.unsafe_get t.pages p in
    if page == zero_page then begin
      own_page t p;
      write_silent t addr w
    end
    else begin
      Array.unsafe_set page (addr land page_mask) (Word.of_int w);
      Array.unsafe_set t.stamps p t.generation;
      if Bytes.length t.tags <> 0 then Bytes.unsafe_set t.tags addr '\000';
      t.on_write addr
    end

let read t addr =
  Trace.Counters.(incr t.counters memory_reads);
  Trace.Counters.charge t.counters Costs.memory_access;
  read_silent t addr

let write t addr w =
  Trace.Counters.(incr t.counters memory_writes);
  Trace.Counters.charge t.counters Costs.memory_access;
  write_silent t addr w

(* Page by page, skipping every page still shared with [zero_page]:
   looking the page up once per word instead costs a capture's page
   scan a few percent. *)
let iter_nonzero t ~addr ~len f =
  if len > 0 then begin
    let last = addr + len - 1 in
    check t addr;
    check t last;
    for p = addr lsr page_shift to last lsr page_shift do
      let page = Array.unsafe_get t.pages p in
      if page != zero_page then begin
        let base = p lsl page_shift in
        let lo = if addr > base then addr - base else 0 in
        let hi = if last - base < page_mask then last - base else page_mask in
        let off = base - addr in
        for o = lo to hi do
          let w = Array.unsafe_get page o in
          if w <> 0 then f (off + o) w
        done
      end
    done
  end

let blit_silent t addr words =
  Array.iteri (fun i w -> write_silent t (addr + i) w) words

let listed_offset pairs i len =
  let o = pairs.(2 * i) in
  if o < 0 || o >= len then
    invalid_arg "Memory.set_page: offset outside the page";
  o

(* The first offset in [[z, hi)] of [page] that holds a nonzero word,
   else [hi].  A loop with no call in it, so it runs in registers,
   testing eight words per step while eight remain. *)
let rec next_nonzero (page : int array) z hi =
  if
    z + 8 <= hi
    && Array.(
         unsafe_get page z lor unsafe_get page (z + 1)
         lor unsafe_get page (z + 2) lor unsafe_get page (z + 3)
         lor unsafe_get page (z + 4) lor unsafe_get page (z + 5)
         lor unsafe_get page (z + 6) lor unsafe_get page (z + 7))
       = 0
  then next_nonzero page (z + 8) hi
  else if z < hi && Array.unsafe_get page z = 0 then
    next_nonzero page (z + 1) hi
  else z

(* Zero offsets [[lo, hi)] of owned page [page], which starts at
   [base]: one store per nonzero word. *)
let zero_span t base page lo hi =
  let z = ref (next_nonzero page lo hi) in
  while !z < hi do
    write_silent t (base + !z) 0;
    z := next_nonzero page (!z + 1) hi
  done

(* A page still shared with [zero_page] differs from the listing only
   in its listed words.  An owned page is scanned for the nonzero
   words between them; [write_silent] never swaps an owned page, so
   [page] stays the live one throughout. *)
let set_page t p pairs n =
  let base = p lsl page_shift in
  let page = t.pages.(p) in
  let len = min page_words (t.size - base) in
  if page == zero_page then
    for i = 0 to n - 1 do
      write_silent t (base + listed_offset pairs i len) pairs.((2 * i) + 1)
    done
  else begin
    let next = ref 0 in
    for i = 0 to n - 1 do
      let o = listed_offset pairs i len in
      zero_span t base page !next o;
      let w = pairs.((2 * i) + 1) in
      if Array.unsafe_get page o <> w then write_silent t (base + o) w;
      next := o + 1
    done;
    zero_span t base page !next len
  end

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
  if Bytes.length t.tags = 0 then begin
    t.tags <- Bytes.make t.size '\000';
    t.tag_pages <- Bytes.make (Array.length t.pages) '\000'
  end

let tags_enabled t = Bytes.length t.tags <> 0

let set_tag t addr =
  check t addr;
  if Bytes.length t.tags = 0 then
    invalid_arg "Memory.set_tag: tag store not enabled";
  Bytes.unsafe_set t.tags addr '\001';
  Bytes.unsafe_set t.tag_pages (addr lsr page_shift) '\001'

let clear_tag t addr =
  check t addr;
  if Bytes.length t.tags <> 0 then Bytes.unsafe_set t.tags addr '\000'

let tagged t addr =
  check t addr;
  Bytes.length t.tags <> 0 && Bytes.unsafe_get t.tags addr = '\001'

let tagged_addrs t =
  let acc = ref [] in
  for p = Bytes.length t.tag_pages - 1 downto 0 do
    if Bytes.unsafe_get t.tag_pages p <> '\000' then
      for a = min t.size ((p + 1) lsl page_shift) - 1 downto p lsl page_shift do
        if Bytes.unsafe_get t.tags a = '\001' then acc := a :: !acc
      done
  done;
  !acc

let clear_tags t =
  for p = 0 to Bytes.length t.tag_pages - 1 do
    if Bytes.unsafe_get t.tag_pages p <> '\000' then begin
      let base = p lsl page_shift in
      Bytes.fill t.tags base (min page_words (t.size - base)) '\000';
      Bytes.unsafe_set t.tag_pages p '\000'
    end
  done

(* Only a written page can hold a nonzero word, so zeroing those alone
   brings every word back to [create]'s zero.  A written page has a
   page of its own (the store that stamped it allocated one), which is
   zero-filled and kept: the next run on this memory stores into the
   same pages without allocating them again. *)
let reset t =
  for p = 0 to Array.length t.stamps - 1 do
    if t.stamps.(p) >= 0 then begin
      let page = t.pages.(p) in
      Array.fill page 0 (Array.length page) 0;
      t.stamps.(p) <- -1
    end
  done;
  t.generation <- 0;
  t.anchor_sum <- 0;
  t.anchor_gen <- -1;
  clear_tags t
