(* Per-ring and per-segment attribution of modeled cycles and retired
   instructions.  The CPU attributes each instruction's cycle delta to
   the (ring, segment) it was fetched from; the OS substrate
   attributes gatekeeper/supervisor work done outside any instruction
   (fault handling on the host side) to the kernel bucket.  All
   figures are modeled cycles — deterministic, host-independent. *)

type cell = { mutable cycles : int; mutable instructions : int }

(* [by_segno] indexes the cells of [segments] by segment number (a
   machine's are under 2^14), so attributing an instruction is two
   array loads — no hash, even when control alternates between
   segments, as it does across every call.  Slots with no cell hold
   [no_cell]; the array grows to the largest segment number seen, and
   only [clear] drops cells, forgetting the index too.  Segment numbers
   outside the index go through [segments] alone.

   Attribution to the same (ring, segment) pair as the previous one —
   every instruction but the first after a transfer between segments
   or rings — only adds to [pending_cycles] and
   [pending_instructions]; [flush] folds them into the ring arrays
   and the segment's cell when the pair changes and before anything
   reads the profile.  [pending_ring] is -1 when nothing is pending. *)
type t = {
  mutable enabled : bool;
  ring_cycles : int array;
  ring_instructions : int array;
  segments : (int, cell) Hashtbl.t;
  mutable kernel_cycles : int;
  mutable by_segno : cell array;
  mutable pending_ring : int;
  mutable pending_segno : int;
  mutable pending_cycles : int;
  mutable pending_instructions : int;
}

let no_cell = { cycles = 0; instructions = 0 }
let indexed_segnos = 1 lsl 14

let create ~rings () =
  if rings < 1 then invalid_arg "Profile.create: rings < 1";
  {
    enabled = false;
    ring_cycles = Array.make rings 0;
    ring_instructions = Array.make rings 0;
    segments = Hashtbl.create 32;
    kernel_cycles = 0;
    by_segno = [||];
    pending_ring = -1;
    pending_segno = 0;
    pending_cycles = 0;
    pending_instructions = 0;
  }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b

let clear t =
  Array.fill t.ring_cycles 0 (Array.length t.ring_cycles) 0;
  Array.fill t.ring_instructions 0 (Array.length t.ring_instructions) 0;
  Hashtbl.reset t.segments;
  t.kernel_cycles <- 0;
  t.by_segno <- [||];
  t.pending_ring <- -1;
  t.pending_cycles <- 0;
  t.pending_instructions <- 0

let reset t =
  clear t;
  t.enabled <- false

let find_or_add t segno =
  match Hashtbl.find t.segments segno with
  | c -> c
  | exception Not_found ->
      let c = { cycles = 0; instructions = 0 } in
      Hashtbl.add t.segments segno c;
      c

(* A segment not yet in the index: its cell, indexed from now on. *)
let index_cell t segno =
  let c = find_or_add t segno in
  if segno >= 0 && segno < indexed_segnos then begin
    let n = Array.length t.by_segno in
    if segno >= n then begin
      let a = Array.make (max (segno + 1) (2 * n)) no_cell in
      Array.blit t.by_segno 0 a 0 n;
      t.by_segno <- a
    end;
    t.by_segno.(segno) <- c
  end;
  c

let[@inline] segment_cell t segno =
  if
    segno >= 0
    && segno < Array.length t.by_segno
    && Array.unsafe_get t.by_segno segno != no_cell
  then Array.unsafe_get t.by_segno segno
  else index_cell t segno

let flush t =
  let ring = t.pending_ring in
  if ring >= 0 then begin
    let cycles = t.pending_cycles and instructions = t.pending_instructions in
    t.ring_cycles.(ring) <- t.ring_cycles.(ring) + cycles;
    t.ring_instructions.(ring) <- t.ring_instructions.(ring) + instructions;
    let cell = segment_cell t t.pending_segno in
    cell.cycles <- cell.cycles + cycles;
    cell.instructions <- cell.instructions + instructions;
    t.pending_ring <- -1;
    t.pending_cycles <- 0;
    t.pending_instructions <- 0
  end

(* A new pair: fold the old one in, start accumulating the new. *)
let switch_pair t ~ring ~segno ~cycles ~instructions =
  if ring < 0 || ring >= Array.length t.ring_cycles then
    invalid_arg "Profile.attribute: ring out of range";
  flush t;
  t.pending_ring <- ring;
  t.pending_segno <- segno;
  t.pending_cycles <- cycles;
  t.pending_instructions <- instructions

let[@inline] attribute t ~ring ~segno ~cycles ~instructions =
  if ring = t.pending_ring && segno = t.pending_segno then begin
    t.pending_cycles <- t.pending_cycles + cycles;
    t.pending_instructions <- t.pending_instructions + instructions
  end
  else switch_pair t ~ring ~segno ~cycles ~instructions

let attribute_kernel t ~cycles = t.kernel_cycles <- t.kernel_cycles + cycles

let kernel_cycles t = t.kernel_cycles

let per_ring t =
  flush t;
  let acc = ref [] in
  for r = Array.length t.ring_cycles - 1 downto 0 do
    if t.ring_cycles.(r) <> 0 || t.ring_instructions.(r) <> 0 then
      acc := (r, t.ring_cycles.(r), t.ring_instructions.(r)) :: !acc
  done;
  !acc

let per_segment t =
  flush t;
  Hashtbl.fold
    (fun segno c acc -> (segno, c.cycles, c.instructions) :: acc)
    t.segments []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let total_cycles t =
  flush t;
  Array.fold_left ( + ) t.kernel_cycles t.ring_cycles

let merge_into ~dst src =
  if Array.length src.ring_cycles <> Array.length dst.ring_cycles then
    invalid_arg "Profile.merge_into: ring counts differ";
  flush src;
  for r = 0 to Array.length src.ring_cycles - 1 do
    dst.ring_cycles.(r) <- dst.ring_cycles.(r) + src.ring_cycles.(r);
    dst.ring_instructions.(r) <-
      dst.ring_instructions.(r) + src.ring_instructions.(r)
  done;
  Hashtbl.iter
    (fun segno (c : cell) ->
      match Hashtbl.find_opt dst.segments segno with
      | Some d ->
          d.cycles <- d.cycles + c.cycles;
          d.instructions <- d.instructions + c.instructions
      | None ->
          Hashtbl.add dst.segments segno
            { cycles = c.cycles; instructions = c.instructions })
    src.segments;
  dst.kernel_cycles <- dst.kernel_cycles + src.kernel_cycles

(* Checkpoint support: ring arrays, segment cells (sorted, for a
   canonical byte encoding upstream), and the kernel bucket. *)
let dump t =
  flush t;
  ( Array.copy t.ring_cycles,
    Array.copy t.ring_instructions,
    per_segment t,
    t.kernel_cycles )

let restore t (ring_cycles, ring_instructions, segments, kernel_cycles) =
  if
    Array.length ring_cycles <> Array.length t.ring_cycles
    || Array.length ring_instructions <> Array.length t.ring_instructions
  then invalid_arg "Profile.restore: wrong ring count";
  clear t;
  Array.blit ring_cycles 0 t.ring_cycles 0 (Array.length ring_cycles);
  Array.blit ring_instructions 0 t.ring_instructions 0
    (Array.length ring_instructions);
  List.iter
    (fun (segno, cycles, instructions) ->
      Hashtbl.replace t.segments segno { cycles; instructions })
    segments;
  t.kernel_cycles <- kernel_cycles
