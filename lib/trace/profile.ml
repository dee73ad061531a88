(* Per-ring and per-segment attribution of modeled cycles and retired
   instructions.  The CPU attributes each instruction's cycle delta to
   the (ring, segment) it was fetched from; the OS substrate
   attributes gatekeeper/supervisor work done outside any instruction
   (fault handling on the host side) to the kernel bucket.  All
   figures are modeled cycles — deterministic, host-independent. *)

type cell = { mutable cycles : int; mutable instructions : int }

(* [last_segno]/[last_cell] remember the segment the previous
   attribution went to, so the common step — one more instruction in
   the same segment — does no hash, probe or allocation.  The cell is
   the one in [segments] (only [clear] drops cells, and it forgets the
   pair too); [no_segno] matches no segment number. *)
type t = {
  mutable enabled : bool;
  ring_cycles : int array;
  ring_instructions : int array;
  segments : (int, cell) Hashtbl.t;
  mutable kernel_cycles : int;
  mutable last_segno : int;
  mutable last_cell : cell;
}

let no_segno = -1

let create ~rings () =
  if rings < 1 then invalid_arg "Profile.create: rings < 1";
  {
    enabled = false;
    ring_cycles = Array.make rings 0;
    ring_instructions = Array.make rings 0;
    segments = Hashtbl.create 32;
    kernel_cycles = 0;
    last_segno = no_segno;
    last_cell = { cycles = 0; instructions = 0 };
  }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b

let clear t =
  Array.fill t.ring_cycles 0 (Array.length t.ring_cycles) 0;
  Array.fill t.ring_instructions 0 (Array.length t.ring_instructions) 0;
  Hashtbl.reset t.segments;
  t.kernel_cycles <- 0;
  t.last_segno <- no_segno

let reset t =
  clear t;
  t.enabled <- false

let segment_cell t segno =
  if segno = t.last_segno then t.last_cell
  else begin
    let c =
      match Hashtbl.find t.segments segno with
      | c -> c
      | exception Not_found ->
          let c = { cycles = 0; instructions = 0 } in
          Hashtbl.add t.segments segno c;
          c
    in
    t.last_segno <- segno;
    t.last_cell <- c;
    c
  end

let attribute t ~ring ~segno ~cycles ~instructions =
  t.ring_cycles.(ring) <- t.ring_cycles.(ring) + cycles;
  t.ring_instructions.(ring) <- t.ring_instructions.(ring) + instructions;
  let cell = segment_cell t segno in
  cell.cycles <- cell.cycles + cycles;
  cell.instructions <- cell.instructions + instructions

let attribute_kernel t ~cycles = t.kernel_cycles <- t.kernel_cycles + cycles

let kernel_cycles t = t.kernel_cycles

let per_ring t =
  let acc = ref [] in
  for r = Array.length t.ring_cycles - 1 downto 0 do
    if t.ring_cycles.(r) <> 0 || t.ring_instructions.(r) <> 0 then
      acc := (r, t.ring_cycles.(r), t.ring_instructions.(r)) :: !acc
  done;
  !acc

let per_segment t =
  Hashtbl.fold
    (fun segno c acc -> (segno, c.cycles, c.instructions) :: acc)
    t.segments []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let total_cycles t = Array.fold_left ( + ) t.kernel_cycles t.ring_cycles

let merge_into ~dst src =
  if Array.length src.ring_cycles <> Array.length dst.ring_cycles then
    invalid_arg "Profile.merge_into: ring counts differ";
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
