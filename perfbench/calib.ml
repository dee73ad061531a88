(* The reference kernel every host-time metric is calibrated against.

   Host speed on a shared machine drifts by tens of percent within a
   minute, so a raw wall-clock time says as much about the neighbours
   as about the simulator.  The kernel is timed just before and just
   after each chunk of measured work, and a calibrated time is

     raw seconds * nominal_ms / mean (kernel ms before, kernel ms after)

   The kernel is frozen.  It shares no code with lib/, so no change to
   the simulator can speed it up.  Once its table is built it
   allocates nothing, so the simulator's GC debt cannot leak into it.
   It mixes integer work and an unpredictable branch with dependent
   loads over an L2-sized table and streaming writes over a few MB, as
   the interpreter and the snapshot codec do.  (A chase over a table
   larger than L2 made the kernel about twice as sensitive to host
   load as the checkpoint workload, and calibration then added noise.)  Changing anything below
   changes every calibrated number: re-measure [nominal_ms] with it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let table_words = 1 lsl 17
let out_words = 1 lsl 19
let steps = 150_000

(* Kernel time on the reference host (2-vCPU container, OCaml 5.1.1,
   no flambda): the median of the kernel times seen while measuring
   the four workloads. *)
let nominal_ms = 4.9

(* One cycle through every slot (Sattolo's shuffle under a fixed
   LCG), so the chase below visits the whole table in an order the
   prefetcher cannot guess. *)
let table : int array =
  let a = Array.init table_words (fun i -> i) in
  let s = ref 0x2545F491 in
  for i = table_words - 1 downto 1 do
    s := (!s * 0x2545F4914F6CDD1D) + 0x14057B7EF767814F;
    let j = (!s lsr 17) mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let sink = ref 0

let out : int array = Array.make out_words 0

let kernel () =
  let idx = ref 0 and acc = ref 1 in
  let mask = out_words - 1 in
  for i = 0 to steps - 1 do
    let j = Array.unsafe_get table !idx in
    let h = (!acc lxor j) * 0x100000001b3 in
    let h = (h lxor (h lsr 29)) * 0x1E3779B97F4A7C15 in
    (* An unpredictable branch, as an interpreter's dispatch is. *)
    acc := if h land 4 = 0 then h lxor (h lsr 32) else (h lsr 7) + j;
    idx := j;
    let base = (i * 8) land mask in
    for k = 0 to 7 do
      Array.unsafe_set out (base + k) (h + k)
    done
  done;
  sink := !sink lxor !acc

(* One kernel time: the fastest of three timed passes, after an
   untimed one.  Right after a chunk of simulator work the first pass
   runs up to twice as slow while the table comes back into cache, and
   any pass can lose a millisecond to the hypervisor; neither says how
   fast the host is running. *)
let kernel_ms () =
  kernel ();
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = now_ns () in
    kernel ();
    best := min !best (now_ns () - t0)
  done;
  float_of_int !best /. 1e6

(* Scale factor for a measurement bracketed by two kernel runs. *)
let factor ~before ~after = nominal_ms /. ((before +. after) /. 2.0)
