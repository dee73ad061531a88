(* What a workload gives the runner.

   [setup] is the work done before the first timed op; the runner
   times it, calibrated, as [setup_s].  Each chunk of the timed loop is
   [prepare] (untimed: fresh machines for workloads that consume
   them), [chunk] (timed, bracketed by the reference kernel), then
   [verify] (untimed: checks the chunk's modeled outputs and counts
   its ops).  The traced run also calls [drill] after each traced
   chunk: replays that time the layers a single library call hides,
   each proven faithful against the chunk's own outputs. *)

type tally = {
  ops : float;  (** Ops the chunk completed, in the workload's unit. *)
  failed : float;  (** Of those, ops whose check failed. *)
}

type instance = {
  prepare : Tracer.t -> unit;
  chunk : Tracer.t -> unit;
  verify : unit -> tally;
  drill : Tracer.t -> tally;
  layers : Tracer.t -> (string * float * string) list;
      (** Per-layer metrics (name, value, unit) from the traced spans
          and drill-downs. *)
}

type t = { name : string; setup : seed:int -> Tracer.t -> instance }

(* The seed whose modeled outputs the benchmark records. *)
let default_seed = 1

let digest s = Digest.to_hex (Digest.string s)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

let fail fmt = Printf.ksprintf failwith fmt

let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]
