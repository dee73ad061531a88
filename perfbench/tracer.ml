(* Spans recorded by the benchmark around its calls into the library.

   A span has a name, a start and an end (monotonic ns), the span that
   was open when it started, and the id of the op it belongs to.  At
   both boundaries it also reads the minor-heap word count and, when
   given the machine's counters, the simulated instruction count.
   Spans stay in memory until the run ends.

   A disabled tracer records nothing: [span] just calls its argument,
   so the untraced run executes the same code as the traced one. *)

type span = {
  name : string;
  op : int;
  parent : int;  (** Index of the enclosing span, -1 for a root. *)
  t0 : int;
  mutable t1 : int;
  minor0 : float;
  mutable minor1 : float;
  instr0 : int;
  mutable instr1 : int;
}

type t = {
  on : bool;
  mutable spans : span array;
  mutable n : int;
  mutable current : int;
  mutable op : int;
}

let create ~on = { on; spans = [||]; n = 0; current = -1; op = 0 }
let enabled t = t.on

let instructions = function
  | None -> 0
  | Some c -> Trace.Counters.instructions c

let span t ?counters name f =
  if not t.on then f ()
  else begin
    let s =
      {
        name;
        op = t.op;
        parent = t.current;
        t0 = Calib.now_ns ();
        t1 = 0;
        minor0 = Gc.minor_words ();
        minor1 = 0.0;
        instr0 = instructions counters;
        instr1 = 0;
      }
    in
    if t.n = Array.length t.spans then begin
      let bigger = Array.make (max 1024 (2 * t.n)) s in
      Array.blit t.spans 0 bigger 0 t.n;
      t.spans <- bigger
    end;
    let idx = t.n in
    t.spans.(idx) <- s;
    t.n <- idx + 1;
    t.current <- idx;
    let close () =
      s.instr1 <- instructions counters;
      s.minor1 <- Gc.minor_words ();
      s.t1 <- Calib.now_ns ();
      t.current <- s.parent
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A root span groups one op's layer spans; [op] ids number them. *)
let root t name f =
  t.op <- t.op + 1;
  span t name f

let spans t = Array.sub t.spans 0 t.n
let duration_ns s = s.t1 - s.t0
let instrs s = s.instr1 - s.instr0

(* Self time of every span: its duration minus the time its direct
   children cover (children are nested and sequential). *)
let self_ns t =
  let self = Array.init t.n (fun i -> duration_ns t.spans.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.spans.(i).parent in
    if p >= 0 then self.(p) <- self.(p) - duration_ns t.spans.(i)
  done;
  self

let named t name =
  List.filter (fun s -> s.name = name) (Array.to_list (spans t))

let durations_us t name =
  List.map (fun s -> float_of_int (duration_ns s) /. 1e3) (named t name)

(* Share of the root spans' wall time that some layer span covers:
   roots are the benchmark's own grouping, every other span is a call
   into a layer. *)
let coverage t =
  let self = self_ns t in
  let wall = ref 0 and layers = ref 0 in
  for i = 0 to t.n - 1 do
    if t.spans.(i).parent < 0 then wall := !wall + duration_ns t.spans.(i)
    else layers := !layers + self.(i)
  done;
  if !wall = 0 then 0.0 else float_of_int !layers /. float_of_int !wall

let write_jsonl t ~workload oc =
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      "{\"workload\":%S,\"span\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\
       \"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%.0f,\
       \"instructions\":%d}\n"
      workload i s.name s.op s.parent s.t0 s.t1 (s.minor1 -. s.minor0)
      (instrs s)
  done
