type status = Ready | Blocked | Done of Kernel.exit

type entry = {
  pname : string;
  process : Process.t;
  mutable saved_regs : Hw.Registers.t;
  mutable status : status;
  mutable saved_io : int option * Isa.Machine.io_request option;
      (** The entry's virtual channel: its countdown and pending
          transfer, stashed across slices so each process owns its own
          channel state. *)
  mutable stalled : int;
      (** Instructions retired since the entry last made progress
          (fault, crossing, channel activity) — the watchdog's
          accumulator, carried across slices and checkpoints. *)
}

type t = {
  mutable store : Store.t;
  machine : Isa.Machine.t;
  region_words : int;
  mutable entries : entry list; (* in spawn order *)
  mutable next_region : int;
  mutable slices : int;
      (** Lifetime slice count: the [max_slices] budget is charged
          against this, so a run resumed from a checkpoint inherits
          the slices the dead run already spent. *)
  mutable finished_log : (string * Kernel.exit) list;
      (** Every exit ever finished, in completion order — cumulative
          across [run] calls and checkpoints, so a resumed run can
          report pre-checkpoint exits it never observed itself. *)
  mutable rotation : string list;
      (** The dispatcher's current round-robin rotation: pnames not
          yet dispatched this pass.  Kept on the system (not local to
          [run]) so a checkpoint taken mid-rotation resumes with the
          same process up next. *)
}

let region_words_default = 1 lsl 18

let create ?mode ?stack_rule ?(mem_size = 1 lsl 21) ~store () =
  let machine = Isa.Machine.create ?mode ?stack_rule ~mem_size () in
  {
    store;
    machine;
    region_words = region_words_default;
    entries = [];
    next_region = 0;
    slices = 0;
    finished_log = [];
    rotation = [];
  }

let machine t = t.machine
let entries t = t.entries
let region_words t = t.region_words
let slices t = t.slices
let set_slices t n = t.slices <- n
let finished_log t = t.finished_log
let set_finished_log t l = t.finished_log <- l
let rotation t = t.rotation
let set_rotation t r = t.rotation <- r

let find t pname =
  List.find_opt (fun e -> String.equal e.pname pname) t.entries

let ( let* ) = Result.bind

let share_into t ~segment ~owner ~(into_p : Process.t) =
  let* owner_e =
    match find t owner with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "no process %s" owner)
  in
  let* loaded =
    match
      List.find_opt
        (fun (l : Process.loaded) -> String.equal l.Process.name segment)
        owner_e.process.Process.loaded
    with
    | Some l -> Ok l
    | None ->
        Error (Printf.sprintf "%s not in %s's virtual memory" segment owner)
  in
  (* A paged segment's contents live partly in the owner's backing
     store, which no other process can reach: only direct segments are
     shareable. *)
  let* () =
    match Hashtbl.find_opt owner_e.process.Process.placement loaded.Process.segno with
    | Some (Process.Direct _) -> Ok ()
    | Some (Process.Paged_at _) ->
        Error (Printf.sprintf "%s is demand-paged and cannot be shared" segment)
    | None -> Error (Printf.sprintf "%s has no placement" segment)
  in
  let* acl =
    match Store.find t.store segment with
    | Some s -> Ok s.Store.acl
    | None -> Error (Printf.sprintf "%s not in on-line storage" segment)
  in
  let* access =
    match Acl.check acl ~user:into_p.Process.user with
    | Some a ->
        Ok { a with Rings.Access.gates = loaded.Process.access.Rings.Access.gates }
    | None ->
        Error
          (Printf.sprintf "user %s not on the ACL of %s"
             into_p.Process.user segment)
  in
  let* _segno =
    Process.map_segment into_p ~name:segment ~base:loaded.Process.base
      ~bound:loaded.Process.bound ~access ~symbols:loaded.Process.symbols
  in
  Ok ()

let spawn ?(shared = []) ?(paged = false) t ~pname ~user ~segments
    ~start:(seg, entry_sym) ~ring =
  let* () =
    if find t pname <> None then
      Error (Printf.sprintf "process %s already exists" pname)
    else Ok ()
  in
  let region_base = t.next_region * t.region_words in
  let* () =
    if region_base + t.region_words > Hw.Memory.size t.machine.Isa.Machine.mem
    then Error "no free memory region for another process"
    else Ok ()
  in
  t.next_region <- t.next_region + 1;
  let process =
    Process.create ~machine:t.machine ~region_base
      ~region_end:(region_base + t.region_words) ~paged ~store:t.store ~user
      ()
  in
  let* () =
    List.fold_left
      (fun acc (segment, owner) ->
        let* () = acc in
        share_into t ~segment ~owner ~into_p:process)
      (Ok ()) shared
  in
  let* () = Process.add_segments process segments in
  let* () = Process.start process ~segment:seg ~entry:entry_sym ~ring in
  let e =
    {
      pname;
      process;
      saved_regs = Hw.Registers.copy t.machine.Isa.Machine.regs;
      status = Ready;
      saved_io = (None, None);
      stalled = 0;
    }
  in
  t.entries <- t.entries @ [ e ];
  Ok e

let share t ~segment ~owner ~into =
  let* into_e =
    match find t into with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "no process %s" into)
  in
  share_into t ~segment ~owner ~into_p:into_e.process

(* Kill one entry through the PR-3 quarantine path without touching
   the rest of the system: the arena's quota policy (and any other
   host-side supervisor) resolves a breach to this, never to a
   whole-machine abort.  Idempotent on already-finished entries. *)
let quarantine t e fault =
  match e.status with
  | Done _ -> ()
  | Ready | Blocked ->
      let exit = Kernel.Quarantined fault in
      Trace.Counters.bump_quarantined t.machine.Isa.Machine.counters;
      e.saved_regs <- Hw.Registers.copy t.machine.Isa.Machine.regs;
      e.saved_io <- (None, None);
      e.status <- Done exit;
      t.finished_log <- t.finished_log @ [ (e.pname, exit) ]

let run ?(quantum = 50) ?(max_slices = 10_000) ?watchdog ?before_slice
    ?after_slice ?on_slice t =
  let finished = ref [] in
  let regs = t.machine.Isa.Machine.regs in
  let finish e exit =
    (* Keep the process's final register file inspectable after other
       processes have used the machine. *)
    e.saved_regs <- Hw.Registers.copy regs;
    e.status <- Done exit;
    t.finished_log <- t.finished_log @ [ (e.pname, exit) ];
    finished := (e.pname, exit) :: !finished
  in
  let counters = t.machine.Isa.Machine.counters in
  (* Progress signature for the watchdog: anything that traps, crosses
     rings or switches descriptor segments moves it.  The timer-runout
     trap that ends a preempted slice is dispatcher machinery, not
     progress, and is discounted where the signature is compared. *)
  let progress_sig () =
    Trace.Counters.traps counters
    + Trace.Counters.calls_same_ring counters
    + Trace.Counters.calls_downward counters
    + Trace.Counters.calls_upward counters
    + Trace.Counters.returns_same_ring counters
    + Trace.Counters.returns_upward counters
    + Trace.Counters.returns_downward counters
    + Trace.Counters.gatekeeper_entries counters
    + Trace.Counters.descriptor_switches counters
  in
  let ready () = List.filter (fun e -> e.status = Ready) t.entries in
  let blocked () = List.filter (fun e -> e.status = Blocked) t.entries in
  (* Channel time passes while other processes run: age a sleeping
     entry's countdown and perform its completion when due. *)
  let age_blocked elapsed =
    List.iter
      (fun e ->
        match e.saved_io with
        | Some n, request when n <= elapsed ->
            (match request with
            | Some r -> (
                match Io.complete e.process r with
                | Ok () -> ()
                | Error _ -> ())
            | None -> ());
            e.saved_io <- (None, None);
            e.status <- Ready
        | Some n, request -> e.saved_io <- (Some (n - elapsed), request)
        | None, _ ->
            (* Nothing pending after all: just wake it. *)
            e.status <- Ready)
      (blocked ())
  in
  (* The rotation lives on [t], not in this call frame: a checkpoint
     taken after any slice must record which process is up next, or a
     resumed run would restart the pass from the top and complete in a
     different order than the run it is reproducing. *)
  let rec loop () =
    match t.rotation with
    | [] -> (
        match (ready (), blocked ()) with
        | [], [] -> ()
        | [], _ :: _ when t.slices < max_slices ->
            (* Everyone is asleep: idle the processor for a quantum of
               channel time. *)
            t.slices <- t.slices + 1;
            age_blocked quantum;
            loop ()
        | again, _ ->
            t.rotation <- List.map (fun e -> e.pname) again;
            loop ())
    | pname :: rest ->
        if t.slices >= max_slices then begin
          t.rotation <- [];
          List.iter
            (fun e -> finish e Kernel.Out_of_budget)
            (ready () @ blocked ())
        end
        else begin
          t.rotation <- rest;
          match find t pname with
          | None -> loop ()
          | Some e when e.status <> Ready -> loop ()
          | Some e ->
          t.slices <- t.slices + 1;
          Hw.Registers.restore regs ~from:e.saved_regs;
          let io_countdown, io_request = e.saved_io in
          t.machine.Isa.Machine.io_countdown <-
            Isa.Machine.countdown_of_option io_countdown;
          t.machine.Isa.Machine.io_request <- io_request;
          (* Arm the interval timer: preemption is a hardware trap,
             not a courtesy of the dispatched program. *)
          t.machine.Isa.Machine.timer <- quantum;
          (* The quota hook arms per-tenant limits (e.g. the machine's
             cycle ceiling) now that the entry owns the processor. *)
          (match before_slice with Some f -> f e | None -> ());
          let before = Trace.Counters.instructions counters in
          let sig_before = progress_sig () in
          let result = Kernel.run ~max_instructions:(quantum * 4) e.process in
          (match result with
          | Kernel.Preempted | Kernel.Out_of_budget ->
              (* Slice expired: the process stays ready. *)
              e.saved_regs <- Hw.Registers.copy regs
          | Kernel.Blocked ->
              e.saved_regs <- Hw.Registers.copy regs;
              e.status <- Blocked
          | Kernel.Halted as exit ->
              (* HALT stops the processor; the dispatcher restarts it
                 for the remaining processes. *)
              t.machine.Isa.Machine.halted <- false;
              finish e exit
          | exit -> finish e exit);
          e.saved_io <-
            ( Isa.Machine.option_of_countdown
                t.machine.Isa.Machine.io_countdown,
              t.machine.Isa.Machine.io_request );
          t.machine.Isa.Machine.io_countdown <- Isa.Machine.disarmed;
          t.machine.Isa.Machine.io_request <- None;
          t.machine.Isa.Machine.timer <- Isa.Machine.disarmed;
          (* The instruction-budget watchdog: a still-ready entry that
             retired a whole slice without faulting, crossing rings or
             touching its channel is accumulating [stalled]; past the
             budget it is quarantined through the PR-3 path so the
             rest of the system keeps running.  The timer-runout trap
             that ended a preempted slice is discounted. *)
          (match watchdog with
          | Some budget when e.status = Ready ->
              let timer_trap =
                match result with Kernel.Preempted -> 1 | _ -> 0
              in
              let moved =
                progress_sig () - sig_before > timer_trap
                || fst e.saved_io <> None
                || snd e.saved_io <> None
              in
              if moved then e.stalled <- 0
              else begin
                e.stalled <-
                  e.stalled + (Trace.Counters.instructions counters - before);
                if e.stalled >= budget then begin
                  Trace.Counters.bump_watchdog_tripped counters;
                  Trace.Counters.bump_quarantined counters;
                  finish e
                    (Kernel.Quarantined
                       (Rings.Fault.Watchdog_timeout { budget }))
                end
              end
          | _ -> ());
          (* The quota hook disarms limits, bills the slice and may
             quarantine the entry (via [quarantine]); a kill it
             performs still lands in this call's return list. *)
          (match after_slice with
          | Some f ->
              let was_done =
                match e.status with Done _ -> true | _ -> false
              in
              f e result;
              (match e.status with
              | Done exit when not was_done ->
                  finished := (e.pname, exit) :: !finished
              | _ -> ())
          | None -> ());
          age_blocked (Trace.Counters.instructions counters - before);
          (match on_slice with Some f -> f () | None -> ());
          loop ()
        end
  in
  loop ();
  List.rev !finished

(* The machine stays; everything a run left on it or on [t] goes. *)
let reset t ~store =
  Isa.Machine.reset t.machine;
  t.store <- store;
  t.entries <- [];
  t.next_region <- 0;
  t.slices <- 0;
  t.finished_log <- [];
  t.rotation <- []
