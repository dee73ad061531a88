(* Routing and fleet execution, decoupled.  Routing — windows,
   consistent hashing, the least-loaded override, shedding, quarantine
   and redistribution — is a *pure simulation* over modeled state
   (class hashes, per-window queue depths, per-request outcome facts),
   so the (request, shard, outcome) relation is a function of
   (workload, config) alone.  Execution is one {!Pool.map} over the
   requests; it is free to run them in any host order on any worker
   because a request's outcome is placement-independent (every boot
   rewinds the machine to the sealed class image).  The report is then
   rebuilt from the simulation plus the per-request outcome table, so
   host scheduling cannot leak into it. *)

module Route = struct
  type ring = { points : (int64 * int) array }

  (* FNV-1a 64 with a murmur3 avalanche finalizer.  Raw FNV of short
     keys like "shard:3:0" barely diffuses — every replica of a shard
     lands in one tight cluster and the ring degenerates — so the
     finalizer spreads each point over the full 64-bit space.  Int64
     because OCaml's native int is 63-bit; unsigned compares keep the
     ring ordered. *)
  let hash64 s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h :=
          Int64.mul
            (Int64.logxor !h (Int64.of_int (Char.code c)))
            0x100000001b3L)
      s;
    let mix h =
      let h = Int64.logxor h (Int64.shift_right_logical h 33) in
      let h = Int64.mul h 0xff51afd7ed558ccdL in
      let h = Int64.logxor h (Int64.shift_right_logical h 33) in
      let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
      Int64.logxor h (Int64.shift_right_logical h 33)
    in
    mix !h

  let make ~shards ~replicas =
    if shards < 1 then invalid_arg "Route.make: shards < 1";
    if replicas < 1 then invalid_arg "Route.make: replicas < 1";
    let points =
      Array.init (shards * replicas) (fun i ->
          let s = i / replicas and r = i mod replicas in
          (hash64 (Printf.sprintf "shard:%d:%d" s r), s))
    in
    Array.sort
      (fun (a, sa) (b, sb) ->
        match Int64.unsigned_compare a b with 0 -> compare sa sb | c -> c)
      points;
    { points }

  let klass_key (p, n) = Printf.sprintf "%s/%d" p n

  (* Index of the first point at or after [h], wrapping past the top
     of the ring to point 0. *)
  let successor ring h =
    let n = Array.length ring.points in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let ph, _ = ring.points.(mid) in
      if Int64.unsigned_compare ph h < 0 then lo := mid + 1 else hi := mid
    done;
    if !lo = n then 0 else !lo

  let owner ring k = snd ring.points.(successor ring (hash64 (klass_key k)))

  let owner_alive ring ~alive k =
    let n = Array.length ring.points in
    let start = successor ring (hash64 (klass_key k)) in
    let rec go i =
      if i = n then None
      else
        let _, s = ring.points.((start + i) mod n) in
        if alive s then Some s else go (i + 1)
    in
    go 0
end

type config = {
  shards : int;
  queue_cap : int;
  imbalance : int;
  replicas : int;
  batch_window : int;
  image_cap : int;
  backend : Isa.Machine.mode option;
  watchdog : int option;
  inject : Hw.Inject.plan option;
  preload : (Shard.klass * string) list;
  pool : int option;
  trace : Shard.trace_cfg option;
  migrate : (int * int * int) option;
  restart_every : int option;
  autoscale : bool;
}

let default_config ~shards =
  {
    shards;
    queue_cap = 64;
    imbalance = 4;
    replicas = 16;
    batch_window = 4096;
    image_cap = 8;
    backend = None;
    watchdog = None;
    inject = None;
    preload = [];
    pool = None;
    trace = None;
    migrate = None;
    restart_every = None;
    autoscale = false;
  }

type stats = {
  completed : int;
  ok : int;
  shed : int;
  redistributed : int;
  routed_hash : int;
  routed_balanced : int;
  batches : int;
  makespan : int;
  quarantined : int;
  migrated : int;
  restarts : int;
  peak_active : int;
}

type shard_model = {
  ms_id : int;
  ms_served : int;
  ms_cold : int;
  ms_warm : int;
  ms_busy : int;
  ms_image : Hw.Assoc.stats;
  ms_quarantined : bool;
}

type result = {
  models : shard_model array;
  outcomes : Shard.outcome list;
  stats : stats;
  workers : Shard.t array;
}

let by_id (a : Shard.outcome) (b : Shard.outcome) =
  compare a.Shard.request.Workload.id b.Shard.request.Workload.id

let req_id (r : Workload.request) = r.Workload.id

(* ------------------------------------------------------------------ *)
(* The routing simulation *)

(* All a routing decision may read of an outcome: how long the request
   ran (for busy cycles and makespan) and whether it tripped
   quarantine.  Both are per-request deterministic — a boot rewinds
   the machine to the sealed image, so the shard that runs a request
   cannot change these. *)
type fact = { f_latency : int; f_tripped : bool }

type sim = {
  sim_assign : (int, int) Hashtbl.t;  (* request id -> serving shard *)
  sim_order : (int * Workload.request) list array;
      (* per shard, service order, each request tagged with the window
         ordinal it was served in (so the model can place restarts) *)
  sim_quarantined : bool array;
  sim_restart_windows : int list array;
      (* per shard, ascending window ordinals at which it restarted *)
  sim_shed : int;
  sim_redistributed : int;
  sim_migrated : int;
  sim_restarts : int;
  sim_peak_active : int;
  sim_routed_hash : int;
  sim_routed_balanced : int;
  sim_batches : int;
  sim_makespan : int;
}

(* One pass of the modeled dispatch loop.  This is the old per-window
   dispatcher verbatim minus the domains: requests are grouped into
   arrival windows, routed by consistent hash with the least-loaded
   override, shed when every live queue is full; each shard serves its
   window queue in order until a request trips, the remainder is
   re-queued for the next window, and the window costs the slowest
   shard's busy cycles.  [fact] supplies the two outcome-borne inputs;
   everything else is modeled state. *)
let simulate cfg ring ~fact reqs =
  let quarantined = Array.make cfg.shards false in
  (* Elastic-fleet state.  A migrated-away shard left the rotation for
     good at its drain window; a restarting shard sits out exactly one
     window; autoscale caps routing to the first [active] shard ids.
     All of it is modeled state — facts never feed these, so sim0
     already places with them and convergence is untouched. *)
  let migrated_away = Array.make cfg.shards false in
  let restarting = Array.make cfg.shards false in
  let restart_windows = Array.make cfg.shards [] in
  let active = ref (if cfg.autoscale then 1 else cfg.shards) in
  let peak_active = ref !active in
  let assign = Hashtbl.create 256 in
  let order = Array.make cfg.shards [] in
  let shed = ref 0
  and redistributed = ref 0
  and migrated = ref 0
  and restarts = ref 0
  and routed_hash = ref 0
  and routed_balanced = ref 0
  and batches = ref 0
  and makespan = ref 0 in
  (* Requests still to arrive, ascending by arrival (the generator
     emits them that way); requests bounced off a quarantined shard
     waiting for the next window. *)
  let pending = ref reqs and carry = ref [] in
  let split_window w =
    let rec go acc = function
      | (r : Workload.request) :: rest
        when r.Workload.arrival / cfg.batch_window = w ->
          go (r :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    go [] !pending
  in
  while !pending <> [] || !carry <> [] do
    let arrived, rest =
      match !pending with
      | [] -> ([], [])
      | r :: _ -> split_window (r.Workload.arrival / cfg.batch_window)
    in
    pending := rest;
    let batch = !carry @ arrived in
    carry := [];
    let win = !batches in
    incr batches;
    (* Rolling restart: every [n] windows the next shard in id order
       goes down for one window — rebooted, boot-image cache cold —
       and the ring routes around it.  Nothing queues on a restarting
       shard, so a restart can never drop a request. *)
    Array.fill restarting 0 cfg.shards false;
    (match cfg.restart_every with
    | Some n when win > 0 && win mod n = 0 ->
        let s = ((win / n) - 1) mod cfg.shards in
        restarting.(s) <- true;
        incr restarts;
        restart_windows.(s) <- win :: restart_windows.(s)
    | _ -> ());
    (* Route the window.  Queue depths only count this window's
       requests: the previous window fully drained before this one was
       routed. *)
    (* Autoscale, growth half: size the active set to this window's
       offered load before routing it, so a burst is absorbed rather
       than shed.  Growth is capped at [shards]. *)
    if cfg.autoscale then begin
      let offered = List.length batch in
      while
        !active < cfg.shards && offered * 4 > 3 * !active * cfg.queue_cap
      do
        incr active
      done;
      if !active > !peak_active then peak_active := !active
    end;
    let queues = Array.make cfg.shards [] in
    let qlen = Array.make cfg.shards 0 in
    let alive s =
      (not quarantined.(s))
      && (not migrated_away.(s))
      && (not restarting.(s))
      && s < !active
    in
    let shed_before = !shed in
    (* A class homed on the migrated-away shard aims at the migration
       target (falling back to the plain ring walk when the target is
       itself unroutable); every other class walks the ring over live
       shards as always. *)
    let pref_of k =
      match cfg.migrate with
      | Some (_, s_from, s_to) when migrated_away.(s_from) -> (
          match
            Route.owner_alive ring ~alive:(fun s -> alive s || s = s_from) k
          with
          | Some s when s = s_from ->
              if alive s_to then Some s_to else Route.owner_alive ring ~alive k
          | Some s -> Some s
          | None -> None)
      | _ -> Route.owner_alive ring ~alive k
    in
    List.iter
      (fun (r : Workload.request) ->
        match pref_of (r.Workload.program, r.Workload.iterations) with
        | None -> incr shed
        | Some pref ->
            (* Least-loaded live shard, lowest id on ties.  [pref] is
               alive, so the scan always finds something. *)
            let best = ref pref in
            for s = 0 to cfg.shards - 1 do
              if alive s && qlen.(s) < qlen.(!best) then best := s
            done;
            let target =
              if
                qlen.(pref) < cfg.queue_cap
                && qlen.(pref) - qlen.(!best) <= cfg.imbalance
              then (
                incr routed_hash;
                pref)
              else if qlen.(!best) < cfg.queue_cap then (
                if !best = pref then incr routed_hash
                else incr routed_balanced;
                !best)
              else -1
            in
            if target < 0 then incr shed
            else (
              qlen.(target) <- qlen.(target) + 1;
              queues.(target) <- r :: queues.(target)))
      batch;
    (* Live migration: at its drain window the source shard's routed
       queue rides the carry to the next window in arrival order —
       exactly the quarantine redistribution path — and the shard
       leaves the rotation.  From the next window on, its classes aim
       at the migration target (see [pref_of]). *)
    (match cfg.migrate with
    | Some (w0, s_from, _) when win >= w0 && not migrated_away.(s_from) ->
        migrated := !migrated + qlen.(s_from);
        carry := !carry @ List.rev queues.(s_from);
        queues.(s_from) <- [];
        qlen.(s_from) <- 0;
        migrated_away.(s_from) <- true
    | _ -> ());
    (* Serve the window: each shard works through its queue in order
       and stops at the first request that trips quarantine; the
       unserved remainder rides to the next window.  The window's
       modeled cost is the slowest shard's busy cycles. *)
    let window_max = ref 0 in
    for s = 0 to cfg.shards - 1 do
      match queues.(s) with
      | [] -> ()
      | q ->
          let rec serve busy served = function
            | [] -> (busy, served, [])
            | (r : Workload.request) :: rest ->
                let f = fact r in
                let busy = busy + f.f_latency in
                let served = r :: served in
                if f.f_tripped then (busy, served, rest)
                else serve busy served rest
          in
          let busy, served_rev, remainder = serve 0 [] (List.rev q) in
          if busy > !window_max then window_max := busy;
          List.iter
            (fun (r : Workload.request) ->
              Hashtbl.replace assign r.Workload.id s)
            served_rev;
          (* [served_rev] is this window's served list most-recent
             first; keep [order] most-recent first globally and flip
             once at the end. *)
          order.(s) <-
            List.map (fun r -> (win, r)) served_rev @ order.(s);
          if List.exists (fun r -> (fact r).f_tripped) served_rev then
            quarantined.(s) <- true;
          redistributed := !redistributed + List.length remainder;
          carry := !carry @ remainder
    done;
    carry := List.sort (fun a b -> compare (req_id a) (req_id b)) !carry;
    makespan := !makespan + !window_max;
    (* Autoscale, shrink half (plus a corrective grow if the window
       shed despite the sizing — capacity was genuinely short): reads
       modeled routing state only, so placement stays a function of
       (workload, config). *)
    if cfg.autoscale then begin
      let routed = Array.fold_left ( + ) 0 qlen in
      if !shed > shed_before && !active < cfg.shards then begin
        incr active;
        if !active > !peak_active then peak_active := !active
      end
      else if !active > 1 && routed * 4 < (!active - 1) * cfg.queue_cap then
        decr active
    end
  done;
  {
    sim_assign = assign;
    sim_order = Array.map List.rev order;
    sim_quarantined = quarantined;
    sim_restart_windows = Array.map List.rev restart_windows;
    sim_shed = !shed;
    sim_redistributed = !redistributed;
    sim_migrated = !migrated;
    sim_restarts = !restarts;
    sim_peak_active = !peak_active;
    sim_routed_hash = !routed_hash;
    sim_routed_balanced = !routed_balanced;
    sim_batches = !batches;
    sim_makespan = !makespan;
  }

(* The per-shard summaries the report carries, replayed from the
   simulation.  Boot classification rides an [Hw.Assoc] with the same
   capacity the shard LRU has and the same find-then-insert protocol
   {!Shard.boot} uses, so hits/misses/evictions come out exactly as a
   dedicated per-shard machine would have counted them — whatever pool
   worker actually booted the class on the host. *)
let model_of_sim cfg sim ~fact =
  Array.init cfg.shards (fun s ->
      let cache = Hw.Assoc.create ~capacity:cfg.image_cap () in
      let cold = ref 0 and warm = ref 0 and busy = ref 0 in
      let pending_restarts = ref sim.sim_restart_windows.(s) in
      List.iter
        (fun ((w, r) : int * Workload.request) ->
          (* A rolling restart between the previous request and this
             one rebooted the shard: its boot-image cache comes back
             empty, so the next request of every class boots cold. *)
          let rec flush () =
            match !pending_restarts with
            | rw :: rest when rw <= w ->
                Hw.Assoc.clear cache;
                pending_restarts := rest;
                flush ()
            | _ -> ()
          in
          flush ();
          let k = (r.Workload.program, r.Workload.iterations) in
          (match Hw.Assoc.find cache k with
          | Some () -> incr warm
          | None ->
              incr cold;
              ignore (Hw.Assoc.insert cache k ()));
          busy := !busy + (fact r).f_latency)
        sim.sim_order.(s);
      {
        ms_id = s;
        ms_served = List.length sim.sim_order.(s);
        ms_cold = !cold;
        ms_warm = !warm;
        ms_busy = !busy;
        ms_image = Hw.Assoc.stats cache;
        ms_quarantined = sim.sim_quarantined.(s);
      })

(* ------------------------------------------------------------------ *)
(* Execution *)

let validate cfg =
  let positive flag n = if n < 1 then Error (flag ^ " must be positive") else Ok () in
  let nonneg flag n = if n < 0 then Error (flag ^ " must be nonnegative") else Ok () in
  let opt check = function Some n -> check n | None -> Ok () in
  let ( let* ) = Result.bind in
  let* () =
    if cfg.shards < 1 then Error "--shards must be at least 1" else Ok ()
  in
  let* () = positive "--queue-cap" cfg.queue_cap in
  let* () = positive "--batch-window" cfg.batch_window in
  let* () = nonneg "--image-cap" cfg.image_cap in
  let* () = positive "--replicas" cfg.replicas in
  let* () = nonneg "--imbalance" cfg.imbalance in
  let* () = opt (positive "--pool") cfg.pool in
  let* () = Shard.validate ?watchdog:cfg.watchdog ?trace:cfg.trace () in
  let* () =
    match cfg.migrate with
    | Some (w, _, _) when w < 0 -> Error "--migrate window must be nonnegative"
    | Some (_, f, _) when f < 0 || f >= cfg.shards ->
        Error "--migrate source shard out of range"
    | Some (_, _, t) when t < 0 || t >= cfg.shards ->
        Error "--migrate target shard out of range"
    | Some (_, f, t) when f = t -> Error "--migrate source and target must differ"
    | _ -> Ok ()
  in
  opt (positive "--rolling-restart") cfg.restart_every

let run cfg reqs =
  Result.iter_error invalid_arg (validate cfg);
  let nworkers =
    match cfg.pool with
    | Some p -> p
    | None -> max 1 (min cfg.shards (Domain.recommended_domain_count ()))
  in
  let ring = Route.make ~shards:cfg.shards ~replicas:cfg.replicas in
  let workers =
    Array.init nworkers (fun i ->
        Shard.create ~id:i ~image_cap:cfg.image_cap ?backend:cfg.backend
          ?inject:cfg.inject ?watchdog:cfg.watchdog ?trace:cfg.trace
          ~preload:cfg.preload ())
  in
  (* Outcome facts discovered so far.  A request not yet executed is
     assumed not to trip — the optimistic placement; a wrong guess is
     repaired by re-simulating below. *)
  let table : (int, Shard.outcome) Hashtbl.t = Hashtbl.create 256 in
  let fact (r : Workload.request) =
    match Hashtbl.find_opt table r.Workload.id with
    | Some o -> { f_latency = o.Shard.latency; f_tripped = o.Shard.tripped }
    | None -> { f_latency = 0; f_tripped = false }
  in
  let missing sim =
    List.filter
      (fun (r : Workload.request) ->
        Hashtbl.mem sim.sim_assign r.Workload.id
        && not (Hashtbl.mem table r.Workload.id))
      reqs
  in
  (* Execute what a placement admits and has no outcome yet, in one
     parallel map, each worker on its own shard state.  The first,
     optimistic placement runs nearly the whole campaign.  Trips it
     discovers can quarantine a shard and reroute later windows, which
     may admit a request that placement shed, so re-simulate and run
     the stragglers until nothing is missing.  Every round adds at
     least one outcome, so the loop terminates. *)
  let rec converge sim =
    match missing sim with
    | [] -> sim
    | need ->
        List.iter2
          (fun (r : Workload.request) o ->
            Hashtbl.replace table r.Workload.id o)
          need
          (Pool.map ~workers:nworkers (fun w r -> Shard.exec workers.(w) r)
             need);
        converge (simulate cfg ring ~fact reqs)
  in
  let sim = converge (simulate cfg ring ~fact reqs) in
  (* Rebuild the deterministic product: outcomes keyed by request id,
     attributed to their simulated shard; per-shard summaries replayed
     from the simulation; dispatch stats straight from it. *)
  let outcomes =
    List.filter_map
      (fun (r : Workload.request) ->
        match Hashtbl.find_opt sim.sim_assign r.Workload.id with
        | None -> None
        | Some s ->
            let o = Hashtbl.find table r.Workload.id in
            Some { o with Shard.shard_id = s })
      reqs
    |> List.sort by_id
  in
  let ok =
    List.fold_left
      (fun a (o : Shard.outcome) -> if o.Shard.ok then a + 1 else a)
      0 outcomes
  in
  let quarantined =
    Array.fold_left (fun a q -> if q then a + 1 else a) 0 sim.sim_quarantined
  in
  {
    models = model_of_sim cfg sim ~fact;
    outcomes;
    stats =
      {
        completed = List.length outcomes;
        ok;
        shed = sim.sim_shed;
        redistributed = sim.sim_redistributed;
        routed_hash = sim.sim_routed_hash;
        routed_balanced = sim.sim_routed_balanced;
        batches = sim.sim_batches;
        makespan = sim.sim_makespan;
        quarantined;
        migrated = sim.sim_migrated;
        restarts = sim.sim_restarts;
        peak_active = sim.sim_peak_active;
      };
    workers;
  }
