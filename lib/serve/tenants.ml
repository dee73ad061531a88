(* Seeded tenant-program generation for the multi-tenant arena, plus
   the domain-parallel campaign runner.

   A tenant population is a pure function of (profile, seed, count):
   the same xorshift64* stream that drives {!Workload} draws each
   tenant's kind and parameters, so two hosts — or two shard counts —
   build byte-identical populations.  The adversarial kinds are the
   attacks the paper's hardware checks are supposed to stop cold:

   - gate-squeeze:  downward call linked past the gate list;
   - ring-max:      a ring-4 caller hands a ring-1 service a pointer
                    to data only ring 1 may touch — the effective-ring
                    computation must bill the access to the caller;
   - stack-bracket: a store through a forged absolute ITS naming an
                    inner ring's stack segment;
   - cache-probe:   self-modifying code in a writable-executable
                    segment, hunting decoded-instruction-cache
                    desyncs;
   - quota-spin:    a tight loop that can only end by billing;
   - mem-hog:       a virtual memory larger than the memory quota,
                    refused at admission.

   Each succeeds only at getting itself contained or quarantined; the
   arena's auditors check nothing leaked in the process. *)

let acl_all access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]

let proc ring = Rings.Access.procedure_segment ~execute_in:ring ~callable_from:ring ()

let compute_source ~spins =
  Printf.sprintf
    "start:  lda =%d\n\
     loop:   sba =1\n\
    \        tnz loop\n\
    \        mme =2\n"
    spins

let spinner_source = "start:  tra start\n"

let stack_bracket_source =
  "start:  lda =7\n\
  \        sta fwd,*          ; forged ITS into the ring-1 stack\n\
  \        mme =2\n\
   fwd:    .its 0, 1, 0\n"

let cache_probe_source ~rounds =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta cnt\n\
     loop:   lda jmpw\n\
    \        sta patch          ; write the next instruction...\n\
     patch:  .word 0            ; ...then immediately execute it\n\
     next:   lda cnt\n\
    \        sba =1\n\
    \        sta cnt\n\
    \        tnz loop\n\
    \        mme =2\n\
     jmpw:   tra next\n\
     cnt:    .word 0\n"
    rounds

let mem_hog_source ~words =
  Printf.sprintf "start:  mme =2\nbig:    .zero %d\n" words

(* Channel rounds: post a transfer, poll the status word for the done
   flag the completion sets, repeat — the chaos reader's shape, sized
   per tenant.  Runs in ring 0 because SIOT is privileged. *)
let io_heavy_source ~buf ~rounds =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta pr6|5          ; transfer rounds\n\
     round:  lda =0\n\
    \        sta st,*           ; clear the status word\n\
    \        siot ccw,*\n\
     wait:   lda st,*\n\
    \        tmi got            ; done flag set by the channel\n\
    \        tra wait\n\
     got:    lda pr6|5\n\
    \        sba =1\n\
    \        sta pr6|5\n\
    \        tnz round\n\
    \        mme =2\n\
     ccw:    .its 0, %s$rdccw\n\
     st:     .its 0, %s$rdst\n"
    rounds buf buf

let io_buf_source = "rdccw:  .its 0, data\nrdst:   .word 8\ndata:   .zero 8\n"

(* A data segment spanning three pages; each labeled word sits on its
   own page, so one sweep under demand paging takes three page
   faults (plus the code page's). *)
let paging_data_source =
  "p0:     .word 1\n\
  \        .zero 1023\n\
   p1:     .word 2\n\
  \        .zero 1023\n\
   p2:     .word 3\n"

let paging_heavy_source ~dat ~rounds =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta pr6|5          ; sweep rounds\n\
     loop:   lda w0,*\n\
    \        ada w1,*\n\
    \        ada w2,*\n\
    \        lda pr6|5\n\
    \        sba =1\n\
    \        sta pr6|5\n\
    \        tnz loop\n\
    \        mme =2\n\
     w0:     .its 0, %s$p0\n\
     w1:     .its 0, %s$p1\n\
     w2:     .its 0, %s$p2\n"
    rounds dat dat dat

let privileged_data_source = "word0:  .word 7\n"

(* One segment-name prefix per tenant keeps every wave's store free of
   collisions and makes billing lines self-identifying. *)
let tenant ?(paged = false) ~id ~kind ~adversarial ~ring ~start segments =
  {
    Os.Arena.id;
    name = Printf.sprintf "t%04d" id;
    kind;
    adversarial;
    ring;
    paged;
    start;
    segments;
  }

let make_tenant ~id ~kind st =
  let p = Printf.sprintf "t%04d" id in
  let main = p ^ "main" and svc = p ^ "svc" and dat = p ^ "dat" in
  match kind with
  | "compute" ->
      let spins = 20 + (Workload.next st mod 100) in
      tenant ~id ~kind ~adversarial:false ~ring:4 ~start:(main, "start")
        [ (main, acl_all (proc 4), compute_source ~spins) ]
  | "crossing" ->
      let iterations = 2 + (Workload.next st mod 8) in
      tenant ~id ~kind ~adversarial:false ~ring:4 ~start:(main, "start")
        [
          ( main,
            acl_all (proc 4),
            Os.Scenario.caller_source ~callee_link:(svc ^ "$entry")
              ~iterations () );
          ( svc,
            acl_all
              (Rings.Access.procedure_segment ~execute_in:1 ~callable_from:4
                 ()),
            Os.Scenario.callee_source () );
        ]
  | "gate-squeeze" ->
      (* Link straight at the implementation, past the gate list: the
         hardware must refuse the downward transfer. *)
      tenant ~id ~kind ~adversarial:true ~ring:4 ~start:(main, "start")
        [
          ( main,
            acl_all (proc 4),
            Os.Scenario.caller_source ~callee_link:(svc ^ "$impl")
              ~iterations:1 () );
          ( svc,
            acl_all
              (Rings.Access.procedure_segment ~execute_in:1 ~callable_from:4
                 ()),
            Os.Scenario.callee_source () );
        ]
  | "ring-max" ->
      (* The argument names data only ring 1 may read or write; the
         ring-1 service touches it through the caller's ITS, so the
         effective ring is the caller's and the access must fault. *)
      tenant ~id ~kind ~adversarial:true ~ring:4 ~start:(main, "start")
        [
          ( main,
            acl_all (proc 4),
            Os.Scenario.caller_source ~arg_symbol:(dat ^ "$word0")
              ~callee_link:(svc ^ "$entry") ~iterations:1 () );
          ( svc,
            acl_all
              (Rings.Access.procedure_segment ~execute_in:1 ~callable_from:4
                 ()),
            Os.Scenario.callee_source ~touch_argument:true () );
          ( dat,
            acl_all
              (Rings.Access.data_segment ~writable_to:1 ~readable_to:1 ()),
            privileged_data_source );
        ]
  | "stack-bracket" ->
      tenant ~id ~kind ~adversarial:true ~ring:4 ~start:(main, "start")
        [ (main, acl_all (proc 4), stack_bracket_source) ]
  | "cache-probe" ->
      let rounds = 4 + (Workload.next st mod 12) in
      tenant ~id ~kind ~adversarial:true ~ring:4 ~start:(main, "start")
        [
          ( main,
            acl_all
              (Rings.Access.v ~read:true ~write:true ~execute:true
                 (Rings.Brackets.v ~r1:(Rings.Ring.v 4)
                    ~r2:(Rings.Ring.v 4) ~r3:(Rings.Ring.v 4))),
            cache_probe_source ~rounds );
        ]
  | "quota-spin" ->
      tenant ~id ~kind ~adversarial:true ~ring:4 ~start:(main, "start")
        [ (main, acl_all (proc 4), spinner_source) ]
  | "mem-hog" ->
      tenant ~id ~kind ~adversarial:true ~ring:4 ~start:(main, "start")
        [ (main, acl_all (proc 4), mem_hog_source ~words:8192) ]
  | "io-heavy" ->
      (* Honest channel traffic: keeps a transfer in flight most of
         the time, so injected channel errors and stalls land on this
         tenant's completions rather than only on the chaos reader. *)
      let rounds = 4 + (Workload.next st mod 8) in
      tenant ~id ~kind ~adversarial:false ~ring:0 ~start:(main, "start")
        [
          (main, acl_all (proc 0), io_heavy_source ~buf:dat ~rounds);
          ( dat,
            acl_all
              (Rings.Access.data_segment ~writable_to:0 ~readable_to:4 ()),
            io_buf_source );
        ]
  | "paging-heavy" ->
      (* Honest but memory-sprawling: demand-paged, sweeping a
         three-page data segment so its slices are dominated by page
         faults and frame traffic. *)
      let rounds = 2 + (Workload.next st mod 6) in
      tenant ~paged:true ~id ~kind ~adversarial:false ~ring:4
        ~start:(main, "start")
        [
          (main, acl_all (proc 4), paging_heavy_source ~dat ~rounds);
          ( dat,
            acl_all
              (Rings.Access.data_segment ~writable_to:4 ~readable_to:4 ()),
            paging_data_source );
        ]
  | k -> invalid_arg ("Tenants.make_tenant: unknown kind " ^ k)

(* (kind, weight) — the standard population is mostly honest, with a
   steady trickle of every attack. *)
let standard_kinds =
  [
    ("compute", 24);
    ("crossing", 19);
    ("io-heavy", 6);
    ("paging-heavy", 6);
    ("gate-squeeze", 9);
    ("ring-max", 9);
    ("stack-bracket", 9);
    ("cache-probe", 6);
    ("quota-spin", 9);
    ("mem-hog", 3);
  ]

let cooperative_kinds = [ ("compute", 55); ("crossing", 45) ]
let profiles = [ "standard"; "cooperative" ]

let kinds_of_profile = function
  | "standard" -> Ok standard_kinds
  | "cooperative" -> Ok cooperative_kinds
  | p ->
      Error
        (Printf.sprintf "unknown profile %s (expected %s)" p
           (String.concat " or " profiles))

(* The one place the arena's checks are written: the CLI prints the
   message and exits 2, [generate] and [run_sharded] raise it. *)
let validate ?profile ?tenants ?shards ?quota () =
  let ( let* ) = Result.bind in
  let at_least_1 flag = function
    | Some n when n < 1 -> Error (flag ^ " must be at least 1")
    | _ -> Ok ()
  in
  let positive flag n = if n < 1 then Error (flag ^ " must be positive") else Ok () in
  let nonneg flag n = if n < 0 then Error (flag ^ " must be nonnegative") else Ok () in
  let* () = at_least_1 "--tenants" tenants in
  let* () =
    match quota with
    | None -> Ok ()
    | Some (q : Os.Arena.quota) ->
        let* () = positive "--quota-cycles" q.cycles in
        let* () = positive "--quota-mem" q.mem in
        let* () = nonneg "--quota-faults" q.faults in
        nonneg "--quota-io" q.io
  in
  let* () = at_least_1 "--shards" shards in
  match profile with
  | None -> Ok ()
  | Some p ->
      Result.map ignore (kinds_of_profile p)
      |> Result.map_error (( ^ ) "--profile: ")

let generate ?(profile = "standard") ~seed ~tenants () =
  Result.iter_error invalid_arg (validate ~profile ~tenants ());
  let kinds = Result.get_ok (kinds_of_profile profile) in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 kinds in
  let st = ref (Workload.mix_seed seed) in
  let draw () =
    let r = Workload.next st mod total in
    let rec pick acc = function
      | [ (k, _) ] -> k
      | (k, w) :: rest -> if r < acc + w then k else pick (acc + w) rest
      | [] -> assert false
    in
    pick 0 kinds
  in
  let population =
    List.init tenants (fun id -> make_tenant ~id ~kind:(draw ()) st)
  in
  (* The acceptance gate wants at least one quarantine per standard
     campaign; guarantee it deterministically by drafting the last
     tenant as a spinner when the draw produced none. *)
  if
    profile = "standard"
    && not
         (List.exists
            (fun (t : Os.Arena.tenant) -> t.Os.Arena.kind = "quota-spin")
            population)
  then
    List.mapi
      (fun i t ->
        if i = tenants - 1 then
          make_tenant ~id:t.Os.Arena.id ~kind:"quota-spin" st
        else t)
      population
  else population

(* {1 The arena over shards}

   Waves are self-contained (own store and injector, a machine in its
   created state), so the fleet treatment is one {!Pool.map} over
   them.  {!Os.Arena.assemble}
   sorts, so the report is byte-identical to the sequential run — the
   same determinism contract the serving fleet keeps
   (docs/SCALING.md). *)

let run_sharded ?mode ?quantum ?inject ?(quota = Os.Arena.default_quota)
    ~shards ~seed tenants =
  Result.iter_error invalid_arg (validate ~shards ~quota ());
  (* One wave system per worker, built for its first wave and reset for
     each later one; slot [w] is only touched by worker [w]. *)
  let systems = Array.make shards None in
  let system w =
    match systems.(w) with
    | Some sys -> sys
    | None ->
        let sys = Os.System.create ?mode ~store:(Os.Store.create ()) () in
        systems.(w) <- Some sys;
        sys
  in
  Os.Arena.waves tenants
  |> Pool.map ~workers:shards (fun w (wave, ts) ->
         Os.Arena.run_wave ~sys:(system w) ?quantum ?inject ~quota ~wave ts)
  |> Os.Arena.assemble ~seed ~quota
