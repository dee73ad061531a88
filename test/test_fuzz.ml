(* Robustness: executing arbitrary bit patterns must never escape the
   simulated world.  Whatever a program does, the CPU either keeps
   running, halts, or faults — the only sanctioned exception is the
   runaway-indirection guard.  (On the real hardware this is the claim
   that no instruction sequence can bypass the access checks; here it
   also guards the simulator against crashes on malformed input.) *)

let xorshift seed =
  let s = ref (if seed = 0 then 0x2545F4914F6CDD1D else seed) in
  fun () ->
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    x land Hw.Word.mask

let build_fuzz_machine seed =
  let next = xorshift seed in
  let code = Array.init 64 (fun _ -> next ()) in
  let data = Array.init 64 (fun _ -> next ()) in
  let m =
    Fixtures.build
      ~segments:
        ([ (1, code, Rings.Access.v ~read:true ~execute:true (Rings.Brackets.of_ints 0 7 7));
           (9, data, Fixtures.data_ring 5);
         ]
        @ List.init 8 (fun r -> (r + 20, [||], Fixtures.data_ring r)))
      ()
  in
  Fixtures.set_ipr m ~ring:(seed land 7) ~segno:1 ~wordno:0;
  (* Random pointer registers, including ones aimed at nothing. *)
  for n = 0 to 7 do
    Hw.Registers.set_pr m.Isa.Machine.regs n
      (Hw.Registers.ptr
         ~ring:(next () land 7)
         ~segno:(next () land 31)
         ~wordno:(next () land 63))
  done;
  m

let prop_cpu_never_escapes =
  QCheck.Test.make ~name:"CPU never raises on arbitrary programs" ~count:300
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let m = build_fuzz_machine seed in
      let rec run n =
        if n = 0 then true
        else
          match Isa.Cpu.step m with
          | Isa.Cpu.Running -> run (n - 1)
          | Isa.Cpu.Halted -> true
          | Isa.Cpu.Faulted _ ->
              (* A trap would enter the supervisor; for the fuzz we
                 simply resume at the next word. *)
              let regs = m.Isa.Machine.regs in
              m.Isa.Machine.saved <- None;
              regs.Hw.Registers.ipr_ring <- Rings.Ring.v (n land 7);
              run (n - 1)
          | exception Isa.Eff_addr.Runaway_indirection _ -> true
      in
      run 100)

(* {1 The fast path against the uncached machine}

   Every host cache and memo (SDW LRU, PTW TLB, decoded-instruction
   cache, fetch and translation memos) must be invisible to the model.
   [Isa.Machine.degrade] turns them all off, which makes a degraded
   machine the reference: run one random program on a fresh machine
   and on a degraded one, and every step outcome, fault, register,
   memory word and modeled counter must agree.  Only [degraded] (which
   [degrade] bumps) and the nine host-cache counters may differ.

   Four kinds of program share one layout: arbitrary words (the
   generator above), decodable instructions with PR-relative, indexed
   and indirect operands over a segment of indirect words, the same
   with code and data in paged segments, and code that stores into its
   own segment and loops back over what it stored. *)

let host_cache_counters =
  [
    "degraded";
    "sdw_cache_hits";
    "sdw_cache_misses";
    "sdw_cache_evictions";
    "ptw_tlb_hits";
    "ptw_tlb_misses";
    "ptw_tlb_evictions";
    "icache_hits";
    "icache_misses";
    "icache_evictions";
  ]

let diff_modes =
  Isa.Machine.[ Ring_hardware; Ring_software_645; Ring_capability ]

type program_kind = Arbitrary | Operands | Paged | Self_modifying

let program_kinds = [| Arbitrary; Operands; Paged; Self_modifying |]

let code_segno = 1
let data_segno = 9
let paged_segno = 12

(* Segments an operand may aim at: code, the indirect-word segment,
   the paged segment and the eight per-ring stacks. *)
let operand_segnos = [| code_segno; data_segno; paged_segno; 20; 21; 24; 27 |]

let pick next a = a.(next () mod Array.length a)

let operand_opcodes =
  Isa.Opcode.
    [|
      LDA; STA; LDQ; STQ; LDX; STX; ADA; SBA; MPA; DVA; ANA; ORA; XRA; CMPA;
      AOS; STZ; ALS; ARS; TRA; TZE; TNZ; TMI; TPL; TSX; EAP; SPR; EAA; CALL;
      RETN; NOP; LDA; STA; AOS; LDA;
    |]

(* A word number that lands near a page boundary of the paged segment
   (page 1 is absent) or anywhere in a small segment. *)
let operand_wordno next segno =
  if segno = paged_segno then
    ((next () mod 3) * Hw.Paging.page_size) + (next () mod 24)
  else next () mod 40

let random_instruction next kind =
  let base =
    match next () mod 8 with
    | 0 -> Isa.Instr.Immediate
    | 1 | 2 -> Isa.Instr.Ipr_relative
    | _ -> Isa.Instr.Pr (next () mod 8)
  in
  let op =
    if kind = Self_modifying && next () mod 3 = 0 then
      pick next Isa.Opcode.[| STA; STQ; AOS; STZ; SPR |]
    else pick next operand_opcodes
  in
  let offset =
    match base with
    | Isa.Instr.Ipr_relative -> next () mod 64
    | Isa.Instr.Immediate -> next () land ((1 lsl 18) - 1)
    | Isa.Instr.Pr _ ->
        if kind = Paged && next () mod 2 = 0 then
          operand_wordno next paged_segno
        else next () mod 24
  in
  Isa.Instr.encode
    (Isa.Instr.v ~base
       ~indirect:(next () mod 3 = 0)
       ~indexed:(next () mod 4 = 0)
       ~xr:(next () mod 8) ~offset op)

let indirect_word next =
  let segno = pick next operand_segnos in
  Isa.Indword.encode
    (Isa.Indword.v
       ~indirect:(next () mod 4 = 0)
       ~ring:(next () land 7) ~segno
       ~wordno:(operand_wordno next segno)
       ())

(* One machine per (mode, seed, kind).  Code is segment 1, indirect
   words segment 9, the three-page data segment 12 is paged with page
   1 absent, and segments 20-27 are per-ring data.  Under [Paged] the
   code segment is paged too; under [Self_modifying] it is writable
   from ring 4, where it runs, and ends in a transfer back to word 0. *)
let build_diff_machine mode seed kind =
  let next = xorshift seed in
  let m = Isa.Machine.create ~mode ~mem_size:(1 lsl 18) () in
  let mem = m.Isa.Machine.mem in
  let dbr = { Hw.Registers.base = 0; bound = 64; stack_base = 0 } in
  m.Isa.Machine.regs.Hw.Registers.dbr <- dbr;
  let code =
    Array.init 64 (fun i ->
        match kind with
        | Arbitrary -> next ()
        | Self_modifying when i = 63 ->
            Isa.Instr.encode (Isa.Instr.v Isa.Opcode.TRA)
        | _ -> random_instruction next kind)
  in
  let data =
    Array.init 64 (fun _ ->
        match kind with
        | Arbitrary -> next ()
        | Self_modifying when next () mod 2 = 0 -> random_instruction next kind
        | _ -> if next () mod 4 = 0 then next () else indirect_word next)
  in
  let code_access =
    match kind with
    | Self_modifying ->
        Rings.Access.v ~read:true ~write:true ~execute:true
          (Rings.Brackets.of_ints 4 7 7)
    | _ ->
        Rings.Access.v ~read:true ~execute:true (Rings.Brackets.of_ints 0 7 7)
  in
  let next_free = ref 1024 in
  let alloc words =
    let base = !next_free in
    next_free := !next_free + words;
    base
  in
  let unpaged segno words access =
    let bound = Hw.Sdw.round_bound (max (Array.length words) 16) in
    let base = alloc bound in
    Hw.Descriptor.store_sdw mem dbr ~segno (Hw.Sdw.v ~base ~bound access);
    Hw.Memory.blit_silent mem base words
  in
  (* A paged segment: one frame per present page, a page table word
     per page; [absent] pages have no frame. *)
  let paged segno words ~pages ~absent access =
    let pt = alloc 16 in
    next_free := (!next_free + Hw.Paging.page_size - 1) land lnot (Hw.Paging.page_size - 1);
    for page = 0 to pages - 1 do
      let ptw =
        if List.mem page absent then Hw.Paging.absent_ptw
        else begin
          let frame = alloc Hw.Paging.page_size in
          let first = page * Hw.Paging.page_size in
          if first < Array.length words then
            Hw.Memory.blit_silent mem frame
              (Array.sub words first
                 (min Hw.Paging.page_size (Array.length words - first)));
          { Hw.Paging.present = true; frame_base = frame }
        end
      in
      Hw.Memory.write_silent mem (pt + page) (Hw.Paging.encode_ptw ptw)
    done;
    Hw.Descriptor.store_sdw mem dbr ~segno
      (Hw.Sdw.v ~paged:true ~base:pt ~bound:(pages * Hw.Paging.page_size)
         access)
  in
  if kind = Paged then paged code_segno code ~pages:2 ~absent:[ 1 ] code_access
  else unpaged code_segno code code_access;
  unpaged data_segno data (Fixtures.data_ring 5);
  paged paged_segno
    (Array.init (3 * Hw.Paging.page_size) (fun _ ->
         if next () mod 2 = 0 then indirect_word next else next ()))
    ~pages:3 ~absent:[ 1 ] (Fixtures.data_ring 6);
  for r = 0 to 7 do
    unpaged (20 + r) (Array.init 16 (fun _ -> indirect_word next))
      (Fixtures.data_ring r)
  done;
  let ring = if kind = Self_modifying then 4 else seed land 7 in
  Fixtures.set_ipr m ~ring ~segno:code_segno ~wordno:0;
  for n = 0 to 7 do
    let segno = pick next operand_segnos in
    Hw.Registers.set_pr m.Isa.Machine.regs n
      (Hw.Registers.ptr ~ring:(next () land 7) ~segno
         ~wordno:(operand_wordno next segno))
  done;
  m.Isa.Machine.timer <- 5 + (next () mod 60);
  m

(* Step [steps] times.  A fault is recorded, then the run resumes one
   word past the faulting instruction, uninhibited, in a ring chosen by
   the step count, so one program reaches many faults and runs code
   cached in one ring from another.  Returns the outcomes, most recent
   first. *)
let diff_run m ~steps =
  let rec go n acc =
    if n = 0 then acc
    else
      match Isa.Cpu.step m with
      | Isa.Cpu.Halted -> `Step Isa.Cpu.Halted :: acc
      | Isa.Cpu.Running -> go (n - 1) (`Step Isa.Cpu.Running :: acc)
      | Isa.Cpu.Faulted _ as o ->
          (match m.Isa.Machine.saved with
          | Some { Isa.Machine.regs = saved; _ } ->
              let regs = m.Isa.Machine.regs in
              Hw.Registers.set_ipr regs (Hw.Registers.ipr saved);
              Hw.Registers.advance_ipr regs;
              regs.Hw.Registers.ipr_ring <- Rings.Ring.v (n land 7)
          | None -> ());
          m.Isa.Machine.saved <- None;
          m.Isa.Machine.inhibit <- false;
          go (n - 1) (`Step o :: acc)
      | exception Isa.Eff_addr.Runaway_indirection a -> `Runaway a :: acc
  in
  go steps []

let modeled_counters m =
  Trace.Counters.fields (Trace.Counters.snapshot m.Isa.Machine.counters)
  |> List.filter (fun (name, _) -> not (List.mem name host_cache_counters))

let memory_image m =
  let mem = m.Isa.Machine.mem in
  Array.init (Hw.Memory.size mem) (Hw.Memory.read_silent mem)

let prop_fast_path_matches_uncached =
  QCheck.Test.make ~name:"fast path matches the degraded machine" ~count:120
    QCheck.(pair (int_range 1 1_000_000) (int_bound 3))
    (fun (seed, k) ->
      let kind = program_kinds.(k) in
      List.for_all
        (fun mode ->
          let fast = build_diff_machine mode seed kind in
          let slow = build_diff_machine mode seed kind in
          Isa.Machine.degrade slow;
          let fast_trace = diff_run fast ~steps:300 in
          let slow_trace = diff_run slow ~steps:300 in
          let name = Rings.Backend.to_string (Isa.Machine.backend_of_mode mode) in
          let agree what ok =
            ok || QCheck.Test.fail_reportf "%s: %s differ" name what
          in
          agree "step outcomes" (fast_trace = slow_trace)
          && agree "registers" (fast.Isa.Machine.regs = slow.Isa.Machine.regs)
          && agree "modeled counters"
               (modeled_counters fast = modeled_counters slow)
          && agree "memory words" (memory_image fast = memory_image slow))
        diff_modes)

(* The same property under the kernel with a full process environment:
   random code in a user segment, kernel servicing traps. *)
let prop_kernel_never_escapes =
  QCheck.Test.make ~name:"kernel never raises on arbitrary programs"
    ~count:150 (QCheck.int_range 1 1_000_000) (fun seed ->
      let next = xorshift seed in
      let words = Array.init 48 (fun _ -> next ()) in
      let store = Os.Store.create () in
      Os.Store.add_data store ~name:"junk"
        ~acl:
          [
            {
              Os.Acl.user = Os.Acl.wildcard;
              access =
                Rings.Access.v ~read:true ~execute:true
                  (Rings.Brackets.of_ints 4 4 7);
            };
          ]
        ~words;
      let p = Os.Process.create ~store ~user:"fuzz" () in
      (match Os.Process.add_segment p "junk" with
      | Ok () -> ()
      | Error _ -> ());
      let regs = p.Os.Process.machine.Isa.Machine.regs in
      Hw.Registers.set_ipr regs
        { Hw.Registers.ring = Rings.Ring.v 4; addr = Hw.Addr.v ~segno:10 ~wordno:0 };
      match Os.Kernel.run ~max_instructions:200 p with
      | _ -> true
      | exception Isa.Eff_addr.Runaway_indirection _ -> true)

(* The same kernel-level robustness, with demand paging enabled: page
   faults interleave with whatever the random program does. *)
let prop_kernel_never_escapes_paged =
  QCheck.Test.make ~name:"kernel never raises with paging on" ~count:100
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let next = xorshift seed in
      let words = Array.init 48 (fun _ -> next ()) in
      let store = Os.Store.create () in
      Os.Store.add_data store ~name:"junk"
        ~acl:
          [
            {
              Os.Acl.user = Os.Acl.wildcard;
              access =
                Rings.Access.v ~read:true ~execute:true
                  (Rings.Brackets.of_ints 4 4 7);
            };
          ]
        ~words;
      let p =
        Os.Process.create ~paged:true ~frame_pool:2 ~store ~user:"fuzz" ()
      in
      (match Os.Process.add_segment p "junk" with
      | Ok () -> ()
      | Error _ -> ());
      let regs = p.Os.Process.machine.Isa.Machine.regs in
      Hw.Registers.set_ipr regs
        { Hw.Registers.ring = Rings.Ring.v 4; addr = Hw.Addr.v ~segno:10 ~wordno:0 };
      match Os.Kernel.run ~max_instructions:200 p with
      | _ -> true
      | exception Isa.Eff_addr.Runaway_indirection _ -> true)

(* Under seeded fault injection the multiprogrammed system must stay
   inside the same envelope: System.run returns documented exits, the
   protection invariants hold after every recovery, and nothing
   escapes as a host exception.  Chaos.run_campaigns folds all three
   into its violations list (uncaught exceptions included). *)
let prop_system_survives_default_plan_injection =
  QCheck.Test.make
    ~name:"system holds ring invariants under default-plan injection"
    ~count:25 (QCheck.int_range 1 1_000_000) (fun seed ->
      let r =
        Os.Chaos.run_campaigns ~campaigns:1 (Hw.Inject.default_plan ~seed)
      in
      r.Os.Chaos.violations = [])

(* The same property under arbitrary plans: random rule mixes, tight
   or zero budgets, stalls of any length. *)
let random_plan seed =
  let next = xorshift seed in
  let rules =
    List.init
      (1 + (next () mod 4))
      (fun _ ->
        let action =
          match next () mod 5 with
          | 0 -> Hw.Inject.Flip_bit
          | 1 -> Hw.Inject.Corrupt_descriptor
          | 2 -> Hw.Inject.Transient_fault
          | 3 -> Hw.Inject.Io_error
          | _ -> Hw.Inject.Io_stall (1 + (next () mod 200))
        in
        {
          Hw.Inject.start = next () mod 3000;
          every = Some (1 + (next () mod 1500));
          count = 1 + (next () mod 8);
          action;
        })
  in
  {
    Hw.Inject.seed;
    fault_budget = next () mod 6;
    io_retry_limit = next () mod 4;
    rules;
  }

let prop_system_survives_arbitrary_plans =
  QCheck.Test.make
    ~name:"system holds ring invariants under arbitrary injection plans"
    ~count:25 (QCheck.int_range 1 1_000_000) (fun seed ->
      let r = Os.Chaos.run_campaigns ~campaigns:1 (random_plan seed) in
      r.Os.Chaos.violations = [])

(* The arena's zero-leak gate, fuzzed: whatever population the tenant
   generator draws — gate squeezers, ring maximizers, stack-bracket
   forgers, cache probes, spinners — the SDW and cross-tenant auditors
   must stay silent after every quarantine and at every wave end, and
   every exit must be a sanctioned verdict. *)
let prop_arena_never_leaks =
  QCheck.Test.make
    ~name:"no adversarial tenant population trips the cross-tenant auditor"
    ~count:20 (QCheck.int_range 1 1_000_000) (fun seed ->
      let tenants =
        Serve.Tenants.generate ~seed ~tenants:(8 + (seed mod 9)) ()
      in
      let r = Os.Arena.run ~seed tenants in
      r.Os.Arena.violations = [] && r.Os.Arena.audits > 0
      && List.for_all
           (fun (b : Os.Arena.bill) ->
             match b.Os.Arena.verdict with
             | "ok" | "contained" | "over budget" -> true
             | v ->
                 String.length v >= 11 && String.sub v 0 11 = "quarantined"
           )
           r.Os.Arena.bills)

(* Kill-and-resume, fuzzed: whatever the workload sizes, the quantum
   and the checkpoint cycle, a run resumed from a mid-flight image must
   finish indistinguishable (counters, exits, memory) from the run that
   was never interrupted. *)
let prop_checkpoint_restore_is_transparent =
  QCheck.Test.make ~name:"checkpoint/restore is invisible to the run"
    ~count:25
    QCheck.(
      quad (int_range 15 60) (int_range 15 60) (int_range 5 60)
        (int_range 10 100))
    (fun (n1, n2, quantum, at) ->
      let straight = Test_snapshot.fresh_system ~n1 ~n2 () in
      let image = ref None in
      let on_slice () =
        if
          !image = None
          && Trace.Counters.cycles
               (Os.System.machine straight).Isa.Machine.counters
             >= at
        then image := Some (Os.Snapshot.capture straight)
      in
      let (_ : (string * Os.Kernel.exit) list) =
        Os.System.run ~quantum ~on_slice straight
      in
      match !image with
      | None -> QCheck.Test.fail_report "run finished before the checkpoint"
      | Some img -> (
          let resumed = Test_snapshot.fresh_system ~n1 ~n2 () in
          match Os.Snapshot.restore resumed img with
          | Error e ->
              QCheck.Test.fail_reportf "restore: %a" Os.Snapshot.pp_error e
          | Ok () ->
              let (_ : (string * Os.Kernel.exit) list) =
                Os.System.run ~quantum resumed
              in
              Test_snapshot.comparable_fields straight
              = Test_snapshot.comparable_fields resumed
              && Os.System.finished_log straight
                 = Os.System.finished_log resumed
              && Test_snapshot.memory_words straight
                 = Test_snapshot.memory_words resumed))

(* Mutation fuzzing of real images: a full base image and a three-delta
   chain, one image damaged per case — a flipped bit, a truncation, or
   a payload word overwritten with a large or negative value under a
   recomputed checksum, so the damage gets past the header check and
   reaches the decoder.  Every entry point that takes an untrusted
   image must answer [Ok] or a typed [Error] and never raise.  The
   chain and the system restored onto are built once: a failed restore
   leaves no state a later restore depends on. *)
let real_chain =
  lazy
    (let _, chain, base, deltas = Test_snapshot.chain_of ~n:3 () in
     (Test_snapshot.fresh_system (), chain, base, deltas))

let inflated = [| max_int; min_int; -1; 1 lsl 50; 1 lsl 32; -(1 lsl 40) |]

let prop_damaged_images_end_in_typed_errors =
  QCheck.Test.make ~name:"damaged snapshot images end in typed errors"
    ~count:60
    QCheck.(
      quad (int_bound 3) (int_bound 2) (int_bound 1_000_000)
        (int_bound (Array.length inflated - 1)))
    (fun (target, mutation, at, v) ->
      let sys, chain, base, deltas = Lazy.force real_chain in
      let images = Array.of_list (base :: deltas) in
      let image = images.(target) in
      let n = String.length image in
      let damaged =
        match mutation with
        | 0 ->
            let b = Bytes.of_string image in
            let i = at mod (8 * n) in
            Bytes.set b (i / 8)
              (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
            Bytes.to_string b
        | 1 -> String.sub image 0 (at mod n)
        | _ ->
            Test_snapshot.overwrite image
              (32 + (8 * (at mod ((n - 32) / 8))))
              inflated.(v)
      in
      images.(target) <- damaged;
      (* The chain up to the damaged image, so a damaged delta is the
         one whose pre and post the fold keeps. *)
      let base = images.(0) in
      let deltas = List.init target (fun i -> images.(i + 1)) in
      let typed what f =
        match f () with
        | Ok _ | Error (_ : Os.Snapshot.error) -> true
        | exception e ->
            QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
      in
      typed "restore" (fun () -> Os.Snapshot.restore sys damaged)
      && typed "warm_boot" (fun () -> Os.Snapshot.warm_boot sys damaged)
      && typed "flatten" (fun () -> Os.Snapshot.flatten ~base deltas)
      && typed "rebase" (fun () -> Os.Snapshot.rebase chain ~base:damaged)
      && typed "restore_chain" (fun () ->
             Os.Snapshot.restore_chain sys ~base deltas))

(* {1 Untrusted text}

   Program files and injection plans come from outside: mutated texts
   must end in [Ok] or [Error], never in an exception.  The mutations
   aim where the loaders once fell over — header rings and brackets,
   values that are not numbers, duplicate names, word counts — plus
   blind byte flips and cuts. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Read when the property first runs; the test runs in _build/default/test. *)
let example_programs =
  lazy
    (let dir = "../examples/programs" in
     Sys.readdir dir |> Array.to_list |> List.sort compare
     |> List.filter (fun f -> Filename.check_suffix f ".rng")
     |> List.map (fun f -> read_file (Filename.concat dir f))
     |> Array.of_list)

let odd_numbers = [| -1; 8; 1 lsl 40 |]

(* What a header number may be rewritten to: the odd numbers, text
   that is no number at all, and nothing. *)
let odd_values = Array.append (Array.map string_of_int odd_numbers) [| "x"; "" |]

(* What a mutation may touch in one kind of text: its header lines
   (whose numbers are rewritten and which are duplicated), and an extra
   line to insert, built from a selector and one of [odd_numbers]. *)
type shape = { header : string -> bool; extra : int -> int -> string }

(* Word counts: negative, past the 2^18-word segment limit, far past
   it, and just under it — a segment that fits the 2^18 limit but not
   what is left of its process's 2^18-word region. *)
let rng_shape =
  {
    header = (fun l -> String.length l > 0 && l.[0] = '%');
    extra =
      (fun a _ ->
        let v = [| -1; (1 lsl 18) + 1; 1 lsl 40; 262_000 |].(a mod 4) in
        Printf.sprintf "        %s %d" (if a land 4 = 0 then ".zero" else ".org") v);
  }

let plan_shape =
  {
    header = (fun l -> String.trim l <> "");
    extra =
      (fun a v ->
        if a land 1 = 0 then Printf.sprintf "rule io_stall start=%d cycles=%d" v v
        else Printf.sprintf "seed %d" v);
  }

(* Replace one number of [line]: a [key=N] value or a bare [N]. *)
let renumber line pick v =
  let words = String.split_on_char ' ' line in
  let key w = Option.map (fun i -> String.sub w 0 (i + 1)) (String.index_opt w '=') in
  let value w =
    let k = Option.fold ~none:0 ~some:String.length (key w) in
    int_of_string_opt (String.sub w k (String.length w - k))
  in
  match List.filter (fun w -> value w <> None) words with
  | [] -> line
  | numeric ->
      let target = List.nth numeric (pick mod List.length numeric) in
      List.map
        (fun w -> if w == target then Option.value (key w) ~default:"" ^ v else w)
        words
      |> String.concat " "

(* One mutation of [text], chosen by [kind] and placed by [a], [b]. *)
let mutate shape text (kind, a, b) =
  let len = String.length text in
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  let headers = List.filter shape.header lines in
  let insert at line =
    List.concat (List.mapi (fun i l -> if i = at then [ line; l ] else [ l ]) lines)
    @ if at >= n then [ line ] else []
  in
  let v = odd_numbers.(b mod Array.length odd_numbers) in
  match kind with
  | 0 when len > 0 ->
      String.mapi (fun i c -> if i = a mod len then Char.chr (b land 255) else c) text
  | 1 -> String.sub text 0 (a mod (len + 1))
  | 2 when headers <> [] ->
      let h = List.nth headers (a mod List.length headers) in
      let v = odd_values.(b mod Array.length odd_values) in
      String.concat "\n" (List.map (fun l -> if l == h then renumber l (b / 7) v else l) lines)
  | 3 when headers <> [] ->
      String.concat "\n"
        (insert (b mod (n + 1)) (List.nth headers (a mod List.length headers)))
  | _ -> String.concat "\n" (insert (b mod (n + 1)) (shape.extra a v))

(* A base text and one to three mutations, printed as the mutated text. *)
let mutated shape bases =
  let apply (i, ms) =
    let bases = Lazy.force bases in
    List.fold_left (mutate shape) bases.(i mod Array.length bases) ms
  in
  ( apply,
    QCheck.make ~print:apply
      QCheck.Gen.(
        pair (int_bound 1_000)
          (list_size (int_range 1 3)
             (triple (int_bound 4) (int_bound 1_000_000) (int_bound 1_000_000))))
  )

let never_raises what f =
  match f () with
  | () -> true
  | exception e ->
      QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

(* The whole load path ringsim takes: parse, the listing's standalone
   assembly, the store, then spawn (with %process lines) or load and
   start (without).  A spawn that succeeds must have kept every
   process inside its own region: the cross-tenant auditor's findings
   come back, and must be none. *)
let load_program text =
  match Os.Program.parse text with
  | Error _ -> []
  | Ok prog ->
      List.iter
        (fun (s : Os.Program.segment) -> ignore (Asm.Assemble.assemble s.source))
        prog.segments;
      let store = Os.Program.store prog in
      if prog.processes = [] then begin
        let p = Os.Process.create ~store ~user:"operator" () in
        ignore (Os.Program.load p prog ~start:"main" ~ring:4);
        []
      end
      else
        let sys = Os.System.create ~store () in
        match Os.Program.spawn sys prog with
        | Error _ -> []
        | Ok () -> Os.Chaos.check_cross_tenant sys

let prop_program_files_end_in_typed_errors =
  let apply, arb = mutated rng_shape example_programs in
  QCheck.Test.make ~name:"mutated .rng files end in typed errors" ~count:600 arb
    (fun input ->
      let found = ref [] in
      never_raises "program load" (fun () -> found := load_program (apply input))
      && (!found = []
         || QCheck.Test.fail_reportf "spawned across regions: %s"
              (String.concat "; " !found)))

let example_plans =
  Lazy.from_val @@ Array.map
    (fun p -> Format.asprintf "%a" Hw.Inject.pp_plan p)
    [|
      Hw.Inject.default_plan ~seed:1;
      {
        (Hw.Inject.default_plan ~seed:2) with
        Hw.Inject.rules =
          List.map
            (fun action -> { Hw.Inject.start = 10; every = Some 7; count = 3; action })
            Hw.Inject.[ Flip_bit; Corrupt_descriptor; Transient_fault; Io_error; Io_stall 9 ];
      };
    |]

let prop_plans_end_in_typed_errors =
  let apply, arb = mutated plan_shape example_plans in
  QCheck.Test.make ~name:"mutated injection plans end in typed errors"
    ~count:500 arb (fun input ->
      never_raises "parse_plan" (fun () ->
          ignore (Hw.Inject.parse_plan (apply input))))

let suite =
  [
    ( "fuzz",
      [
        QCheck_alcotest.to_alcotest prop_cpu_never_escapes;
        QCheck_alcotest.to_alcotest prop_fast_path_matches_uncached;
        QCheck_alcotest.to_alcotest prop_kernel_never_escapes;
        QCheck_alcotest.to_alcotest prop_kernel_never_escapes_paged;
        QCheck_alcotest.to_alcotest prop_system_survives_default_plan_injection;
        QCheck_alcotest.to_alcotest prop_system_survives_arbitrary_plans;
        QCheck_alcotest.to_alcotest prop_arena_never_leaks;
        QCheck_alcotest.to_alcotest prop_checkpoint_restore_is_transparent;
        QCheck_alcotest.to_alcotest prop_damaged_images_end_in_typed_errors;
        QCheck_alcotest.to_alcotest prop_program_files_end_in_typed_errors;
        QCheck_alcotest.to_alcotest prop_plans_end_in_typed_errors;
      ] );
  ]

