(* Regeneration of the paper's Figures 1-9.  Each [figN] prints the
   figure's content as tables (allow/deny matrices, decision tables,
   storage formats) and, where meaningful, a Bechamel wall-clock
   micro-benchmark of the simulated mechanism. *)

let yes_no b = if b then "yes" else "-"
let r = Rings.Ring.v
let eff ring = Rings.Effective_ring.start (r ring)

(* The figures themselves are diagrams of brackets along the ring
   axis; render them the same way. *)
let bracket_diagram (access : Rings.Access.t) =
  let b = access.Rings.Access.brackets in
  let span name ~from_ring ~to_ring ~on =
    let cells =
      List.map
        (fun ring ->
          if on && ring >= from_ring && ring <= to_ring then "###" else "   ")
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    in
    Printf.printf "  %-16s|%s|
" name (String.concat "|" cells)
  in
  print_string "  ring            | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 |
";
  span "write bracket" ~from_ring:0
    ~to_ring:(Rings.Ring.to_int (Rings.Brackets.write_bracket_top b))
    ~on:access.Rings.Access.write;
  span "read bracket" ~from_ring:0
    ~to_ring:(Rings.Ring.to_int (Rings.Brackets.read_bracket_top b))
    ~on:access.Rings.Access.read;
  span "execute bracket"
    ~from_ring:(Rings.Ring.to_int (Rings.Brackets.execute_bracket_bottom b))
    ~to_ring:(Rings.Ring.to_int (Rings.Brackets.execute_bracket_top b))
    ~on:access.Rings.Access.execute;
  span "gate extension"
    ~from_ring:(Rings.Ring.to_int (Rings.Brackets.execute_bracket_top b) + 1)
    ~to_ring:(Rings.Ring.to_int (Rings.Brackets.gate_extension_top b))
    ~on:(access.Rings.Access.execute && access.Rings.Access.gates > 0);
  print_newline ()

let access_matrix ~title (access : Rings.Access.t) =
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("ring", Trace.Tablefmt.Right);
          ("read", Trace.Tablefmt.Left);
          ("write", Trace.Tablefmt.Left);
          ("execute", Trace.Tablefmt.Left);
          ("call gate", Trace.Tablefmt.Left);
        ]
  in
  List.iter
    (fun ring ->
      let can cap = Rings.Policy.permitted access ~ring cap in
      Trace.Tablefmt.add_row t
        [
          string_of_int (Rings.Ring.to_int ring);
          yes_no (can Rings.Policy.Read);
          yes_no (can Rings.Policy.Write);
          yes_no (can Rings.Policy.Execute);
          yes_no (can Rings.Policy.Call_gate);
        ])
    Rings.Ring.all;
  Trace.Tablefmt.print ~title t;
  print_newline ()

(* Fig. 1: example access indicators for a writable data segment. *)
let fig1 () =
  let access = Rings.Access.data_segment ~writable_to:4 ~readable_to:5 () in
  Format.printf "Fig. 1 access fields: %a@." Rings.Access.pp access;
  bracket_diagram access;
  access_matrix
    ~title:"Fig. 1 - writable data segment (R,W on; W bracket 0-4, R bracket 0-5)"
    access;
  Bench_util.print_table ~title:"Fig. 1 - validation micro-benchmark"
    (Bench_util.measure
       [
         ( "validate_read (allowed)",
           fun () ->
             ignore (Rings.Policy.validate_read access ~effective:(eff 3)) );
         ( "validate_read (denied)",
           fun () ->
             ignore (Rings.Policy.validate_read access ~effective:(eff 7)) );
         ( "validate_write (allowed)",
           fun () ->
             ignore (Rings.Policy.validate_write access ~effective:(eff 3)) );
       ]);
  print_newline ()

(* Fig. 2: example access indicators for a pure procedure segment
   which contains gates. *)
let fig2 () =
  let access =
    Rings.Access.v ~read:true ~execute:true ~gates:2
      (Rings.Brackets.of_ints 3 4 6)
  in
  Format.printf "Fig. 2 access fields: %a@." Rings.Access.pp access;
  bracket_diagram access;
  access_matrix
    ~title:
      "Fig. 2 - pure procedure with gates (R,E on; E bracket 3-4, gate extension 5-6)"
    access;
  (* The CALL outcomes per ring complete the figure: which rings enter
     through the gate, which execute directly, which are refused. *)
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("calling ring", Trace.Tablefmt.Right);
          ("CALL word 0 (gate)", Trace.Tablefmt.Left);
          ("CALL word 5 (not a gate)", Trace.Tablefmt.Left);
        ]
  in
  let outcome wordno ring =
    match
      Rings.Call.validate access ~exec:(r ring) ~effective:(eff ring)
        ~segno:1 ~wordno ~same_segment:false
    with
    | Ok { Rings.Call.new_ring; crossing = Rings.Call.Downward; _ } ->
        Printf.sprintf "downward to ring %d" (Rings.Ring.to_int new_ring)
    | Ok { Rings.Call.crossing = Rings.Call.Same_ring; _ } -> "same-ring"
    | Error f -> Rings.Fault.to_string f
  in
  List.iter
    (fun ring ->
      Trace.Tablefmt.add_row t
        [ string_of_int ring; outcome 0 ring; outcome 5 ring ])
    [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  Trace.Tablefmt.print ~title:"Fig. 2 - CALL outcomes per calling ring" t;
  print_newline ()

(* Fig. 3: storage formats. *)
let fig3 () =
  print_endline "Fig. 3 - storage formats";
  print_endline "========================";
  print_endline
    "SDW word 0:  [35] present | [14..34] base/21 | [0..13] bound/14 (x16 words)";
  print_endline
    "SDW word 1:  [33..35] R1 | [30..32] R2 | [27..29] R3 | [26] R | [25] W | [24] E | [10..23] gates/14";
  print_endline
    "INS:         [27..35] opcode/9 | [23..26] base/4 | [22] I | [21] X? | [18..20] xr/3 | [0..17] offset/18";
  print_endline
    "IND/PR/IPR:  [33..35] ring/3 | [32] I | [18..31] segno/14 | [0..17] wordno/18";
  print_newline ();
  let sdw =
    Hw.Sdw.v ~base:0o1234560 ~bound:2048
      (Rings.Access.v ~read:true ~execute:true ~gates:2
         (Rings.Brackets.of_ints 3 4 6))
  in
  let w0, w1 = Hw.Sdw.encode sdw in
  Format.printf "example SDW   %a -> %a %a@." Hw.Sdw.pp sdw Hw.Word.pp_octal
    w0 Hw.Word.pp_octal w1;
  let instr =
    Isa.Instr.v ~base:(Isa.Instr.Pr 2) ~indirect:true ~offset:5
      Isa.Opcode.LDA
  in
  Format.printf "example INS   %a -> %a@." Isa.Instr.pp instr
    Hw.Word.pp_octal (Isa.Instr.encode instr);
  let ind = Isa.Indword.v ~ring:4 ~segno:100 ~wordno:0o52 () in
  Format.printf "example IND   %a -> %a@." Isa.Indword.pp ind
    Hw.Word.pp_octal (Isa.Indword.encode ind);
  (* Round-trip totality over a pseudo-random sample. *)
  let seed = ref 0x2545F4914F6CDD1D in
  let next () =
    (* xorshift, deterministic across runs *)
    let x = !seed in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    seed := x;
    x land Hw.Word.mask
  in
  let trials = 100_000 in
  let ind_ok = ref 0 in
  for _ = 1 to trials do
    let w = next () in
    let ind = Isa.Indword.decode w in
    if Isa.Indword.encode ind = w then incr ind_ok
  done;
  Printf.printf
    "indirect-word decode/encode identity on %d random words: %d (total codec)\n"
    trials !ind_ok;
  Bench_util.print_table ~title:"Fig. 3 - codec micro-benchmark"
    (Bench_util.measure
       [
         ("SDW encode+decode", fun () -> ignore (Hw.Sdw.decode (Hw.Sdw.encode sdw)));
         ( "instruction encode+decode",
           fun () -> ignore (Isa.Instr.decode (Isa.Instr.encode instr)) );
         ( "indirect word encode+decode",
           fun () -> ignore (Isa.Indword.decode (Isa.Indword.encode ind)) );
       ]);
  print_newline ()

(* Fig. 4: retrieval of the next instruction. *)
let fig4 () =
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("segment", Trace.Tablefmt.Left);
          ("ring", Trace.Tablefmt.Right);
          ("fetch outcome", Trace.Tablefmt.Left);
        ]
  in
  let cases =
    [
      ( "procedure, E bracket 3-4",
        Rings.Access.v ~execute:true (Rings.Brackets.of_ints 3 4 4) );
      ( "data (E off)",
        Rings.Access.data_segment ~writable_to:4 ~readable_to:4 () );
      ( "library, E bracket 0-7",
        Rings.Access.v ~execute:true (Rings.Brackets.of_ints 0 7 7) );
    ]
  in
  List.iter
    (fun (name, access) ->
      List.iter
        (fun ring ->
          let outcome =
            match Rings.Policy.validate_fetch access ~ring:(r ring) with
            | Ok () -> "fetch"
            | Error f -> Rings.Fault.to_string f
          in
          Trace.Tablefmt.add_row t [ name; string_of_int ring; outcome ])
        [ 0; 3; 4; 5; 7 ];
      Trace.Tablefmt.add_separator t)
    cases;
  Trace.Tablefmt.print ~title:"Fig. 4 - instruction fetch validation" t;
  (* Simulator instruction-cycle throughput with the check wired in:
     a tight self-loop, stepped under the bench clock. *)
  let m =
    Isa.Machine.create ~mem_size:(1 lsl 16) ()
  in
  let dbr = { Hw.Registers.base = 0; bound = 8; stack_base = 0 } in
  m.Isa.Machine.regs.Hw.Registers.dbr <- dbr;
  Hw.Descriptor.store_sdw m.Isa.Machine.mem dbr ~segno:1
    (Hw.Sdw.v ~base:1024 ~bound:16
       (Rings.Access.v ~execute:true (Rings.Brackets.of_ints 4 4 4)));
  Hw.Memory.write_silent m.Isa.Machine.mem 1024
    (Isa.Instr.encode (Isa.Instr.v ~offset:0 Isa.Opcode.TRA));
  Hw.Registers.set_ipr m.Isa.Machine.regs
    { Hw.Registers.ring = r 4; addr = Hw.Addr.v ~segno:1 ~wordno:0 };
  Bench_util.print_table ~title:"Fig. 4 - simulated instruction cycle (host time)"
    (Bench_util.measure
       [ ("fetch+validate+execute (TRA loop)", fun () -> ignore (Isa.Cpu.step m)) ]);
  print_newline ()

(* Fig. 5: formation of the effective address, with the effective
   ring accumulating along an indirection chain. *)
let fig5 () =
  (* Chain: code ring 1; each hop goes through a segment with write
     bracket top = hop ring, raising the effective ring step by
     step. *)
  let depth_max = 6 in
  let chain_segments ~use_r1 =
    ignore use_r1;
    (* Segment 10+i holds one indirect word pointing at the next. *)
    List.init depth_max (fun i ->
        let next = if i + 1 = depth_max then (30, 0) else (11 + i, 0) in
        let indirect = i + 1 <> depth_max in
        ( 10 + i,
          [|
            Isa.Indword.encode
              (Isa.Indword.v ~indirect ~ring:0 ~segno:(fst next)
                 ~wordno:(snd next) ());
          |],
          Rings.Access.data_segment ~writable_to:(7 - i) ~readable_to:7 () ))
    @ [ (30, [| 42 |], Rings.Access.data_segment ~writable_to:7 ~readable_to:7 ()) ]
  in
  let run_depth ~use_r1 depth =
    let m =
      Isa.Machine.create ~use_r1_in_indirection:use_r1 ~mem_size:(1 lsl 18) ()
    in
    let dbr = { Hw.Registers.base = 0; bound = 64; stack_base = 0 } in
    m.Isa.Machine.regs.Hw.Registers.dbr <- dbr;
    let next = ref 4096 in
    List.iter
      (fun (segno, words, access) ->
        let bound = Hw.Sdw.round_bound (max (Array.length words) 16) in
        Hw.Descriptor.store_sdw m.Isa.Machine.mem dbr ~segno
          (Hw.Sdw.v ~base:!next ~bound access);
        Hw.Memory.blit_silent m.Isa.Machine.mem !next words;
        next := !next + bound)
      ((1, [||], Rings.Access.v ~execute:true (Rings.Brackets.of_ints 1 1 1))
      :: chain_segments ~use_r1);
    Hw.Registers.set_ipr m.Isa.Machine.regs
      { Hw.Registers.ring = r 1; addr = Hw.Addr.v ~segno:1 ~wordno:0 };
    (* Start the chain at segment (10 + depth_max - depth): following
       exactly [depth] hops. *)
    let start_seg = 10 + depth_max - depth in
    Hw.Registers.set_pr m.Isa.Machine.regs 1
      (Hw.Registers.ptr ~ring:1 ~segno:start_seg ~wordno:0);
    let instr =
      if depth = 0 then
        Isa.Instr.v ~base:(Isa.Instr.Pr 1) ~offset:0 Isa.Opcode.LDA
      else
        Isa.Instr.v ~base:(Isa.Instr.Pr 1) ~indirect:true ~offset:0
          Isa.Opcode.LDA
    in
    (m, instr)
  in
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("indirections", Trace.Tablefmt.Right);
          ("effective ring", Trace.Tablefmt.Right);
          ("effective ring (R1 term ablated)", Trace.Tablefmt.Right);
          ("memory reads", Trace.Tablefmt.Right);
        ]
  in
  List.iter
    (fun depth ->
      let effective ~use_r1 =
        let m, instr = run_depth ~use_r1 depth in
        let before = Trace.Counters.memory_reads m.Isa.Machine.counters in
        match Isa.Eff_addr.compute m instr with
        | Ok (Isa.Eff_addr.Memory { effective; _ }) ->
            ( Rings.Effective_ring.to_int effective,
              Trace.Counters.memory_reads m.Isa.Machine.counters - before )
        | Ok _ | Error _ -> (-1, 0)
      in
      let e, reads = effective ~use_r1:true in
      let e_ablated, _ = effective ~use_r1:false in
      Trace.Tablefmt.add_row t
        [
          string_of_int depth;
          string_of_int e;
          string_of_int e_ablated;
          string_of_int reads;
        ])
    [ 0; 1; 2; 3; 4; 5; 6 ];
  Trace.Tablefmt.print
    ~title:
      "Fig. 5 - effective ring along an indirection chain (writable-to ring rises with depth)"
    t;
  let benches =
    List.map
      (fun depth ->
        let m, instr = run_depth ~use_r1:true depth in
        ( Printf.sprintf "effective address, %d indirections" depth,
          fun () -> ignore (Isa.Eff_addr.compute m instr) ))
      [ 0; 2; 4; 6 ]
  in
  Bench_util.print_table ~title:"Fig. 5 - address formation (host time)"
    (Bench_util.measure benches);
  print_newline ()

(* Fig. 6: read/write operand validation across every bracket
   configuration. *)
let fig6 () =
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("ring", Trace.Tablefmt.Right);
          ("bracket configs allowing read", Trace.Tablefmt.Right);
          ("bracket configs allowing write", Trace.Tablefmt.Right);
        ]
  in
  (* Sweep all R1 <= R2 with flags on: 36 configurations. *)
  let configs =
    List.concat_map
      (fun r1 ->
        List.filter_map
          (fun r2 ->
            if r2 >= r1 then Some (Rings.Brackets.of_ints r1 r2 r2) else None)
          [ 0; 1; 2; 3; 4; 5; 6; 7 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  List.iter
    (fun ring ->
      let reads =
        List.length
          (List.filter
             (fun b ->
               Result.is_ok
                 (Rings.Policy.validate_read
                    (Rings.Access.v ~read:true ~write:true b)
                    ~effective:(eff ring)))
             configs)
      in
      let writes =
        List.length
          (List.filter
             (fun b ->
               Result.is_ok
                 (Rings.Policy.validate_write
                    (Rings.Access.v ~read:true ~write:true b)
                    ~effective:(eff ring)))
             configs)
      in
      Trace.Tablefmt.add_row t
        [ string_of_int ring; string_of_int reads; string_of_int writes ])
    [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  Trace.Tablefmt.print
    ~title:
      "Fig. 6 - operand validation sweep over all 36 bracket configurations (monotone in privilege)"
    t;
  print_newline ()

(* Fig. 7: instructions which do not reference their operands. *)
let fig7 () =
  let proc34 = Rings.Access.v ~execute:true (Rings.Brackets.of_ints 3 4 4) in
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("case", Trace.Tablefmt.Left);
          ("outcome", Trace.Tablefmt.Left);
        ]
  in
  let transfer name ~exec ~effective access =
    let outcome =
      match
        Rings.Policy.validate_transfer access ~exec:(r exec)
          ~effective:(eff effective)
      with
      | Ok () -> "transfer proceeds"
      | Error f -> Rings.Fault.to_string f
    in
    Trace.Tablefmt.add_row t [ name; outcome ]
  in
  transfer "TRA within execute bracket (ring 4)" ~exec:4 ~effective:4 proc34;
  transfer "TRA below bracket (ring 2)" ~exec:2 ~effective:2 proc34;
  transfer "TRA above bracket (ring 5)" ~exec:5 ~effective:5 proc34;
  transfer "TRA with raised effective ring" ~exec:3 ~effective:4 proc34;
  Trace.Tablefmt.add_row t
    [ "EAP (no operand reference)"; "loads PRn from TPR, never validated" ];
  Trace.Tablefmt.print ~title:"Fig. 7 - advance checks for transfers and EAP"
    t;
  (* Demonstrate the EAP ring fold end to end. *)
  let m = Isa.Machine.create ~mem_size:(1 lsl 16) () in
  let dbr = { Hw.Registers.base = 0; bound = 8; stack_base = 0 } in
  m.Isa.Machine.regs.Hw.Registers.dbr <- dbr;
  Hw.Descriptor.store_sdw m.Isa.Machine.mem dbr ~segno:1
    (Hw.Sdw.v ~base:1024 ~bound:16
       (Rings.Access.v ~execute:true (Rings.Brackets.of_ints 2 2 2)));
  Hw.Registers.set_ipr m.Isa.Machine.regs
    { Hw.Registers.ring = r 2; addr = Hw.Addr.v ~segno:1 ~wordno:0 };
  Hw.Registers.set_pr m.Isa.Machine.regs 3
    (Hw.Registers.ptr ~ring:6 ~segno:1 ~wordno:4);
  (match
     Isa.Eff_addr.compute m
       (Isa.Instr.v ~base:(Isa.Instr.Pr 3) ~offset:1 Isa.Opcode.EAP)
   with
  | Ok (Isa.Eff_addr.Memory { effective; addr }) ->
      Printf.printf
        "EAP via PR3 (ring 6) from ring 2: PRn gets ring %d, address %d|%o\n"
        (Rings.Effective_ring.to_int effective)
        addr.Hw.Addr.segno addr.Hw.Addr.wordno
  | _ -> print_endline "EAP demonstration failed");
  print_newline ()

(* Fig. 8: access validation and performance of CALL. *)
let fig8 () =
  let gate =
    Rings.Access.v ~execute:true ~gates:2 (Rings.Brackets.of_ints 1 2 5)
  in
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("exec ring", Trace.Tablefmt.Right);
          ("effective", Trace.Tablefmt.Right);
          ("word", Trace.Tablefmt.Right);
          ("same seg", Trace.Tablefmt.Left);
          ("decision", Trace.Tablefmt.Left);
        ]
  in
  let case ~exec ~effective ~wordno ~same_segment =
    let effv =
      Rings.Effective_ring.via_pointer_register (eff exec)
        ~pr_ring:(r effective)
    in
    let decision =
      match
        Rings.Call.validate gate ~exec:(r exec) ~effective:effv ~segno:20
          ~wordno ~same_segment
      with
      | Ok { Rings.Call.new_ring; crossing; via_gate } ->
          Printf.sprintf "%s to ring %d%s"
            (match crossing with
            | Rings.Call.Same_ring -> "same-ring"
            | Rings.Call.Downward -> "downward")
            (Rings.Ring.to_int new_ring)
            (if via_gate then " (via gate)" else "")
      | Error f -> Rings.Fault.to_string f
    in
    Trace.Tablefmt.add_row t
      [
        string_of_int exec;
        string_of_int effective;
        string_of_int wordno;
        yes_no same_segment;
        decision;
      ]
  in
  (* Target: execute bracket 1-2, gate extension 3-5, 2 gates. *)
  case ~exec:4 ~effective:4 ~wordno:0 ~same_segment:false;
  case ~exec:4 ~effective:4 ~wordno:1 ~same_segment:false;
  case ~exec:4 ~effective:4 ~wordno:3 ~same_segment:false;
  case ~exec:6 ~effective:6 ~wordno:0 ~same_segment:false;
  case ~exec:2 ~effective:2 ~wordno:0 ~same_segment:false;
  case ~exec:2 ~effective:2 ~wordno:5 ~same_segment:true;
  case ~exec:1 ~effective:1 ~wordno:0 ~same_segment:false;
  case ~exec:0 ~effective:0 ~wordno:0 ~same_segment:false;
  case ~exec:1 ~effective:2 ~wordno:0 ~same_segment:false;
  case ~exec:2 ~effective:4 ~wordno:0 ~same_segment:false;
  Trace.Tablefmt.print
    ~title:
      "Fig. 8 - CALL decisions (target: E bracket 1-2, gate extension to 5, 2 gates)"
    t;
  (* Simulated cycle cost of CALL+RETURN by crossing type, hardware
     rings. *)
  let config = Os.Scenario.default_config in
  let same = Workloads.same_ring_cost ~config ~ring:4 () in
  let down = Workloads.crossing_cost ~config ~caller_ring:4 ~callee_ring:1 () in
  let up = Workloads.crossing_cost ~config ~caller_ring:1 ~callee_ring:4 () in
  let t2 =
    Trace.Tablefmt.create
      ~columns:
        [
          ("crossing", Trace.Tablefmt.Left);
          ("cycles/iteration", Trace.Tablefmt.Right);
          ("traps/iteration", Trace.Tablefmt.Right);
        ]
  in
  List.iter
    (fun (name, (s : Workloads.per_crossing)) ->
      Trace.Tablefmt.add_row t2
        [
          name;
          Printf.sprintf "%.1f" s.Workloads.cycles;
          Printf.sprintf "%.2f" s.Workloads.traps;
        ])
    [
      ("same-ring call+return", same);
      ("downward call + upward return", down);
      ("upward call + downward return (trap)", up);
    ];
  Trace.Tablefmt.print
    ~title:"Fig. 8 - CALL+RETURN cost by crossing type (hardware rings)" t2;
  print_newline ()

(* Fig. 9: access validation and performance of RETURN. *)
let fig9 () =
  let t =
    Trace.Tablefmt.create
      ~columns:
        [
          ("exec ring", Trace.Tablefmt.Right);
          ("operand ring", Trace.Tablefmt.Right);
          ("target E bracket", Trace.Tablefmt.Left);
          ("decision", Trace.Tablefmt.Left);
        ]
  in
  let case ~exec ~target_ring ~bracket:(b1, b2) =
    let access =
      Rings.Access.v ~execute:true (Rings.Brackets.of_ints b1 b2 b2)
    in
    let effective =
      Rings.Effective_ring.weaken_to (eff exec) (r target_ring)
    in
    let decision =
      match Rings.Return_op.validate access ~exec:(r exec) ~effective with
      | Ok { Rings.Return_op.new_ring; crossing; maximize_pr_rings } ->
          Printf.sprintf "%s to ring %d%s"
            (match crossing with
            | Rings.Return_op.Same_ring -> "same-ring return"
            | Rings.Return_op.Upward -> "upward return")
            (Rings.Ring.to_int new_ring)
            (if maximize_pr_rings then ", PR rings maximized" else "")
      | Error f -> Rings.Fault.to_string f
    in
    Trace.Tablefmt.add_row t
      [
        string_of_int exec;
        string_of_int target_ring;
        Printf.sprintf "%d-%d" b1 b2;
        decision;
      ]
  in
  case ~exec:1 ~target_ring:4 ~bracket:(4, 4);
  case ~exec:4 ~target_ring:4 ~bracket:(4, 4);
  case ~exec:1 ~target_ring:6 ~bracket:(4, 4);
  case ~exec:0 ~target_ring:7 ~bracket:(0, 7);
  Trace.Tablefmt.print ~title:"Fig. 9 - RETURN decisions" t;
  (* The PR-ring maximization in action on the machine. *)
  let regs = Hw.Registers.create () in
  Hw.Registers.set_pr regs 1 (Hw.Registers.ptr ~ring:1 ~segno:3 ~wordno:0);
  Hw.Registers.set_pr regs 2 (Hw.Registers.ptr ~ring:6 ~segno:3 ~wordno:0);
  Hw.Registers.maximize_pr_rings regs (r 4);
  Printf.printf
    "upward return to ring 4: PR1 ring 1 -> %d, PR2 ring 6 -> %d\n"
    (Rings.Ring.to_int (Hw.Registers.get_pr regs 1).Hw.Registers.ring)
    (Rings.Ring.to_int (Hw.Registers.get_pr regs 2).Hw.Registers.ring);
  print_newline ()
