(* ACLs, the segment store, and the process loader. *)

let access_rw =
  Rings.Access.data_segment ~writable_to:4 ~readable_to:5 ()

let access_ro = Rings.Access.data_segment ~write:false ~writable_to:0 ~readable_to:7 ()

(* Acl *)

let test_acl_exact_and_wildcard () =
  let acl =
    Os.Acl.of_entries
      [
        { Os.Acl.user = "alice"; access = access_rw };
        { Os.Acl.user = Os.Acl.wildcard; access = access_ro };
      ]
  in
  (match Os.Acl.check acl ~user:"alice" with
  | Some a -> Alcotest.(check bool) "alice gets rw" true a.Rings.Access.write
  | None -> Alcotest.fail "alice denied");
  (match Os.Acl.check acl ~user:"bob" with
  | Some a ->
      Alcotest.(check bool) "bob falls to wildcard" false
        a.Rings.Access.write
  | None -> Alcotest.fail "bob denied");
  let closed = Os.Acl.of_entries [ { Os.Acl.user = "alice"; access = access_rw } ] in
  Alcotest.(check bool)
    "no wildcard: bob denied" true
    (Os.Acl.check closed ~user:"bob" = None)

let test_acl_later_entries_shadow () =
  let acl =
    Os.Acl.of_entries
      [
        { Os.Acl.user = "alice"; access = access_ro };
        { Os.Acl.user = "alice"; access = access_rw };
      ]
  in
  match Os.Acl.check acl ~user:"alice" with
  | Some a -> Alcotest.(check bool) "latest wins" true a.Rings.Access.write
  | None -> Alcotest.fail "alice denied"

let test_acl_ring_constraint () =
  (* A program in ring 4 cannot grant brackets below ring 4. *)
  let entry =
    {
      Os.Acl.user = "bob";
      access = Rings.Access.data_segment ~writable_to:2 ~readable_to:5 ();
    }
  in
  (match Os.Acl.set_entry Os.Acl.empty ~acting_ring:(Rings.Ring.v 4) entry with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bracket below acting ring accepted");
  match Os.Acl.set_entry Os.Acl.empty ~acting_ring:(Rings.Ring.v 2) entry with
  | Ok acl ->
      Alcotest.(check bool)
        "entry landed" true
        (Os.Acl.check acl ~user:"bob" <> None)
  | Error e -> Alcotest.fail e

(* Store *)

let test_store_basics () =
  let store = Os.Store.create () in
  Os.Store.add_data store ~name:"d" ~acl:[] ~words:[| 1; 2 |];
  Os.Store.add_source store ~name:"s" ~acl:[] "start: nop\n";
  Alcotest.(check (list string)) "names" [ "d"; "s" ] (Os.Store.names store);
  Alcotest.(check bool) "find" true (Os.Store.find store "d" <> None);
  Alcotest.(check bool) "missing" true (Os.Store.find store "x" = None);
  try
    Os.Store.add_data store ~name:"d" ~acl:[] ~words:[||];
    Alcotest.fail "duplicate accepted"
  with Invalid_argument _ -> ()

let test_store_set_acl () =
  let store = Os.Store.create () in
  Os.Store.add_data store ~name:"d" ~acl:[] ~words:[||];
  (match
     Os.Store.set_acl store ~name:"d"
       (Os.Acl.of_entries [ { Os.Acl.user = "eve"; access = access_ro } ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Os.Store.find store "d" with
  | Some seg ->
      Alcotest.(check bool)
        "eve now listed" true
        (Os.Acl.check seg.Os.Store.acl ~user:"eve" <> None)
  | None -> Alcotest.fail "segment lost"

(* Process *)

let wildcard_acl access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]

let make_process ?(user = "alice") segs =
  let store = Os.Store.create () in
  List.iter
    (fun (name, acl, body) ->
      match body with
      | `Source src -> Os.Store.add_source store ~name ~acl src
      | `Data words -> Os.Store.add_data store ~name ~acl ~words)
    segs;
  Os.Process.create ~store ~user ()

let test_process_layout () =
  let p = make_process [] in
  (* Stacks 0-7, comm at 8, return gate at 9, users from 10. *)
  Alcotest.(check int) "comm segno" 8 p.Os.Process.comm_segno;
  Alcotest.(check int) "retgate segno" 9 p.Os.Process.retgate_segno;
  List.iter
    (fun r ->
      match Hashtbl.find_opt p.Os.Process.ring_data r with
      | Some a ->
          Alcotest.(check int)
            (Printf.sprintf "stack %d write top" r)
            r
            (Rings.Ring.to_int
               (Rings.Brackets.write_bracket_top a.Rings.Access.brackets))
      | None -> Alcotest.failf "stack %d missing" r)
    [ 0; 3; 7 ]

let test_acl_denies_load () =
  let p =
    make_process
      [
        ( "secret",
          [ { Os.Acl.user = "root"; access = access_rw } ],
          `Data [| 1 |] );
      ]
  in
  match Os.Process.add_segment p "secret" with
  | Error msg ->
      Alcotest.(check bool) "mentions the user" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "ACL did not deny"

let test_unknown_segment () =
  let p = make_process [] in
  match Os.Process.add_segment p "ghost" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown segment loaded"

let test_cross_references () =
  (* Two sources referencing each other both ways. *)
  let p =
    make_process
      [
        ( "a",
          wildcard_acl (Fixtures.code_ring 4),
          `Source "start: tra lnk,*\nlnk: .its 0, b$tgt\n" );
        ( "b",
          wildcard_acl (Fixtures.code_ring 4),
          `Source "tgt: tra back,*\nback: .its 0, a$start\n" );
      ]
  in
  (match Os.Process.add_segments p [ "a"; "b" ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match
    ( Os.Process.address_of p ~segment:"a" ~symbol:"start",
      Os.Process.address_of p ~segment:"b" ~symbol:"tgt" )
  with
  | Some a, Some b ->
      Alcotest.(check bool) "distinct segments" true
        (a.Hw.Addr.segno <> b.Hw.Addr.segno)
  | _ -> Alcotest.fail "symbols missing"

let test_assembly_error_reported () =
  let p =
    make_process
      [ ("bad", wildcard_acl (Fixtures.code_ring 4), `Source "zap zap\n") ]
  in
  match Os.Process.add_segment p "bad" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad source loaded"

(* A batch refused at link time leaves no trace, its segment numbers
   included: the next segment loaded takes the number the refused one
   would have had. *)
let test_refused_batch_keeps_segnos () =
  let p =
    make_process
      [
        ( "bad",
          wildcard_acl (Fixtures.code_ring 4),
          `Source "start: tra lnk,*\nlnk: .its 0, nosuch$entry\n" );
        ("good", wildcard_acl (Fixtures.code_ring 4), `Source "start: nop\n");
      ]
  in
  let first = p.Os.Process.next_segno in
  (match Os.Process.add_segments p [ "bad" ] with
  | Error msg ->
      Alcotest.(check string)
        "link error" "bad: line 2: unresolved external nosuch$entry" msg
  | Ok () -> Alcotest.fail "unresolved external loaded");
  Alcotest.(check int) "no number used" first p.Os.Process.next_segno;
  (match Os.Process.add_segments p [ "good" ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option int))
    "next segment takes the first number" (Some first)
    (Os.Process.segno_of p "good");
  Alcotest.(check int) "one number used" (first + 1) p.Os.Process.next_segno

(* The loader parses each source once and links that parse; what it
   loads must be exactly what the standalone assembler makes of the
   same source, against the same externals and segment number.  Every
   process is checked right after it is spawned, before it runs: one
   tenant of every kind the arena generator draws, and every example
   program. *)
let tenant_kinds =
  [
    "compute"; "crossing"; "io-heavy"; "paging-heavy"; "gate-squeeze";
    "ring-max"; "stack-bracket"; "cache-probe"; "quota-spin"; "mem-hog";
  ]

let one_tenant_per_kind () =
  let rec draw seed found =
    if List.length found = List.length tenant_kinds || seed > 40 then found
    else
      let found =
        List.fold_left
          (fun found (t : Os.Arena.tenant) ->
            if List.mem_assoc t.kind found then found
            else (t.kind, t) :: found)
          found
          (Serve.Tenants.generate ~seed ~tenants:64 ())
      in
      draw (seed + 1) found
  in
  let found = draw 1 [] in
  Alcotest.(check (list string))
    "every kind drawn"
    (List.sort compare tenant_kinds)
    (List.sort compare (List.map fst found));
  List.map snd found

let check_loaded_as_assembled ~what store (p : Os.Process.t) =
  let mem = p.Os.Process.machine.Isa.Machine.mem in
  List.iter
    (fun (l : Os.Process.loaded) ->
      if not (List.mem l.segno p.Os.Process.mapped) then begin
        let what = Printf.sprintf "%s: %s" what l.name in
        let src =
          match Os.Store.find store l.name with
          | Some { Os.Store.body = Os.Store.Source src; _ } -> src
          | _ -> Alcotest.failf "%s: not a source segment" what
        in
        let prog =
          match
            Asm.Assemble.assemble
              ~externals:(fun ~segment ~symbol ->
                Os.Process.address_of p ~segment ~symbol)
              ~self_segno:l.segno src
          with
          | Ok prog -> prog
          | Error _ -> Alcotest.failf "%s: standalone assembly failed" what
        in
        let loaded =
          match Hashtbl.find_opt p.Os.Process.placement l.segno with
          | Some (Os.Process.Direct { base; bound }) ->
              Array.init bound (fun i -> Hw.Memory.read_silent mem (base + i))
          | Some (Os.Process.Paged_at _) -> (
              match p.Os.Process.paging with
              | Some ps -> Hashtbl.find ps.Os.Process.backing l.segno
              | None -> Alcotest.failf "%s: paged without paging" what)
          | None -> Alcotest.failf "%s: no placement" what
        in
        let n = Array.length prog.Asm.Assemble.words in
        Alcotest.(check bool)
          (what ^ ": fits its bound") true
          (n <= Array.length loaded);
        Alcotest.(check (array int))
          (what ^ ": words") prog.Asm.Assemble.words (Array.sub loaded 0 n);
        Alcotest.(check bool)
          (what ^ ": zeros past the words") true
          (Array.for_all (( = ) 0)
             (Array.sub loaded n (Array.length loaded - n)));
        Alcotest.(check (list (pair string int)))
          (what ^ ": symbols")
          (List.sort compare prog.Asm.Assemble.symbols)
          (List.sort compare l.symbols);
        Alcotest.(check int)
          (what ^ ": gates") prog.Asm.Assemble.gates
          l.access.Rings.Access.gates
      end)
    p.Os.Process.loaded

let test_loader_matches_assembler () =
  List.iter
    (fun (t : Os.Arena.tenant) ->
      let store = Os.Store.create () in
      List.iter
        (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
        t.segments;
      let sys = Os.System.create ~store () in
      match
        Os.System.spawn sys ~paged:t.paged ~pname:t.name ~user:t.name
          ~segments:(List.map (fun (n, _, _) -> n) t.segments)
          ~start:t.start ~ring:t.ring
      with
      | Ok e -> check_loaded_as_assembled ~what:t.kind store e.Os.System.process
      | Error msg -> Alcotest.failf "%s: spawn failed: %s" t.kind msg)
    (one_tenant_per_kind ());
  let dir = "../examples/programs" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".rng")
    |> List.sort compare
  in
  Alcotest.(check bool) "example programs found" true (files <> []);
  List.iter
    (fun file ->
      let text =
        In_channel.with_open_bin (Filename.concat dir file)
          In_channel.input_all
      in
      let prog =
        match Os.Program.parse text with
        | Ok prog -> prog
        | Error e -> Alcotest.failf "%s: %s" file e
      in
      let store = Os.Program.store prog in
      let sys = Os.System.create ~store () in
      let spawned =
        match prog.Os.Program.processes with
        | _ :: _ -> Os.Program.spawn sys prog
        | [] ->
            let first = List.hd prog.Os.Program.segments in
            Os.System.spawn sys ~pname:"main" ~user:"operator"
              ~segments:
                (List.map
                   (fun (s : Os.Program.segment) -> s.name)
                   prog.Os.Program.segments)
              ~start:(first.Os.Program.name, "start") ~ring:4
            |> Result.map ignore
      in
      (match spawned with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" file msg);
      List.iter
        (fun (e : Os.System.entry) ->
          check_loaded_as_assembled
            ~what:(file ^ " " ^ e.Os.System.pname)
            store e.Os.System.process)
        (Os.System.entries sys))
    files

let test_gates_from_body () =
  let p =
    make_process
      [
        ( "g",
          wildcard_acl
            (Rings.Access.procedure_segment ~execute_in:1 ~callable_from:5
               ()),
          `Source "e: .gate impl\nimpl: nop\n" );
      ]
  in
  (match Os.Process.add_segment p "g" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let segno = Option.get (Os.Process.segno_of p "g") in
  match Hashtbl.find_opt p.Os.Process.ring_data segno with
  | Some a -> Alcotest.(check int) "gate count merged" 1 a.Rings.Access.gates
  | None -> Alcotest.fail "ring data missing"

let test_kread_kwrite () =
  let p =
    make_process
      [ ("d", wildcard_acl access_rw, `Data [| 5; 6 |]) ]
  in
  (match Os.Process.add_segment p "d" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let segno = Option.get (Os.Process.segno_of p "d") in
  let addr = Hw.Addr.v ~segno ~wordno:1 in
  (match Os.Process.kread p addr with
  | Ok v -> Alcotest.(check int) "read" 6 v
  | Error e -> Alcotest.fail e);
  (match Os.Process.kwrite p addr 99 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Os.Process.kread p addr with
  | Ok v -> Alcotest.(check int) "wrote" 99 v
  | Error e -> Alcotest.fail e);
  match Os.Process.kread p (Hw.Addr.v ~segno:200 ~wordno:0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read of unknown segment"

let test_crossing_stack () =
  let p = make_process [] in
  Alcotest.(check bool) "empty pop" true (Os.Process.pop_crossing p = None);
  let c =
    {
      Os.Process.kind = Os.Process.Inward;
      saved = Hw.Registers.create ();
      caller_ring = Rings.Ring.v 4;
      callee_ring = Rings.Ring.v 1;
      copy_back = [];
    }
  in
  Os.Process.push_crossing p c;
  Alcotest.(check bool) "popped" true (Os.Process.pop_crossing p = Some c);
  Alcotest.(check bool) "empty again" true (Os.Process.pop_crossing p = None)

let test_map_segment_duplicate_refused () =
  let p =
    make_process [ ("d", wildcard_acl access_rw, `Data [| 1 |]) ]
  in
  (match Os.Process.add_segment p "d" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match
    Os.Process.map_segment p ~name:"d" ~base:4096 ~bound:16
      ~access:access_rw ~symbols:[]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate mapping accepted"

let test_pp_layout () =
  let p =
    make_process [ ("d", wildcard_acl access_rw, `Data [| 1 |]) ]
  in
  (match Os.Process.add_segment p "d" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let s = Format.asprintf "%a" Os.Process.pp_layout p in
  let has needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names the user segment" true (has "d");
  Alcotest.(check bool) "names the stacks" true (has "stack ring 0");
  Alcotest.(check bool) "names the return gate" true (has "return gate")

let test_assemble_listing_renders () =
  let src = "start:  lda =1\n        mme =2\n" in
  match Asm.Assemble.assemble src with
  | Error _ -> Alcotest.fail "assembly failed"
  | Ok prog ->
      let l = Asm.Assemble.listing src prog in
      Alcotest.(check bool) "mentions symbols" true
        (String.length l > 0
        &&
        let has needle =
          let n = String.length needle and h = String.length l in
          let rec go i =
            i + n <= h && (String.sub l i n = needle || go (i + 1))
          in
          go 0
        in
        has "start" && has "words")

let suite =
  [
    ( "os",
      [
        Alcotest.test_case "acl exact and wildcard" `Quick
          test_acl_exact_and_wildcard;
        Alcotest.test_case "acl shadowing" `Quick
          test_acl_later_entries_shadow;
        Alcotest.test_case "acl ring constraint" `Quick
          test_acl_ring_constraint;
        Alcotest.test_case "store basics" `Quick test_store_basics;
        Alcotest.test_case "store set_acl" `Quick test_store_set_acl;
        Alcotest.test_case "process layout" `Quick test_process_layout;
        Alcotest.test_case "acl denies load" `Quick test_acl_denies_load;
        Alcotest.test_case "unknown segment" `Quick test_unknown_segment;
        Alcotest.test_case "cross references" `Quick test_cross_references;
        Alcotest.test_case "assembly error reported" `Quick
          test_assembly_error_reported;
        Alcotest.test_case "refused batch uses no segment number" `Quick
          test_refused_batch_keeps_segnos;
        Alcotest.test_case "loader links what the assembler makes" `Quick
          test_loader_matches_assembler;
        Alcotest.test_case "gates from body" `Quick test_gates_from_body;
        Alcotest.test_case "kread/kwrite" `Quick test_kread_kwrite;
        Alcotest.test_case "crossing stack" `Quick test_crossing_stack;
        Alcotest.test_case "map_segment duplicate refused" `Quick
          test_map_segment_duplicate_refused;
        Alcotest.test_case "pp_layout" `Quick test_pp_layout;
        Alcotest.test_case "assemble listing renders" `Quick
          test_assemble_listing_renders;
      ] );
  ]

