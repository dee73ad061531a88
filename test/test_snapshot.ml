(* Checkpoint/restore: kill-and-resume must be indistinguishable from
   never having died, and anything less than a whole image must be
   refused with a typed error. *)

let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]
let proc4 = Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()

let bump_source ~n =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta pr6|5\n\
     loop:   aos cell,*\n\
    \        lda pr6|5\n\
    \        sba =1\n\
    \        sta pr6|5\n\
    \        tnz loop\n\
    \        mme =2\n\
     cell:   .its 0, counter$value\n"
    n

(* Two bump processes over a shared counter: enough slices for several
   checkpoint boundaries, with cross-process state (the shared segment)
   the image must carry exactly. *)
let build_store ~n1 ~n2 () =
  let store = Os.Store.create () in
  Os.Store.add_source store ~name:"bump_a" ~acl:(wildcard proc4)
    (bump_source ~n:n1);
  Os.Store.add_source store ~name:"bump_b" ~acl:(wildcard proc4)
    (bump_source ~n:n2);
  Os.Store.add_source store ~name:"counter"
    ~acl:(wildcard (Rings.Access.data_segment ~writable_to:4 ~readable_to:4 ()))
    "value:  .word 0\n";
  store

let spawn_pair sys =
  (match
     Os.System.spawn sys ~pname:"pa" ~user:"alice"
       ~segments:[ "bump_a"; "counter" ]
       ~start:("bump_a", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn pa: %s" e);
  match
    Os.System.spawn sys
      ~shared:[ ("counter", "pa") ]
      ~pname:"pb" ~user:"bob" ~segments:[ "bump_b" ]
      ~start:("bump_b", "start") ~ring:4
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn pb: %s" e

let fresh_system ?(n1 = 30) ?(n2 = 12) () =
  let sys = Os.System.create ~store:(build_store ~n1 ~n2 ()) () in
  spawn_pair sys;
  sys

let counters sys =
  (Os.System.machine sys).Isa.Machine.counters

let cycles sys = Trace.Counters.cycles (counters sys)

(* The two counters a resumed run legitimately owns for itself. *)
let session_local = [ "restores"; "journal_replays_skipped" ]

let comparable_fields sys =
  Trace.Counters.fields (Trace.Counters.snapshot (counters sys))
  |> List.filter (fun (name, _) -> not (List.mem name session_local))

(* Every nonzero word with its address, ascending: equal lists mean
   equal memories of one size. *)
let nonzero_words mem =
  let acc = ref [] in
  Hw.Memory.iter_nonzero mem ~addr:0 ~len:(Hw.Memory.size mem) (fun a w ->
      acc := (a, w) :: !acc);
  List.rev !acc

let memory_words sys = nonzero_words (Os.System.machine sys).Isa.Machine.mem

let device_outputs sys =
  List.map
    (fun (e : Os.System.entry) ->
      ( e.Os.System.pname,
        Os.Device.output_text e.Os.System.process.Os.Process.typewriter ))
    (Os.System.entries sys)

(* Run [sys], capturing exactly one image at the first slice boundary
   at or past [at] modeled cycles, and return it with the exits. *)
let run_capturing_at sys ~at =
  let image = ref None in
  let on_slice () =
    if !image = None && cycles sys >= at then
      image := Some (Os.Snapshot.capture sys)
  in
  let exits = Os.System.run ~on_slice sys in
  match !image with
  | Some img -> (img, exits)
  | None -> Alcotest.failf "run finished before %d cycles" at

let exit_pair = Alcotest.(pair string (testable Os.Kernel.pp_exit ( = )))

let test_kill_and_resume_equals_straight_run () =
  (* The uninterrupted run: checkpoint once mid-flight, keep going. *)
  let straight = fresh_system () in
  let image, _ = run_capturing_at straight ~at:150 in
  (* The killed run: same program, same checkpoint — then the process
     dies and a fresh system resumes from the image.  Nothing after
     the capture point is shared with the straight run. *)
  let resumed = fresh_system () in
  (match Os.Snapshot.restore resumed image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore: %a" Os.Snapshot.pp_error e);
  let (_ : (string * Os.Kernel.exit) list) = Os.System.run resumed in
  Alcotest.(check (list (pair string int)))
    "counters identical (minus session-local)" (comparable_fields straight)
    (comparable_fields resumed);
  Alcotest.(check (list exit_pair))
    "completion log identical"
    (Os.System.finished_log straight)
    (Os.System.finished_log resumed);
  Alcotest.(check (list (pair int int)))
    "memory identical" (memory_words straight) (memory_words resumed);
  Alcotest.(check (list (pair string string)))
    "device output identical" (device_outputs straight)
    (device_outputs resumed);
  Alcotest.(check int) "resumed run counted its restore" 1
    Trace.Counters.(get (counters resumed) restores);
  Alcotest.(check int) "straight run restored nothing" 0
    Trace.Counters.(get (counters straight) restores)

let test_capture_is_deterministic () =
  let a = fresh_system () in
  let b = fresh_system () in
  let img_a, _ = run_capturing_at a ~at:150 in
  let img_b, _ = run_capturing_at b ~at:150 in
  Alcotest.(check bool) "identical runs capture identical bytes" true
    (String.equal img_a img_b)

let check_error what expected image =
  let sys = fresh_system () in
  match Os.Snapshot.restore sys image with
  | Ok () -> Alcotest.failf "%s: restore accepted a damaged image" what
  | Error e ->
      Alcotest.(check string)
        what expected
        (Format.asprintf "%a" Os.Snapshot.pp_error e)

let test_damaged_images_are_rejected () =
  let sys = fresh_system () in
  let image, _ = run_capturing_at sys ~at:150 in
  check_error "bad magic" "not a snapshot image (bad magic)"
    ("XXXXXXXX" ^ String.sub image 8 (String.length image - 8));
  (let b = Bytes.of_string image in
   (* Version is the second header word; the checksum covers only the
      payload, so this must surface as Bad_version, not checksum. *)
   Bytes.set b 15 '\x2a';
   check_error "version bump" "snapshot format version 42, this build reads 6"
     (Bytes.to_string b);
   Bytes.set b 15 '\x05';
   check_error "a version 5 image"
     "snapshot format version 5, this build reads 6" (Bytes.to_string b));
  check_error "truncated header" "snapshot image is truncated"
    (String.sub image 0 20);
  check_error "truncated payload" "snapshot image is truncated"
    (String.sub image 0 (String.length image - 1));
  (let b = Bytes.of_string image in
   Bytes.set b 100 (Char.chr (Char.code (Bytes.get b 100) lxor 1));
   check_error "flipped payload byte" "snapshot payload fails its checksum"
     (Bytes.to_string b));
  (* A different program shape: respawn with different process work. *)
  let other = Os.System.create ~store:(build_store ~n1:3 ~n2:2 ()) () in
  (match
     Os.System.spawn other ~pname:"solo" ~user:"alice"
       ~segments:[ "bump_a"; "counter" ]
       ~start:("bump_a", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn solo: %s" e);
  match Os.Snapshot.restore other image with
  | Error (Os.Snapshot.Shape_mismatch _) -> ()
  | Error e ->
      Alcotest.failf "expected shape mismatch, got %a" Os.Snapshot.pp_error e
  | Ok () -> Alcotest.fail "restore accepted an image for another system"

let test_audit_rejects_tampered_tables () =
  (* Widen an SDW behind the kernel's back, then checkpoint: the image
     is whole (checksum and self-check pass) but the restore audit
     must refuse it, because the stored SDW no longer derives from the
     kernel's access tables. *)
  let sys = fresh_system () in
  let image, _ =
    let image = ref None in
    let on_slice () =
      if !image = None && cycles sys >= 150 then begin
        let e = List.hd (Os.System.entries sys) in
        let p = e.Os.System.process in
        let m = Os.System.machine sys in
        let dbr = p.Os.Process.descsegs.(0) in
        let segno =
          match Os.Process.segno_of p "bump_a" with
          | Some s -> s
          | None -> Alcotest.fail "bump_a not loaded"
        in
        (match Hw.Descriptor.fetch_sdw_silent m.Isa.Machine.mem dbr ~segno with
        | Ok sdw ->
            Hw.Descriptor.store_sdw m.Isa.Machine.mem dbr ~segno
              (Hw.Sdw.v ~paged:sdw.Hw.Sdw.paged ~base:sdw.Hw.Sdw.base
                 ~bound:sdw.Hw.Sdw.bound
                 {
                   sdw.Hw.Sdw.access with
                   Rings.Access.write = true;
                   Rings.Access.read = true;
                 })
        | Error _ -> Alcotest.fail "SDW unreadable");
        image := Some (Os.Snapshot.capture sys)
      end
    in
    let exits = Os.System.run ~on_slice sys in
    (Option.get !image, exits)
  in
  let resumed = fresh_system () in
  match Os.Snapshot.restore resumed image with
  | Error (Os.Snapshot.Audit_rejected problems) ->
      Alcotest.(check bool) "at least one audit finding" true (problems <> []);
      Alcotest.(check int) "rejection counted" 1
        Trace.Counters.(get (counters resumed) restore_audit_rejections)
  | Error e ->
      Alcotest.failf "expected audit rejection, got %a" Os.Snapshot.pp_error e
  | Ok () -> Alcotest.fail "audit accepted a tampered image"

let test_watchdog_quarantines_stuck_process () =
  let store = build_store ~n1:5 ~n2:5 () in
  Os.Store.add_source store ~name:"spin" ~acl:(wildcard proc4)
    "start:  tra start\n";
  let sys = Os.System.create ~store () in
  spawn_pair sys;
  (match
     Os.System.spawn sys ~pname:"stuck" ~user:"carol" ~segments:[ "spin" ]
       ~start:("spin", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn stuck: %s" e);
  let exits = Os.System.run ~watchdog:600 sys in
  (match List.assoc_opt "stuck" exits with
  | Some (Os.Kernel.Quarantined (Rings.Fault.Watchdog_timeout { budget })) ->
      Alcotest.(check int) "carries the budget" 600 budget
  | Some e ->
      Alcotest.failf "expected watchdog quarantine, got %a" Os.Kernel.pp_exit e
  | None -> Alcotest.fail "stuck process never finished");
  Alcotest.(check (option exit_pair))
    "the bystanders still exit cleanly"
    (Some ("pa", Os.Kernel.Exited))
    (List.find_opt (fun (n, _) -> n = "pa") exits);
  Alcotest.(check int) "watchdog_tripped counted" 1
    Trace.Counters.(get (counters sys) watchdog_tripped)

let test_watchdog_off_by_default () =
  let store = build_store ~n1:5 ~n2:5 () in
  Os.Store.add_source store ~name:"spin" ~acl:(wildcard proc4)
    "start:  tra start\n";
  let sys = Os.System.create ~store () in
  (match
     Os.System.spawn sys ~pname:"stuck" ~user:"carol" ~segments:[ "spin" ]
       ~start:("spin", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn stuck: %s" e);
  let exits = Os.System.run ~max_slices:50 sys in
  Alcotest.(check (option exit_pair))
    "a legitimate-looking loop only runs out of budget"
    (Some ("stuck", Os.Kernel.Out_of_budget))
    (List.find_opt (fun (n, _) -> n = "stuck") exits);
  Alcotest.(check int) "no watchdog trip" 0
    Trace.Counters.(get (counters sys) watchdog_tripped)

let test_journal_replay_and_divergence () =
  (* The dead run: two transfers, both journalled to the sink. *)
  let sink = ref [] in
  let dead = Hw.Journal.create () in
  Hw.Journal.set_sink dead (fun r -> sink := r :: !sink);
  (match Hw.Journal.append dead [ 104; 105 ] with
  | Hw.Journal.Emitted -> ()
  | _ -> Alcotest.fail "first transfer should emit");
  (match Hw.Journal.append dead [ 33 ] with
  | Hw.Journal.Emitted -> ()
  | _ -> Alcotest.fail "second transfer should emit");
  Alcotest.(check int) "two records durable" 2 (List.length !sink);
  (* The resumed run: preload both records, replay from seq 0. *)
  let resumed = Hw.Journal.create () in
  let skips = ref 0 in
  Hw.Journal.set_on_skip resumed (fun () -> incr skips);
  List.iter (Hw.Journal.preload resumed) (List.rev !sink);
  Alcotest.(check int) "replay watermark" 1 (Hw.Journal.replay_high resumed);
  (match Hw.Journal.append resumed [ 104; 105 ] with
  | Hw.Journal.Replayed -> ()
  | _ -> Alcotest.fail "identical replay should be skipped");
  Alcotest.(check int) "skip counted" 1 !skips;
  (match Hw.Journal.append resumed [ 99 ] with
  | Hw.Journal.Diverged _ -> ()
  | _ -> Alcotest.fail "different codes must diverge");
  Alcotest.(check bool) "divergence latched" true
    (Hw.Journal.divergence resumed <> None);
  (* Past the watermark, fresh output emits again. *)
  let emitted = ref 0 in
  Hw.Journal.set_sink resumed (fun _ -> incr emitted);
  (match Hw.Journal.append resumed [ 46 ] with
  | Hw.Journal.Emitted -> ()
  | _ -> Alcotest.fail "post-watermark transfer should emit");
  Alcotest.(check int) "sink saw it" 1 !emitted

(* [warm_boot] is the serving fleet's per-request rewind: the same
   image applied to the same process must leave every counter —
   including [restores], which full [restore] bumps — byte-identical
   to the state right after capture, so per-request deltas against the
   boot snapshot compare cleanly run after run. *)
let test_warm_boot_rewinds_in_place () =
  let sys = fresh_system () in
  let image = Os.Snapshot.capture sys in
  let boot = Trace.Counters.snapshot (counters sys) in
  let boot_mem = memory_words sys in
  let exits1 = Os.System.run sys in
  let d1 =
    Trace.Counters.diff ~before:boot
      ~after:(Trace.Counters.snapshot (counters sys))
  in
  (match Os.Snapshot.warm_boot sys image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "warm_boot: %a" Os.Snapshot.pp_error e);
  Alcotest.(check (list (pair string int)))
    "counters rewound exactly, session-local ones included"
    (Trace.Counters.fields boot)
    (Trace.Counters.fields (Trace.Counters.snapshot (counters sys)));
  Alcotest.(check int) "warm boot did not count as a restore" 0
    Trace.Counters.(get (counters sys) restores);
  Alcotest.(check (list (pair int int)))
    "memory rewound" boot_mem (memory_words sys);
  let exits2 = Os.System.run sys in
  Alcotest.(check (list exit_pair)) "re-run exits identical" exits1 exits2;
  let d2 =
    Trace.Counters.diff ~before:boot
      ~after:(Trace.Counters.snapshot (counters sys))
  in
  Alcotest.(check (list (pair string int)))
    "re-run delta identical to the first run's"
    (Trace.Counters.fields d1) (Trace.Counters.fields d2)

(* {1 Incremental capture: dirty pages, delta chains, flatten} *)

let machine_mem sys = (Os.System.machine sys).Isa.Machine.mem

(* Attach the deterministic fault injector the way the serving fleet
   does, so chain captures run under chaos: poison-table writes and
   retried instructions exercise the dirty-page tracking on the same
   write path ordinary stores use. *)
let attach_injector sys =
  ignore
    (Os.Process.attach_injector (Os.System.machine sys)
       (Hw.Inject.default_plan ~seed:3)
       (List.map
          (fun (e : Os.System.entry) -> e.Os.System.process)
          (Os.System.entries sys)))

(* A system with a chain opened at its start and the first [n] slices
   each captured as a delta; the run then finishes uncaptured. *)
let chain_of ~n () =
  let sys = fresh_system () in
  let chain, base = Os.Snapshot.start_chain sys in
  let deltas = ref [] in
  let (_ : (string * Os.Kernel.exit) list) =
    Os.System.run
      ~on_slice:(fun () ->
        if List.length !deltas < n then
          deltas := Os.Snapshot.capture_delta sys chain :: !deltas)
      sys
  in
  (sys, chain, base, List.rev !deltas)

(* Recompute the header checksum (FNV-1a 64 over the payload, kept to
   63 bits) so a crafted payload passes the header check and reaches
   the decoder. *)
let reseal image =
  let b = Bytes.of_string image in
  let h = ref 0xcbf29ce484222325L in
  for i = 32 to Bytes.length b - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i))))
        0x100000001b3L
  done;
  Bytes.set_int64_be b 24 (Int64.of_int (Int64.to_int !h));
  Bytes.to_string b

(* [image] with the 8-byte word at [at] set to [v], resealed. *)
let overwrite image at v =
  let b = Bytes.of_string image in
  Bytes.set_int64_be b at (Int64.of_int v);
  reseal (Bytes.to_string b)

(* An image written by a build with another counter table: the counter
   fingerprint, the first word of the pre section (after the header,
   [base_sum] and the section's length), differs, and the resealed image
   reaches the decoder. *)
let test_counter_table_drift_is_refused () =
  let image, _ = run_capturing_at (fresh_system ()) ~at:150 in
  let at = 32 + 8 + 8 in
  let fingerprint = Int64.to_int (String.get_int64_be image at) in
  check_error "counter table drift" "snapshot is corrupt: counter table differs"
    (overwrite image at (fingerprint lxor 1))

(* A full capture of the current state that does not count itself: the
   image being compared against already carries its own capture in
   [snapshots_written], which [capture] bumps before it serializes. *)
let recapture sys =
  let c = counters sys in
  let v = Trace.Counters.values c in
  Array.iteri
    (fun i name -> if name = "snapshots_written" then v.(i) <- v.(i) - 1)
    Trace.Counters.names;
  Trace.Counters.load c v;
  Os.Snapshot.capture sys

let test_dirty_pages_track_every_write_path () =
  let sys = fresh_system () in
  let mem = machine_mem sys in
  Hw.Memory.clear_dirty mem;
  Alcotest.(check (list int)) "clean after clear" [] (Hw.Memory.dirty_pages mem);
  let gen = Hw.Memory.dirty_generation mem in
  (* A plain store marks exactly its page. *)
  let addr = 5 * Hw.Memory.page_words + 17 in
  Hw.Memory.write_silent mem addr 42;
  Alcotest.(check (list int)) "store marks its page" [ 5 ]
    (Hw.Memory.dirty_pages mem);
  (* Writing the same page again adds nothing; another page appends. *)
  Hw.Memory.write_silent mem (addr + 1) 43;
  Hw.Memory.blit_silent mem (9 * Hw.Memory.page_words) [| 1; 2; 3 |];
  Alcotest.(check (list int)) "pages ascending, deduplicated" [ 5; 9 ]
    (Hw.Memory.dirty_pages mem);
  Alcotest.(check int) "generation moves only on clear" gen
    (Hw.Memory.dirty_generation mem);
  Hw.Memory.clear_dirty mem;
  Alcotest.(check (list int)) "clear empties the map" []
    (Hw.Memory.dirty_pages mem);
  Alcotest.(check bool) "clear advances the generation" true
    (Hw.Memory.dirty_generation mem > gen);
  (* The written set is every page ever stored to.  A clear leaves it
     alone, and a page zeroed again stays in it — but a full capture,
     which lists only the pages holding a nonzero word, skips it. *)
  let written = Hw.Memory.written_pages mem in
  Alcotest.(check bool) "stored pages are written" true
    (List.mem 5 written && List.mem 9 written);
  Hw.Memory.clear_dirty mem;
  Alcotest.(check (list int)) "clear leaves the written set alone" written
    (Hw.Memory.written_pages mem);
  let last_addr = Hw.Memory.size mem - 1 in
  let last = last_addr / Hw.Memory.page_words in
  Alcotest.(check bool) "last page never written" false (List.mem last written);
  let image = Os.Snapshot.capture sys in
  Hw.Memory.write_silent mem last_addr 7;
  Hw.Memory.write_silent mem last_addr 0;
  Alcotest.(check (list int)) "a zeroed page stays written"
    (written @ [ last ]) (Hw.Memory.written_pages mem);
  Alcotest.(check (list int)) "and is dirty until the next clear" [ last ]
    (Hw.Memory.dirty_pages mem);
  Alcotest.(check bool) "a full capture does not list the zeroed page" true
    (String.equal image (recapture sys));
  Alcotest.(check (list int)) "the capture cleared the dirty set only" []
    (Hw.Memory.dirty_pages mem);
  Alcotest.(check bool) "the zeroed page is still written" true
    (List.mem last (Hw.Memory.written_pages mem));
  (* A descriptor rewrite (the kernel-table write path) lands in the
     dirty map like any other store. *)
  let e = List.hd (Os.System.entries sys) in
  let p = e.Os.System.process in
  let m = Os.System.machine sys in
  let dbr = p.Os.Process.descsegs.(0) in
  let segno =
    match Os.Process.segno_of p "bump_a" with
    | Some s -> s
    | None -> Alcotest.fail "bump_a not loaded"
  in
  (match Hw.Descriptor.fetch_sdw_silent m.Isa.Machine.mem dbr ~segno with
  | Ok sdw ->
      Hw.Descriptor.store_sdw m.Isa.Machine.mem dbr ~segno
        (Hw.Sdw.v ~paged:sdw.Hw.Sdw.paged ~base:sdw.Hw.Sdw.base
           ~bound:sdw.Hw.Sdw.bound sdw.Hw.Sdw.access)
  | Error _ -> Alcotest.fail "SDW unreadable");
  Alcotest.(check bool) "descriptor rewrite marks its page" true
    (Hw.Memory.dirty_pages mem <> []);
  (* Restore rewrites memory through the same path: the pages it
     changes surface in the dirty map (a conservative superset — a
     chain stays correct across an in-place rewind). *)
  let image = Os.Snapshot.capture sys in
  let (_ : (string * Os.Kernel.exit) list) = Os.System.run sys in
  Hw.Memory.clear_dirty mem;
  (match Os.Snapshot.warm_boot sys image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "warm_boot: %a" Os.Snapshot.pp_error e);
  Alcotest.(check bool) "rewind marks the pages it rewrote" true
    (Hw.Memory.dirty_pages mem <> [])

(* The flatten invariant, end to end under chaos injection: run twin
   systems with the same fault plan, one capturing a delta chain and
   one capturing full images at the same slice boundaries.  Every
   prefix of the chain must flatten to the bytes the full capture
   wrote at that boundary — poison-table writes, journal traffic and
   retried stores included, since any write the dirty map missed would
   diverge the bytes.  An uncaptured third twin pins the cost side:
   checkpointing, full or incremental, is free in modeled cycles. *)
let test_chain_flatten_matches_full_captures () =
  let a = fresh_system () and b = fresh_system () and c = fresh_system () in
  attach_injector a;
  attach_injector b;
  attach_injector c;
  let chain, base = Os.Snapshot.start_chain a in
  let full0 = Os.Snapshot.capture b in
  Alcotest.(check bool) "base equals the full capture at the same point" true
    (String.equal base full0);
  let deltas = ref [] and fulls = ref [] in
  let exits_a =
    Os.System.run
      ~on_slice:(fun () ->
        deltas := Os.Snapshot.capture_delta a chain :: !deltas)
      a
  in
  let exits_b =
    Os.System.run ~on_slice:(fun () -> fulls := Os.Snapshot.capture b :: !fulls) b
  in
  let exits_c = Os.System.run c in
  Alcotest.(check (list exit_pair)) "twin runs exit identically" exits_a exits_b;
  Alcotest.(check (list exit_pair))
    "the uncaptured twin exits identically" exits_c exits_b;
  Alcotest.(check int) "full captures left the modeled cycles alone"
    (cycles c) (cycles b);
  Alcotest.(check int) "delta captures left the modeled cycles alone"
    (cycles c) (cycles a);
  let deltas = List.rev !deltas and fulls = List.rev !fulls in
  Alcotest.(check int) "one delta per full capture" (List.length fulls)
    (List.length deltas);
  Alcotest.(check bool) "several checkpoint boundaries" true
    (List.length deltas >= 3);
  List.iteri
    (fun i full ->
      let prefix = List.filteri (fun j _ -> j <= i) deltas in
      match Os.Snapshot.flatten ~base prefix with
      | Ok img ->
          Alcotest.(check bool)
            (Printf.sprintf "link %d flattens to the full capture's bytes" i)
            true (String.equal img full)
      | Error e ->
          Alcotest.failf "flatten link %d: %a" i Os.Snapshot.pp_error e)
    fulls;
  (* Kill-and-resume through the chain: restore a mid-chain prefix
     onto a fresh system (injector attached — the image carries its
     state) and finish the run. *)
  let k = List.length deltas / 2 in
  let resumed = fresh_system () in
  attach_injector resumed;
  (match
     Os.Snapshot.restore_chain resumed ~base
       (List.filteri (fun j _ -> j < k) deltas)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore_chain: %a" Os.Snapshot.pp_error e);
  let (_ : (string * Os.Kernel.exit) list) = Os.System.run resumed in
  Alcotest.(check (list exit_pair))
    "resumed-from-chain completion log identical"
    (Os.System.finished_log a)
    (Os.System.finished_log resumed);
  Alcotest.(check (list (pair int int)))
    "resumed-from-chain memory identical" (memory_words a)
    (memory_words resumed)

let test_chain_rejections () =
  let _, _, base, deltas = chain_of ~n:3 () in
  let d1, d2, d3 =
    match deltas with
    | [ x; y; z ] -> (x, y, z)
    | l -> Alcotest.failf "expected 3 deltas, got %d" (List.length l)
  in
  let flatten_err what expected deltas =
    match Os.Snapshot.flatten ~base deltas with
    | Ok _ -> Alcotest.failf "%s: flatten accepted a broken chain" what
    | Error e ->
        Alcotest.(check string)
          what expected
          (Format.asprintf "%a" Os.Snapshot.pp_error e)
  in
  (* The empty chain re-seals the base byte-identically. *)
  (match Os.Snapshot.flatten ~base [] with
  | Ok img ->
      Alcotest.(check bool) "flatten ~base [] re-seals the base" true
        (String.equal img base)
  | Error e -> Alcotest.failf "flatten []: %a" Os.Snapshot.pp_error e);
  (* A later delta handed as the first: its reference is d1, not base. *)
  (match Os.Snapshot.flatten ~base [ d2 ] with
  | Error Os.Snapshot.Stale_base -> ()
  | Error e -> Alcotest.failf "expected Stale_base, got %a" Os.Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "flatten accepted a delta over the wrong base");
  (* A missing and a duplicated link are named by position. *)
  (match Os.Snapshot.flatten ~base [ d1; d3 ] with
  | Error (Os.Snapshot.Broken_chain 1) -> ()
  | Error e ->
      Alcotest.failf "expected Broken_chain 1, got %a" Os.Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "flatten accepted a chain with a missing link");
  (match Os.Snapshot.flatten ~base [ d1; d1 ] with
  | Error (Os.Snapshot.Broken_chain 1) -> ()
  | Error e ->
      Alcotest.failf "expected Broken_chain 1, got %a" Os.Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "flatten accepted a duplicated link");
  (* Damage inside a delta surfaces as the same layered errors full
     images get. *)
  (let t = Bytes.of_string d2 in
   Bytes.set t 100 (Char.chr (Char.code (Bytes.get t 100) lxor 1));
   flatten_err "flipped delta byte" "snapshot payload fails its checksum"
     [ d1; Bytes.to_string t; d3 ]);
  flatten_err "truncated delta" "snapshot image is truncated"
    [ String.sub d1 0 (String.length d1 - 1) ];
  (* Image kinds are not interchangeable. *)
  flatten_err "full image as a delta" "not a snapshot image (bad magic)"
    [ base ];
  match Os.Snapshot.flatten ~base:d1 [] with
  | Error Os.Snapshot.Bad_magic -> ()
  | Error e -> Alcotest.failf "expected Bad_magic, got %a" Os.Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "flatten accepted a delta as a base"

(* Two crafted images that once escaped the typed-error contract with
   [Out_of_memory]: one inflated field under a recomputed checksum, so
   the header check passes and the field reaches the decoder.  The
   fields are found by value, not by layout offset. *)
let test_inflated_fields_are_refused () =
  let sys, chain, base, deltas = chain_of ~n:2 () in
  let word i =
    if i + 8 > String.length base then min_int
    else Int64.to_int (String.get_int64_be base i)
  in
  let find what matches =
    match
      List.filter matches (List.init (String.length base - 32) (( + ) 32))
    with
    | [ at ] -> at
    | hits ->
        Alcotest.failf "%s: %d candidate words, expected one" what
          (List.length hits)
  in
  let big = 1 lsl 50 in
  let mem_size = Hw.Memory.size (machine_mem sys) in
  let huge_memory =
    overwrite base (find "memory size" (fun i -> word i = mem_size)) big
  in
  (* The span-histogram count: four histograms follow it, each led by
     its bucket count. *)
  let buckets, _, _, _, _ = Trace.Histogram.dump (Trace.Histogram.create ()) in
  let nb = Array.length buckets in
  let many_hists =
    overwrite base
      (find "histogram count" (fun i ->
           word i = 4
           && List.for_all
                (fun k -> word (i + 8 + (k * 8 * (nb + 5))) = nb)
                [ 0; 1; 2; 3 ]))
      big
  in
  let refused what = function
    | Ok _ -> Alcotest.failf "%s accepted a crafted image" what
    | Error (_ : Os.Snapshot.error) -> ()
  in
  let fresh = fresh_system () in
  refused "flatten" (Os.Snapshot.flatten ~base:huge_memory deltas);
  refused "rebase" (Os.Snapshot.rebase chain ~base:huge_memory);
  refused "restore_chain"
    (Os.Snapshot.restore_chain fresh ~base:huge_memory deltas);
  refused "restore" (Os.Snapshot.restore fresh huge_memory);
  refused "restore" (Os.Snapshot.restore fresh many_hists);
  refused "warm_boot" (Os.Snapshot.warm_boot fresh many_hists);
  refused "restore_chain" (Os.Snapshot.restore_chain fresh ~base:many_hists [])

(* Garbage collection of a live chain: fold the deltas captured so far
   into a new base, delete them, re-anchor the chain on the fold, and
   keep capturing.  The final state must restore from (folded base ++
   post-rebase deltas) exactly as the uncollected chain would have. *)
let test_rebase_continues_the_chain () =
  let sys = fresh_system () in
  let chain, base0 = Os.Snapshot.start_chain sys in
  let base = ref base0 in
  let deltas = ref [] in
  let slice = ref 0 in
  let (_ : (string * Os.Kernel.exit) list) =
    Os.System.run
      ~on_slice:(fun () ->
        incr slice;
        if !slice <= 2 || (!slice >= 4 && !slice <= 5) then
          deltas := !deltas @ [ Os.Snapshot.capture_delta sys chain ]
        else if !slice = 3 then begin
          (* The GC pass: BASE := flatten(BASE ++ deltas). *)
          match Os.Snapshot.flatten ~base:!base !deltas with
          | Error e -> Alcotest.failf "flatten: %a" Os.Snapshot.pp_error e
          | Ok folded -> (
              match Os.Snapshot.rebase chain ~base:folded with
              | Error e -> Alcotest.failf "rebase: %a" Os.Snapshot.pp_error e
              | Ok () ->
                  Alcotest.(check int) "rebase restarts the chain" 0
                    (Os.Snapshot.chain_length chain);
                  base := folded;
                  deltas := [])
        end)
      sys
  in
  Alcotest.(check int) "post-rebase deltas captured" 2 (List.length !deltas);
  let resumed = fresh_system () in
  (match Os.Snapshot.restore_chain resumed ~base:!base !deltas with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore_chain: %a" Os.Snapshot.pp_error e);
  let (_ : (string * Os.Kernel.exit) list) = Os.System.run resumed in
  Alcotest.(check bool) "resumed-through-gc run converges" true
    (comparable_fields sys = comparable_fields resumed
    && memory_words sys = memory_words resumed);
  (* A rebase on garbage refuses and leaves the chain usable. *)
  let sys2 = fresh_system () in
  let chain2, base2 = Os.Snapshot.start_chain sys2 in
  (match Os.Snapshot.rebase chain2 ~base:"garbage" with
  | Error Os.Snapshot.Truncated | Error Os.Snapshot.Bad_magic -> ()
  | Error e -> Alcotest.failf "rebase garbage: %a" Os.Snapshot.pp_error e
  | Ok () -> Alcotest.fail "rebase accepted garbage");
  let d = Os.Snapshot.capture_delta sys2 chain2 in
  match Os.Snapshot.flatten ~base:base2 [ d ] with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "chain unusable after failed rebase: %a"
        Os.Snapshot.pp_error e

(* Failed captures must not inflate [snapshots_written], and a full
   capture mid-chain poisons the chain, not the system. *)
let test_chain_interlopers_and_counter_rollback () =
  let sys = fresh_system () in
  let c = counters sys in
  let chain, _base = Os.Snapshot.start_chain sys in
  let d1 = Os.Snapshot.capture_delta sys chain in
  Alcotest.(check int) "chain advanced" 1 (Os.Snapshot.chain_length chain);
  ignore d1;
  (* A full capture is a capture point: it clears the dirty map, so
     the straddled chain must refuse its next delta instead of
     emitting one that misses the pages dirtied before the capture. *)
  let (_ : string) = Os.Snapshot.capture sys in
  let before = Trace.Counters.(get c snapshots_written) in
  (match Os.Snapshot.capture_delta sys chain with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capture_delta survived an interloping capture");
  Alcotest.(check int) "refused delta rolled back snapshots_written" before
    Trace.Counters.(get c snapshots_written);
  Alcotest.(check int) "refused delta did not advance the chain" 1
    (Os.Snapshot.chain_length chain);
  (* A foreign clear_dirty is the same interloper. *)
  let chain2, _base2 = Os.Snapshot.start_chain sys in
  Hw.Memory.clear_dirty (machine_mem sys);
  let before = Trace.Counters.(get c snapshots_written) in
  (match Os.Snapshot.capture_delta sys chain2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capture_delta survived a foreign clear_dirty");
  Alcotest.(check int) "rollback after foreign clear too" before
    Trace.Counters.(get c snapshots_written);
  (* A fresh chain recovers: the system itself is unharmed. *)
  let chain3, base3 = Os.Snapshot.start_chain sys in
  let d = Os.Snapshot.capture_delta sys chain3 in
  match Os.Snapshot.flatten ~base:base3 [ d ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh chain flatten: %a" Os.Snapshot.pp_error e

let test_journal_line_roundtrip () =
  let record = { Hw.Journal.seq = 7; codes = [ 114; 105; 110 ] } in
  let line = Hw.Journal.to_line ~pname:"printer" record in
  (match Hw.Journal.of_line line with
  | Ok (pname, r) ->
      Alcotest.(check string) "pname" "printer" pname;
      Alcotest.(check int) "seq" 7 r.Hw.Journal.seq;
      Alcotest.(check (list int)) "codes" [ 114; 105; 110 ] r.Hw.Journal.codes
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  (match Hw.Journal.of_line "printer notanumber 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed seq accepted");
  match Hw.Journal.of_line "lonely" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short line accepted"

(* {1 Rewind equivalence}

   A rewind skips the pages that cannot differ from its image: the
   pages never written, and — while memory is still anchored to that
   image — the pages not dirtied since.  So it is checked here against
   the plain definition.  After any interleaving of scheduler slices,
   stray stores, full and incremental captures and foreign dirty-map
   clears, a warm boot or restore to {e any} earlier image must leave
   every word of memory as it was when that image was captured, and
   re-capture to the image's bytes. *)

type rewind_op =
  | Run of int  (** this many scheduler slices *)
  | Poke of int * int  (** store a nonzero word at an address *)
  | Unpoke of int  (** zero the [i]th most recent poke, emptying its page *)
  | Capture
  | Delta  (** open a chain, or extend the open one and flatten it *)
  | Foreign_clear  (** a clear_dirty no capture made *)
  | Rewind of { image : int; restore : bool; recapture : bool }
  (* The ops below only leave state behind for a reset to clear. *)
  | Quarantine of int  (** quarantine the [i mod n]th entry *)
  | Inject of int  (** the default plan under this seed, with a hook *)
  | Tag of int  (** tag a word (capability machine only) *)
  | Trace of int  (** events, spans and profile on, 1-in-[n] sampling *)
  | Limit of int  (** arm the cycle ceiling this many cycles ahead *)
  | Degrade

let pp_rewind_op = function
  | Run k -> Printf.sprintf "Run %d" k
  | Poke (a, v) -> Printf.sprintf "Poke (%d, %d)" a v
  | Unpoke i -> Printf.sprintf "Unpoke %d" i
  | Capture -> "Capture"
  | Delta -> "Delta"
  | Foreign_clear -> "Foreign_clear"
  | Rewind { image; restore; recapture } ->
      Printf.sprintf "Rewind {image=%d; restore=%b; recapture=%b}" image
        restore recapture
  | Quarantine i -> Printf.sprintf "Quarantine %d" i
  | Inject seed -> Printf.sprintf "Inject %d" seed
  | Tag a -> Printf.sprintf "Tag %d" a
  | Trace n -> Printf.sprintf "Trace %d" n
  | Limit k -> Printf.sprintf "Limit %d" k
  | Degrade -> "Degrade"

let pp_ops ops = String.concat "; " (List.map pp_rewind_op ops)

(* The bump pair fills the first two 2^18-word regions; the 64 pages
   above them belong to no process, so stray stores there change
   memory without changing what the programs do. *)
let rewind_free_base = 2 * (1 lsl 18)
let rewind_mem_size = rewind_free_base + (64 * Hw.Memory.page_words)

exception Pause

(* Replays [ops] on [sys] and checks every rewind (a [Rewind] needs an
   image taken before it); the first mismatch fails with the op that
   exposed it. *)
let replay name sys ~quantum ops =
  let m = Os.System.machine sys in
  let mem = machine_mem sys in
  (* Every image taken, oldest first, with the nonzero words memory
     held when it was taken — read word by word, not from the image. *)
  let images = ref [||] in
  let record image =
    images := Array.append !images [| (image, memory_words sys) |]
  in
  let chain = ref None in
  let poked = ref [] in
  let step = function
    | Run k ->
        let left = ref k in
        let on_slice () =
          decr left;
          if !left = 0 then raise Pause
        in
        (try ignore (Os.System.run ~quantum ~on_slice sys : _ list)
         with Pause -> ())
    | Poke (a, v) ->
        Hw.Memory.write_silent mem a v;
        poked := a :: !poked
    | Unpoke i -> (
        match List.nth_opt !poked i with
        | Some a -> Hw.Memory.write_silent mem a 0
        | None -> ())
    | Capture -> record (Os.Snapshot.capture sys)
    | Delta -> (
        match !chain with
        | None ->
            let c, base = Os.Snapshot.start_chain sys in
            chain := Some (c, base, []);
            record base
        | Some (c, base, deltas) -> (
            match Os.Snapshot.capture_delta sys c with
            | exception Invalid_argument _ ->
                (* Another capture point or a foreign clear intervened:
                   the chain refuses, as it must. *)
                chain := None
            | d -> (
                let deltas = deltas @ [ d ] in
                chain := Some (c, base, deltas);
                match Os.Snapshot.flatten ~base deltas with
                | Ok image -> record image
                | Error e ->
                    Alcotest.failf "flatten: %a" Os.Snapshot.pp_error e)))
    | Foreign_clear -> Hw.Memory.clear_dirty mem
    | Rewind { image; restore; recapture = again } ->
        let img, words = !images.(image mod Array.length !images) in
        let result =
          if restore then Os.Snapshot.restore sys img
          else Os.Snapshot.warm_boot sys img
        in
        (match result with
        | Ok () -> ()
        | Error e -> Alcotest.failf "rewind: %a" Os.Snapshot.pp_error e);
        if memory_words sys <> words then
          Alcotest.fail "memory differs from the image's capture";
        (* [restore] already re-captured the image in its self-check. *)
        if again && (not restore) && not (String.equal img (recapture sys))
        then Alcotest.fail "does not re-capture to the image's bytes"
    | Quarantine i -> (
        match Os.System.entries sys with
        | [] -> ()
        | es ->
            Os.System.quarantine sys
              (List.nth es (i mod List.length es))
              (Rings.Fault.Watchdog_timeout { budget = i }))
    | Inject seed ->
        ignore
          (Os.Process.attach_injector m
             (Hw.Inject.default_plan ~seed)
             (List.map
                (fun (e : Os.System.entry) -> e.Os.System.process)
                (Os.System.entries sys)));
        m.Isa.Machine.on_recovery <-
          (fun _ -> Trace.Counters.(incr m.Isa.Machine.counters degraded))
    | Tag a -> if Hw.Memory.tags_enabled mem then Hw.Memory.set_tag mem a
    | Trace n ->
        Isa.Machine.set_sampling m
          { Isa.Machine.sample = n; seed = n; capacity = 512; instr = 0 };
        Trace.Event.set_enabled m.Isa.Machine.log true;
        Trace.Span.set_enabled m.Isa.Machine.spans true;
        Trace.Profile.set_enabled m.Isa.Machine.profile true
    | Limit k ->
        m.Isa.Machine.cycle_limit <-
          Some (Trace.Counters.cycles m.Isa.Machine.counters + k)
    | Degrade -> Isa.Machine.degrade m
  in
  List.iteri
    (fun i op ->
      try step op
      with e ->
        Alcotest.failf "%s: op %d of [%s]: %s" name i (pp_ops ops)
          (Printexc.to_string e))
    ops

(* Replays [ops] on a bump pair under [mode], from a first image. *)
let check_rewinds (name, mode) ~quantum ops =
  let sys =
    Os.System.create ~mode ~mem_size:rewind_mem_size
      ~store:(build_store ~n1:40 ~n2:25 ())
      ()
  in
  spawn_pair sys;
  replay name sys ~quantum (Capture :: ops)

let modes =
  [
    ("hw", Isa.Machine.Ring_hardware);
    ("645", Isa.Machine.Ring_software_645);
    ("cap", Isa.Machine.Ring_capability);
  ]

let warm image = Rewind { image; restore = false; recapture = true }

(* The two rewinds a dirty-pages-only apply gets wrong, and the
   rewinds that may trust the dirty set.  A page poked into the free
   area and then orphaned by a foreign clear, or by a newer capture, is
   no longer dirty, yet differs from the first image. *)
let test_rewinds_the_dirty_set_alone_misses () =
  let page n = rewind_free_base + (n * Hw.Memory.page_words) + 3 in
  List.iter
    (fun mode ->
      check_rewinds mode ~quantum:20
        [
          Run 3; Poke (page 1, 9); Foreign_clear; Run 2; Poke (page 2, 4);
          warm 0;
        ];
      check_rewinds mode ~quantum:20
        [ Run 2; Poke (page 1, 7); Capture; Run 2; Poke (page 2, 5); warm 0 ];
      check_rewinds mode ~quantum:20
        [
          Run 3; Poke (page 1, 6); warm 0; Poke (page 2, 8); Run 2; warm 0;
          Capture; Unpoke 0; Run 1; warm 1;
        ])
    modes

(* Stray stores into the free pages above [free_base], some into the
   very last page of a [mem_size]-word memory. *)
let gen_stray_ops ~free_base ~mem_size =
  let open QCheck.Gen in
  let last_page = mem_size - Hw.Memory.page_words in
  [
    ( 3,
      map2
        (fun a v -> Poke (a, v))
        (int_range free_base (mem_size - 1))
        (int_range 1 1_000_000) );
    ( 1,
      map2
        (fun a v -> Poke (a, v))
        (int_range last_page (mem_size - 1))
        (int_range 1 1_000_000) );
    (2, map (fun i -> Unpoke i) (int_bound 5));
  ]

let gen_rewind_op =
  let open QCheck.Gen in
  frequency
    ([ (4, map (fun k -> Run k) (int_range 1 6)) ]
    @ gen_stray_ops ~free_base:rewind_free_base ~mem_size:rewind_mem_size
    @ [
        (2, return Capture);
        (2, return Delta);
        (1, return Foreign_clear);
        ( 4,
          map3
            (fun image restore again ->
              Rewind { image; restore; recapture = again })
            (int_bound 15)
            (frequency [ (1, return true); (3, return false) ])
            bool );
      ])

let prop_rewind_equivalence ((name, _) as mode) =
  QCheck.Test.make
    ~name:(Printf.sprintf "rewind equivalence (%s)" name)
    ~count:25
    QCheck.(
      pair (int_range 5 40)
        (make ~print:pp_ops Gen.(list_size (int_range 1 30) gen_rewind_op)))
    (fun (quantum, ops) ->
      check_rewinds mode ~quantum ops;
      true)

(* {2 Reset equivalence}

   The arena runs wave after wave on one machine per worker, reset in
   between instead of built again.  A reset zeroes only the pages ever
   written and empties every cache by hand, so it is checked against
   the plain definition: after any program A — slices, stray stores
   into never-written pages and the last page, captures and chains, a
   quarantine, an injector with rules and a recovery hook, capability
   tags, a cycle ceiling, tracing and profiling, degraded caches, and a
   tenant storing into its own code — a program B run on the reset
   system at the same addresses must export the same counters, exits
   and full image, byte for byte, as B on a fresh system. *)

(* The arena's cache-probe tenant: it stores each round's next
   instruction over [patch] and executes it. *)
let probe_source ~rounds =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta cnt\n\
     loop:   lda jmpw\n\
    \        sta patch\n\
     patch:  .word 0\n\
     next:   lda cnt\n\
    \        sba =1\n\
    \        sta cnt\n\
    \        tnz loop\n\
    \        mme =2\n\
     jmpw:   tra next\n\
     cnt:    .word 0\n"
    rounds

(* The bump pair in the first two regions, a cache probe in the third,
   and 64 free pages above. *)
let reset_free_base = 3 * (1 lsl 18)
let reset_mem_size = reset_free_base + (64 * Hw.Memory.page_words)

type trio = { n1 : int; n2 : int; rounds : int }

let pp_trio t = Printf.sprintf "{n1=%d; n2=%d; rounds=%d}" t.n1 t.n2 t.rounds

let spawn_trio mode t =
  let store = build_store ~n1:t.n1 ~n2:t.n2 () in
  Os.Store.add_source store ~name:"probe"
    ~acl:
      (wildcard
         (Rings.Access.v ~read:true ~write:true ~execute:true
            (Rings.Brackets.of_ints 4 4 4)))
    (probe_source ~rounds:t.rounds);
  let spawn sys =
    spawn_pair sys;
    match
      Os.System.spawn sys ~pname:"pc" ~user:"carol" ~segments:[ "probe" ]
        ~start:("probe", "start") ~ring:4
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "spawn pc: %s" e
  in
  match mode with
  | `Fresh m ->
      let sys = Os.System.create ~mode:m ~mem_size:reset_mem_size ~store () in
      spawn sys;
      sys
  | `Reset sys ->
      Os.System.reset sys ~store;
      spawn sys;
      sys

(* B to the end: its exits, its counters, then its full image. *)
let run_to_end sys ~quantum =
  let exits = Os.System.run ~quantum sys in
  let fields = Trace.Counters.fields (Trace.Counters.snapshot (counters sys)) in
  (exits, Os.System.finished_log sys, fields, Os.Snapshot.capture sys)

let check_reset (name, mode) ~quantum ~a ~b ops =
  let sys = spawn_trio (`Fresh mode) a in
  replay name sys ~quantum ops;
  let reused = run_to_end (spawn_trio (`Reset sys) b) ~quantum in
  let fresh = run_to_end (spawn_trio (`Fresh mode) b) ~quantum in
  let exits, log, fields, image = fresh
  and exits', log', fields', image' = reused in
  let fail what =
    Alcotest.failf "%s: B=%s after A=%s [%s]: %s differ" name (pp_trio b)
      (pp_trio a) (pp_ops ops) what
  in
  if exits <> exits' then fail "exits";
  if log <> log' then fail "completion logs";
  if fields <> fields' then fail "counters";
  if not (String.equal image image') then fail "images"

let gen_trio =
  QCheck.Gen.(
    map3
      (fun n1 n2 rounds -> { n1; n2; rounds })
      (int_range 5 40) (int_range 5 40) (int_range 2 12))

let gen_reset_op =
  let open QCheck.Gen in
  frequency
    ([ (5, map (fun k -> Run k) (int_range 1 6)) ]
    @ gen_stray_ops ~free_base:reset_free_base ~mem_size:reset_mem_size
    @ [
        (2, return Capture);
        (1, return Delta);
        (1, return Foreign_clear);
        (1, map (fun i -> Quarantine i) (int_bound 2));
        (1, map (fun seed -> Inject seed) (int_range 1 1_000));
        ( 1,
          map (fun a -> Tag a) (int_range reset_free_base (reset_mem_size - 1))
        );
        (1, map (fun n -> Trace n) (int_range 1 3));
        (1, map (fun k -> Limit k) (int_range 50 2_000));
        (1, return Degrade);
      ])

let prop_reset_equivalence ((name, _) as mode) =
  QCheck.Test.make
    ~name:(Printf.sprintf "reset equals fresh (%s)" name)
    ~count:20
    QCheck.(
      quad (int_range 5 40)
        (make ~print:pp_trio gen_trio)
        (make ~print:pp_trio gen_trio)
        (make ~print:pp_ops Gen.(list_size (int_range 1 25) gen_reset_op)))
    (fun (quantum, a, b, ops) ->
      check_reset mode ~quantum ~a ~b ops;
      true)

(* A stale [watched] byte only sends a store down the write observer's
   slow path: exits, counters and images are the same with or without
   it, so the property above cannot see one.  The cache probe stores
   over words it fetched (fetch-memo and icache watches), the bump pair
   shares a segment, and a paged crossing translates through page
   tables (PTW watches), all on one default-size machine; after the
   reset every watched byte and page flag, every tag and every word
   must be zero, as on a fresh machine. *)
let test_reset_leaves_no_watch_bit () =
  List.iter
    (fun (name, mode) ->
      let store = build_store ~n1:20 ~n2:10 () in
      Os.Store.add_source store ~name:"probe"
        ~acl:
          (wildcard
             (Rings.Access.v ~read:true ~write:true ~execute:true
                (Rings.Brackets.of_ints 4 4 4)))
        (probe_source ~rounds:8);
      List.iter
        (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
        (Os.Scenario.crossing_sources ~caller_ring:4 ~callee_ring:1
           ~with_argument:true 20);
      let sys = Os.System.create ~mode ~store () in
      spawn_pair sys;
      let spawn ?paged pname segments start =
        match
          Os.System.spawn sys ?paged ~pname ~user:pname ~segments
            ~start:(start, "start") ~ring:4
        with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: spawn %s: %s" name pname e
      in
      spawn "pc" [ "probe" ] "probe";
      spawn ~paged:true "pd" [ "caller"; "service"; "data" ] "caller";
      let exits = Os.System.run sys in
      List.iter
        (fun (pname, e) ->
          if e <> Os.Kernel.Exited then
            Alcotest.failf "%s: %s ended %a" name pname Os.Kernel.pp_exit e)
        exits;
      let m = Os.System.machine sys in
      let bits = ref 0 in
      Array.iter
        (Bytes.iter (fun c -> bits := !bits lor Char.code c))
        m.Isa.Machine.watched;
      Alcotest.(check int)
        (name ^ ": all four watch kinds armed before the reset")
        15 !bits;
      if mode = Isa.Machine.Ring_capability then
        Alcotest.(check bool)
          (name ^ ": tags minted before the reset")
          true
          (Hw.Memory.tagged_addrs m.mem <> []);
      Os.System.reset sys ~store:(Os.Store.create ());
      let nonzero b =
        Bytes.fold_left (fun n c -> if c <> '\000' then n + 1 else n) 0 b
      in
      Alcotest.(check int)
        (name ^ ": watched bytes")
        0
        (Array.fold_left (fun n b -> n + nonzero b) 0 m.watched);
      Alcotest.(check int)
        (name ^ ": watched page flags")
        0 (nonzero m.watched_pages);
      let tagged = ref 0 in
      for a = 0 to Hw.Memory.size m.mem - 1 do
        if Hw.Memory.tagged m.mem a then incr tagged
      done;
      Alcotest.(check int) (name ^ ": tagged words") 0 !tagged;
      Alcotest.(check int)
        (name ^ ": nonzero words")
        0
        (List.length (nonzero_words m.mem));
      Alcotest.(check (list int)) (name ^ ": written pages") []
        (Hw.Memory.written_pages m.mem))
    modes

(* {2 The trusted warm boot}

   A warm boot trusts what its system already checked on the very
   string it last applied whole: the checksum, and the records of the
   pages still clean under the memory anchor.  Any other string is
   checked in full. *)

let warm_boot_ok what sys image =
  match Os.Snapshot.warm_boot sys image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %a" what Os.Snapshot.pp_error e

(* The bump pair under [mode], captured mid-run and run to the end,
   then rewound to its image once, which the system now remembers, and
   run to the end again.  Last, every word the image lists on a page
   the runs dirtied is changed, so a rewind must store each one back;
   the other pages stay clean. *)
let remembered_run (name, mode) =
  let sys = Os.System.create ~mode ~store:(build_store ~n1:30 ~n2:12 ()) () in
  spawn_pair sys;
  let image, _ = run_capturing_at sys ~at:150 in
  warm_boot_ok (name ^ ": first warm boot") sys image;
  let listed = memory_words sys in
  ignore (Os.System.run sys : (string * Os.Kernel.exit) list);
  let mem = machine_mem sys in
  let dirty = Hw.Memory.dirty_pages mem in
  List.iter
    (fun (a, w) ->
      if List.mem (a / Hw.Memory.page_words) dirty then
        Hw.Memory.write_silent mem a (w lxor 1))
    listed;
  (sys, image)

let all_fields sys =
  Trace.Counters.fields (Trace.Counters.snapshot (counters sys))

(* A warm boot to the remembered image skips checks a warm boot to a
   byte copy of it runs; both must leave the same machine, and the
   image's own. *)
let test_trusted_warm_boot_equals_a_checked_one () =
  List.iter
    (fun ((name, _) as mode) ->
      let trusted, image = remembered_run mode in
      let checked, image' = remembered_run mode in
      warm_boot_ok (name ^ ": remembered image") trusted image;
      warm_boot_ok (name ^ ": byte copy") checked
        (Bytes.to_string (Bytes.of_string image'));
      Alcotest.(check (list (pair int int)))
        (name ^ ": memory words") (memory_words checked)
        (memory_words trusted);
      Alcotest.(check (list (pair string int)))
        (name ^ ": counters") (all_fields checked) (all_fields trusted);
      let again = recapture trusted in
      Alcotest.(check bool)
        (name ^ ": re-captures the image") true (String.equal again image);
      Alcotest.(check bool)
        (name ^ ": re-captures alike") true
        (String.equal (recapture checked) again))
    modes

(* [image] with one bit flipped in the first word its first page record
   lists (after the header, [base_sum], the pre section with its
   length, [mem_size], [npages] and the record's page number, length,
   word count and first offset), the checksum left as it was. *)
let flip_listed_word image =
  let pre_len = Int64.to_int (String.get_int64_be image 40) in
  let at = 48 + pre_len + 16 + 32 + 7 in
  let b = Bytes.of_string image in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
  Bytes.to_string b

(* A damaged copy of the remembered image is not the remembered image:
   its checksum is verified, on the first try and after refused
   applies (its own, and one of an image that fails past the
   checksum), which must not make the system trust anything new. *)
let test_damaged_copy_of_the_remembered_image_is_refused () =
  List.iter
    (fun ((name, _) as mode) ->
      let sys, image = remembered_run mode in
      warm_boot_ok (name ^ ": remembered image") sys image;
      let damaged = flip_listed_word image in
      let refused what =
        match Os.Snapshot.warm_boot sys damaged with
        | Error Os.Snapshot.Checksum_mismatch -> ()
        | Ok () -> Alcotest.failf "%s: %s: damaged copy accepted" name what
        | Error e ->
            Alcotest.failf "%s: %s: %a" name what Os.Snapshot.pp_error e
      in
      refused "first try";
      refused "after its own refusal";
      let fingerprint = Int64.to_int (String.get_int64_be image 48) in
      (match
         Os.Snapshot.warm_boot sys (overwrite image 48 (fingerprint lxor 1))
       with
      | Error (Os.Snapshot.Corrupt _) -> ()
      | Ok () -> Alcotest.failf "%s: counter drift accepted" name
      | Error e -> Alcotest.failf "%s: drift: %a" name Os.Snapshot.pp_error e);
      refused "after a refused apply of another image";
      warm_boot_ok (name ^ ": remembered image again") sys image;
      Alcotest.(check bool)
        (name ^ ": re-captures the image") true
        (String.equal (recapture sys) image))
    modes

(* Every constructor of the variants the image encodes by hand, each
   with distinct field values so a reader that swaps two fields or two
   tags decodes something else. *)
let every_fault : Rings.Fault.t list =
  let r = Rings.Ring.v in
  [
    No_read_permission;
    No_write_permission;
    No_execute_permission;
    Read_bracket_violation { effective = r 5; top = r 4 };
    Write_bracket_violation { effective = r 6; top = r 3 };
    Execute_bracket_violation { ring = r 7; bottom = r 1; top = r 2 };
    Gate_violation { wordno = 9; gates = 2 };
    Outside_gate_extension { effective = r 6; top = r 5 };
    Upward_call { from_ring = r 1; to_ring = r 4; segno = 11; wordno = 3 };
    Effective_ring_raised { exec = r 2; effective = r 3 };
    Downward_return { from_ring = r 5; to_ring = r 2 };
    Transfer_ring_change { exec = r 4; effective = r 6 };
    Privileged_instruction { ring = r 3 };
    Missing_segment { segno = 12 };
    Missing_page { segno = 13; pageno = 2 };
    Bound_violation { segno = 14; wordno = 70; bound = 64 };
    Illegal_opcode { word = 0o777 };
    Cross_ring_transfer { segno = 15; wordno = 4 };
    Halt_in_slave_ring { ring = r 6 };
    Divide_by_zero;
    Service_call { code = 5 };
    Timer_runout;
    Io_completion;
    Parity_error { addr = 0o1234 };
    Io_error;
    Watchdog_timeout { budget = 500 };
    Quota_exhausted { resource = "cycles"; limit = 900 };
    Cap_load_violation { effective = r 4 };
    Cap_store_violation { effective = r 5 };
    Cap_exec_violation { ring = r 6 };
    Cap_seal_violation { wordno = 8; gates = 1 };
    Cap_attenuation_violation { effective = r 3; limit = r 2 };
    Cap_tag_violation { addr = 0o4321; segno = 16 };
  ]

let every_exit : Os.Kernel.exit list =
  [
    Halted;
    Exited;
    Preempted;
    Blocked;
    Terminated (Rings.Fault.Gate_violation { wordno = 3; gates = 1 });
    Gatekeeper_error "no such gate";
    Out_of_budget;
    Quarantined (Rings.Fault.Parity_error { addr = 77 });
  ]

let every_event : Trace.Event.t list =
  let crossings = Trace.Event.[ Same_ring; Downward; Upward; Recovery ] in
  [ Trace.Event.Instruction { ring = 4; segno = 10; wordno = 2; text = "lda" } ]
  @ List.concat_map
      (fun crossing ->
        Trace.Event.
          [
            Call { crossing; from_ring = 4; to_ring = 1; segno = 9; wordno = 0 };
            Return
              { crossing; from_ring = 1; to_ring = 4; segno = 10; wordno = 6 };
          ])
      crossings
  @ Trace.Event.
      [
        Trap { ring = 3; cause = "timer runout" };
        Gatekeeper { action = "upward call emulated" };
        Descriptor_switch { from_ring = 4; to_ring = 0 };
        Note "checkpoint";
      ]

let every_status : Os.System.status list =
  [ Ready; Blocked; Done (Os.Kernel.Quarantined Rings.Fault.Io_error) ]

(* The bump pair plus a demand-paged third process: a direct and a
   paged placement in one system. *)
let variant_system () =
  let sys = fresh_system () in
  (match
     Os.System.spawn sys ~paged:true
       ~shared:[ ("counter", "pa") ]
       ~pname:"pc" ~user:"carol" ~segments:[ "bump_b" ]
       ~start:("bump_b", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn pc: %s" e);
  sys

let placements sys =
  List.map
    (fun (e : Os.System.entry) ->
      Hashtbl.fold
        (fun segno pl acc -> (segno, pl) :: acc)
        e.Os.System.process.Os.Process.placement []
      |> List.sort compare)
    (Os.System.entries sys)

let test_every_variant_round_trips () =
  Alcotest.(check int) "all fault codes" 33 (List.length every_fault);
  List.iteri
    (fun i f ->
      Alcotest.(check int) "fault code order" i (Rings.Fault.code f))
    every_fault;
  let exit = Alcotest.testable Os.Kernel.pp_exit ( = ) in
  List.iter
    (fun fault ->
      let sys = variant_system () in
      let m = Os.System.machine sys in
      m.Isa.Machine.saved <-
        Some { Isa.Machine.regs = Hw.Registers.copy m.Isa.Machine.regs; fault };
      Os.System.set_finished_log sys (List.map (fun e -> ("pa", e)) every_exit);
      Trace.Event.set_enabled m.Isa.Machine.log true;
      List.iter (Trace.Event.record m.Isa.Machine.log) every_event;
      List.iter2
        (fun (e : Os.System.entry) s -> e.Os.System.status <- s)
        (Os.System.entries sys) every_status;
      let image = Os.Snapshot.capture sys in
      let resumed = variant_system () in
      (match Os.Snapshot.restore resumed image with
      | Ok () -> ()
      | Error e -> Alcotest.failf "restore: %a" Os.Snapshot.pp_error e);
      let m' = Os.System.machine resumed in
      let what = Format.asprintf "%a" Rings.Fault.pp fault in
      (match m'.Isa.Machine.saved with
      | Some s ->
          Alcotest.(check (testable Rings.Fault.pp ( = )))
            what fault s.Isa.Machine.fault
      | None -> Alcotest.failf "%s: saved state lost" what);
      Alcotest.(check (list (pair string exit)))
        "exits" (Os.System.finished_log sys)
        (Os.System.finished_log resumed);
      Alcotest.(check bool)
        "events" true
        (Trace.Event.events m'.Isa.Machine.log = every_event);
      let kinds =
        List.concat_map (List.map snd) (placements resumed)
        |> List.map (function
             | Os.Process.Direct _ -> "direct"
             | Os.Process.Paged_at _ -> "paged")
        |> List.sort_uniq compare
      in
      Alcotest.(check (list string)) "both placements" [ "direct"; "paged" ]
        kinds;
      Alcotest.(check bool)
        "placements" true
        (placements sys = placements resumed);
      Alcotest.(check bool)
        "statuses" true
        (List.map
           (fun (e : Os.System.entry) -> e.Os.System.status)
           (Os.System.entries resumed)
        = every_status))
    every_fault

let suite =
  [
    ( "snapshot",
      [
        Alcotest.test_case "kill-and-resume equals the straight run" `Quick
          test_kill_and_resume_equals_straight_run;
        Alcotest.test_case "capture is deterministic" `Quick
          test_capture_is_deterministic;
        Alcotest.test_case "damaged images are rejected with typed errors"
          `Quick test_damaged_images_are_rejected;
        Alcotest.test_case "counter table drift refused" `Quick
          test_counter_table_drift_is_refused;
        Alcotest.test_case "restore audit rejects tampered kernel tables"
          `Quick test_audit_rejects_tampered_tables;
        Alcotest.test_case "watchdog quarantines a stuck process" `Quick
          test_watchdog_quarantines_stuck_process;
        Alcotest.test_case "watchdog is off by default" `Quick
          test_watchdog_off_by_default;
        Alcotest.test_case "journal replays without re-emitting" `Quick
          test_journal_replay_and_divergence;
        Alcotest.test_case "journal line format roundtrips" `Quick
          test_journal_line_roundtrip;
        Alcotest.test_case "warm boot rewinds in place" `Quick
          test_warm_boot_rewinds_in_place;
        Alcotest.test_case "dirty pages track every write path" `Quick
          test_dirty_pages_track_every_write_path;
        Alcotest.test_case "chain flatten matches full captures under chaos"
          `Quick test_chain_flatten_matches_full_captures;
        Alcotest.test_case "broken chains are rejected with typed errors"
          `Quick test_chain_rejections;
        Alcotest.test_case "inflated counts and sizes end in typed errors"
          `Quick test_inflated_fields_are_refused;
        Alcotest.test_case "rebase folds and continues the chain" `Quick
          test_rebase_continues_the_chain;
        Alcotest.test_case "interlopers poison the chain, not the counter"
          `Quick test_chain_interlopers_and_counter_rollback;
        Alcotest.test_case "rewinds the dirty set alone gets wrong" `Quick
          test_rewinds_the_dirty_set_alone_misses;
      ]
      @ List.map
          (fun m -> QCheck_alcotest.to_alcotest (prop_rewind_equivalence m))
          modes
      @ List.map
          (fun m -> QCheck_alcotest.to_alcotest (prop_reset_equivalence m))
          modes
      @ [
          Alcotest.test_case "every variant round-trips through an image"
            `Quick test_every_variant_round_trips;
          Alcotest.test_case "reset leaves no watch bit" `Quick
            test_reset_leaves_no_watch_bit;
          Alcotest.test_case "trusted warm boot equals a checked one" `Quick
            test_trusted_warm_boot_equals_a_checked_one;
          Alcotest.test_case "damaged copy of the remembered image refused"
            `Quick test_damaged_copy_of_the_remembered_image_is_refused;
        ] );
  ]
