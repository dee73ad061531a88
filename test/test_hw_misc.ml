(* Addresses, memory, registers and descriptor-segment translation. *)

let counters () = Trace.Counters.create ()

(* Addr *)

let test_addr_bounds () =
  (try
     ignore (Hw.Addr.v ~segno:(Hw.Addr.max_segno + 1) ~wordno:0);
     Alcotest.fail "oversized segno accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Hw.Addr.v ~segno:0 ~wordno:(Hw.Addr.max_wordno + 1));
    Alcotest.fail "oversized wordno accepted"
  with Invalid_argument _ -> ()

let test_addr_offset_wraps () =
  let a = Hw.Addr.v ~segno:3 ~wordno:Hw.Addr.max_wordno in
  let a' = Hw.Addr.offset a 1 in
  Alcotest.(check int) "wraps to zero" 0 a'.Hw.Addr.wordno;
  Alcotest.(check int) "same segment" 3 a'.Hw.Addr.segno

(* Memory *)

let test_memory_rw_and_accounting () =
  let c = counters () in
  let mem = Hw.Memory.create ~size:64 c in
  Hw.Memory.write mem 10 42;
  Alcotest.(check int) "read back" 42 (Hw.Memory.read mem 10);
  Alcotest.(check int) "one write" 1 Trace.Counters.(get c memory_writes);
  Alcotest.(check int) "one read" 1 Trace.Counters.(get c memory_reads);
  Alcotest.(check int) "two cycles" 2 (Trace.Counters.cycles c);
  ignore (Hw.Memory.read_silent mem 10);
  Hw.Memory.write_silent mem 11 1;
  Alcotest.(check int) "silent ops unaccounted" 2 (Trace.Counters.cycles c)

let test_memory_bounds () =
  let mem = Hw.Memory.create ~size:64 (counters ()) in
  try
    ignore (Hw.Memory.read mem 64);
    Alcotest.fail "out of range read accepted"
  with Invalid_argument _ -> ()

let test_memory_masks () =
  let mem = Hw.Memory.create ~size:64 (counters ()) in
  Hw.Memory.write mem 0 (-1);
  Alcotest.(check int) "written masked to 36 bits" Hw.Word.mask
    (Hw.Memory.read mem 0)

(* Paged memory against a flat reference: an int array with its own
   page stamps, dirty generation, tag bits and access counts.  Every
   operation is applied to both, and after each one every word, both
   page sets, the tag list and the memory counters must agree. *)

type mem_op =
  | Write of int * int
  | Write_silent of int * int
  | Blit of int * int list
  | Read of int
  | Read_silent of int
  | Iter_nonzero of int * int
  | Clear_dirty
  | Reset
  | Set_tag of int
  | Clear_tags

let pp_mem_op = function
  | Write (a, v) -> Printf.sprintf "write %d %d" a v
  | Write_silent (a, v) -> Printf.sprintf "write_silent %d %d" a v
  | Blit (a, vs) ->
      Printf.sprintf "blit %d [%s]" a
        (String.concat ";" (List.map string_of_int vs))
  | Read a -> Printf.sprintf "read %d" a
  | Read_silent a -> Printf.sprintf "read_silent %d" a
  | Iter_nonzero (a, len) -> Printf.sprintf "iter_nonzero %d %d" a len
  | Clear_dirty -> "clear_dirty"
  | Reset -> "reset"
  | Set_tag a -> Printf.sprintf "set_tag %d" a
  | Clear_tags -> "clear_tags"

type mem_model = {
  m_words : int array;
  m_stamps : int array;
  mutable m_gen : int;
  m_tags : bool array;
  mutable m_accesses : int * int;  (* reads, writes *)
}

let model_create size =
  {
    m_words = Array.make size 0;
    m_stamps =
      Array.make ((size + Hw.Memory.page_words - 1) / Hw.Memory.page_words) (-1);
    m_gen = 0;
    m_tags = Array.make size false;
    m_accesses = (0, 0);
  }

let model_store m a v =
  m.m_words.(a) <- Hw.Word.of_int v;
  m.m_stamps.(a / Hw.Memory.page_words) <- m.m_gen;
  m.m_tags.(a) <- false

let model_pages m keep =
  List.filter
    (fun p -> keep m.m_stamps.(p))
    (List.init (Array.length m.m_stamps) Fun.id)

(* Apply [op] to [mem] and [m]; fail when a result differs. *)
let apply_mem_op ~tags mem m op =
  let size = Array.length m.m_words in
  let in_range a = a >= 0 && a < size in
  let same what got want =
    if got <> want then
      QCheck.Test.fail_reportf "%s: %s read %d, model %d" (pp_mem_op op) what
        got want
  in
  let refused f =
    match f () with
    | _ -> QCheck.Test.fail_reportf "%s: accepted" (pp_mem_op op)
    | exception Invalid_argument _ -> ()
  in
  let reads, writes = m.m_accesses in
  match op with
  | Write (a, v) ->
      Hw.Memory.write mem a v;
      model_store m a v;
      m.m_accesses <- (reads, writes + 1)
  | Write_silent (a, v) when in_range a ->
      Hw.Memory.write_silent mem a v;
      model_store m a v
  | Write_silent (a, v) -> refused (fun () -> Hw.Memory.write_silent mem a v)
  | Blit (a, vs) ->
      Hw.Memory.blit_silent mem a (Array.of_list vs);
      List.iteri (fun i v -> model_store m (a + i) v) vs
  | Read a ->
      same "read" (Hw.Memory.read mem a) m.m_words.(a);
      m.m_accesses <- (reads + 1, writes)
  | Read_silent a when in_range a ->
      same "read_silent" (Hw.Memory.read_silent mem a) m.m_words.(a)
  | Read_silent a -> refused (fun () -> Hw.Memory.read_silent mem a)
  | Iter_nonzero (a, len) ->
      let got = ref [] in
      Hw.Memory.iter_nonzero mem ~addr:a ~len (fun i w -> got := (i, w) :: !got);
      let want =
        List.filter
          (fun (_, w) -> w <> 0)
          (List.init len (fun i -> (i, m.m_words.(a + i))))
      in
      if List.rev !got <> want then
        QCheck.Test.fail_reportf "%s: visited %d words, model has %d nonzero"
          (pp_mem_op op) (List.length !got) (List.length want)
  | Clear_dirty ->
      Hw.Memory.clear_dirty mem;
      m.m_gen <- m.m_gen + 1
  | Reset ->
      Hw.Memory.reset mem;
      Array.fill m.m_words 0 size 0;
      Array.fill m.m_stamps 0 (Array.length m.m_stamps) (-1);
      m.m_gen <- 0;
      Array.fill m.m_tags 0 size false
  | Set_tag a when tags && in_range a ->
      Hw.Memory.set_tag mem a;
      m.m_tags.(a) <- true
  | Set_tag a -> refused (fun () -> Hw.Memory.set_tag mem a)
  | Clear_tags ->
      Hw.Memory.clear_tags mem;
      Array.fill m.m_tags 0 size false

let check_mem_agrees mem m ~after =
  let size = Array.length m.m_words in
  let fail fmt = QCheck.Test.fail_reportf ("after %s: " ^^ fmt) after in
  for a = 0 to size - 1 do
    if Hw.Memory.read_silent mem a <> m.m_words.(a) then
      fail "word %d is %d, model %d" a (Hw.Memory.read_silent mem a)
        m.m_words.(a)
  done;
  if Hw.Memory.dirty_generation mem <> m.m_gen then fail "generations differ";
  if Hw.Memory.dirty_pages mem <> model_pages m (fun s -> s = m.m_gen) then
    fail "dirty pages differ";
  if Hw.Memory.written_pages mem <> model_pages m (fun s -> s >= 0) then
    fail "written pages differ";
  let tagged =
    List.filter (fun a -> m.m_tags.(a)) (List.init size Fun.id)
  in
  if Hw.Memory.tagged_addrs mem <> tagged then fail "tagged words differ";
  let c = Hw.Memory.counters mem in
  let reads, writes = m.m_accesses in
  if
    Trace.Counters.(get c memory_reads, get c memory_writes, cycles c)
    <> (reads, writes, (reads + writes) * Hw.Costs.memory_access)
  then fail "memory counters differ"

let gen_mem_ops size =
  let open QCheck.Gen in
  (* Half the addresses sit at a page's first or last two words, where
     a page walk is most easily off by one. *)
  let page = Hw.Memory.page_words in
  let edge =
    map2
      (fun p o -> min (size - 1) ((p * page) + o))
      (int_bound ((size - 1) / page))
      (oneofl [ 0; 1; page - 2; page - 1 ])
  in
  let addr = frequency [ (1, int_bound (size - 1)); (1, edge) ] in
  (* One address in thirty falls just outside the memory. *)
  let any_addr = frequency [ (28, addr); (1, return size); (1, return (-1)) ] in
  let value = frequency [ (3, return 0); (3, int_bound 1000); (2, int) ] in
  let span f = addr >>= fun a -> map (f a) (int_bound (size - a)) in
  frequency
    [
      (6, map2 (fun a v -> Write (a, v)) addr value);
      (6, map2 (fun a v -> Write_silent (a, v)) any_addr value);
      ( 2,
        addr >>= fun a ->
        map
          (fun vs -> Blit (a, vs))
          (list_size (int_bound (min 40 (size - a))) value) );
      (3, map (fun a -> Read a) addr);
      (3, map (fun a -> Read_silent a) any_addr);
      (2, span (fun a len -> Iter_nonzero (a, len)));
      (2, return Clear_dirty);
      (1, return Reset);
      (3, map (fun a -> Set_tag a) any_addr);
      (1, return Clear_tags);
    ]

let prop_memory_matches_flat_model size =
  QCheck.Test.make
    ~name:(Printf.sprintf "paged memory matches a flat model (%d words)" size)
    ~count:150
    QCheck.(
      pair bool
        (make
           ~print:(fun ops -> String.concat "; " (List.map pp_mem_op ops))
           Gen.(list_size (int_range 1 60) (gen_mem_ops size))))
    (fun (tags, ops) ->
      let mem = Hw.Memory.create ~size (counters ()) in
      if tags then Hw.Memory.enable_tags mem;
      let m = model_create size in
      List.iter
        (fun op ->
          apply_mem_op ~tags mem m op;
          check_mem_agrees mem m ~after:(pp_mem_op op))
        ops;
      true)

(* Every page of every memory starts out as one shared zero page; a
   store must give the page a copy of its own, never write the shared
   one. *)
let test_zero_page_never_written () =
  let page = Hw.Memory.page_words in
  let size = 4 * page in
  let before = Hw.Memory.create ~size (counters ()) in
  let a = Hw.Memory.create ~size (counters ()) in
  for i = 0 to page - 1 do
    Hw.Memory.write_silent a (page + i) (i + 1)
  done;
  let after = Hw.Memory.create ~size (counters ()) in
  let all_zero what mem =
    Hw.Memory.iter_nonzero mem ~addr:0 ~len:size (fun i w ->
        Alcotest.failf "%s: word %d reads %d" what i w);
    for i = 0 to size - 1 do
      if Hw.Memory.read_silent mem i <> 0 then
        Alcotest.failf "%s: word %d is not zero" what i
    done
  in
  all_zero "memory built before the stores" before;
  all_zero "memory built after the stores" after;
  Alcotest.(check int) "the stored page reads back" (page / 2 + 1)
    (Hw.Memory.read_silent a (page + (page / 2)));
  Alcotest.(check int) "its neighbours stay zero" 0
    (Hw.Memory.read_silent a (2 * page));
  Hw.Memory.reset a;
  all_zero "the stored memory after reset" a;
  Hw.Memory.write_silent a page 7;
  all_zero "a fresh memory after the reused page is stored again"
    (Hw.Memory.create ~size (counters ()))

(* Registers *)

let test_registers_prs () =
  let regs = Hw.Registers.create () in
  let p = Hw.Registers.ptr ~ring:4 ~segno:10 ~wordno:5 in
  Hw.Registers.set_pr regs 3 p;
  Alcotest.(check bool) "stored" true (Hw.Registers.get_pr regs 3 = p);
  try
    ignore (Hw.Registers.get_pr regs 8);
    Alcotest.fail "PR8 accepted"
  with Invalid_argument _ -> ()

let test_maximize_pr_rings () =
  let regs = Hw.Registers.create () in
  Hw.Registers.set_pr regs 0 (Hw.Registers.ptr ~ring:1 ~segno:0 ~wordno:0);
  Hw.Registers.set_pr regs 1 (Hw.Registers.ptr ~ring:6 ~segno:0 ~wordno:0);
  Hw.Registers.maximize_pr_rings regs (Rings.Ring.v 4);
  Alcotest.(check int) "raised to 4" 4
    (Rings.Ring.to_int (Hw.Registers.get_pr regs 0).Hw.Registers.ring);
  Alcotest.(check int) "6 untouched" 6
    (Rings.Ring.to_int (Hw.Registers.get_pr regs 1).Hw.Registers.ring)

let test_indicators () =
  let regs = Hw.Registers.create () in
  Hw.Registers.set_indicators regs 0;
  Alcotest.(check bool) "zero on" true regs.Hw.Registers.ind_zero;
  Hw.Registers.set_indicators regs (Hw.Word.of_signed (-3));
  Alcotest.(check bool) "zero off" false regs.Hw.Registers.ind_zero;
  Alcotest.(check bool) "negative on" true regs.Hw.Registers.ind_negative

let test_copy_restore () =
  let regs = Hw.Registers.create () in
  regs.Hw.Registers.a <- 7;
  Hw.Registers.set_pr regs 2 (Hw.Registers.ptr ~ring:3 ~segno:9 ~wordno:1);
  let saved = Hw.Registers.copy regs in
  regs.Hw.Registers.a <- 99;
  Hw.Registers.set_pr regs 2 (Hw.Registers.ptr ~ring:0 ~segno:0 ~wordno:0);
  Hw.Registers.restore regs ~from:saved;
  Alcotest.(check int) "A restored" 7 regs.Hw.Registers.a;
  Alcotest.(check int) "PR2 restored" 9
    (Hw.Registers.get_pr regs 2).Hw.Registers.addr.Hw.Addr.segno;
  (* The copy is deep: mutating the copy must not affect the live file. *)
  saved.Hw.Registers.xs.(0) <- 42;
  Alcotest.(check int) "deep copy" 0 regs.Hw.Registers.xs.(0)

(* Descriptor *)

let with_descseg f =
  let c = counters () in
  let mem = Hw.Memory.create ~size:4096 c in
  let dbr = { Hw.Registers.base = 0; bound = 16; stack_base = 0 } in
  f c mem dbr

let access = Rings.Access.data_segment ~writable_to:4 ~readable_to:5 ()

let test_descriptor_fetch_store () =
  with_descseg (fun _c mem dbr ->
      let sdw = Hw.Sdw.v ~base:1024 ~bound:64 access in
      Hw.Descriptor.store_sdw mem dbr ~segno:5 sdw;
      match Hw.Descriptor.fetch_sdw mem dbr ~segno:5 with
      | Ok sdw' ->
          Alcotest.(check bool) "round trip" true (Hw.Sdw.equal sdw sdw')
      | Error f -> Alcotest.failf "unexpected fault %a" Rings.Fault.pp f)

let test_descriptor_missing () =
  with_descseg (fun _c mem dbr ->
      (match Hw.Descriptor.fetch_sdw mem dbr ~segno:3 with
      | Error (Rings.Fault.Missing_segment { segno }) ->
          Alcotest.(check int) "segno" 3 segno
      | _ -> Alcotest.fail "expected Missing_segment (absent)");
      match Hw.Descriptor.fetch_sdw mem dbr ~segno:16 with
      | Error (Rings.Fault.Missing_segment _) -> ()
      | _ -> Alcotest.fail "expected Missing_segment (out of DBR bound)")

let test_translate_bounds () =
  with_descseg (fun _c mem dbr ->
      let sdw = Hw.Sdw.v ~base:1024 ~bound:64 access in
      Hw.Descriptor.store_sdw mem dbr ~segno:5 sdw;
      (match Hw.Descriptor.resolve mem dbr (Hw.Addr.v ~segno:5 ~wordno:63) with
      | Ok (_, abs) -> Alcotest.(check int) "absolute" (1024 + 63) abs
      | Error f -> Alcotest.failf "unexpected fault %a" Rings.Fault.pp f);
      match Hw.Descriptor.resolve mem dbr (Hw.Addr.v ~segno:5 ~wordno:64) with
      | Error (Rings.Fault.Bound_violation { segno; wordno; bound }) ->
          Alcotest.(check int) "segno" 5 segno;
          Alcotest.(check int) "wordno" 64 wordno;
          Alcotest.(check int) "bound" 64 bound
      | _ -> Alcotest.fail "expected Bound_violation")

let test_sdw_fetch_counted () =
  with_descseg (fun c mem dbr ->
      let sdw = Hw.Sdw.v ~base:1024 ~bound:64 access in
      Hw.Descriptor.store_sdw mem dbr ~segno:5 sdw;
      let before = Trace.Counters.(get c sdw_fetches) in
      ignore (Hw.Descriptor.fetch_sdw mem dbr ~segno:5);
      Alcotest.(check int) "counted" (before + 1)
        Trace.Counters.(get c sdw_fetches))

let suite =
  [
    ( "hw-misc",
      [
        Alcotest.test_case "addr bounds" `Quick test_addr_bounds;
        Alcotest.test_case "addr offset wraps" `Quick test_addr_offset_wraps;
        Alcotest.test_case "memory rw and accounting" `Quick
          test_memory_rw_and_accounting;
        Alcotest.test_case "memory bounds" `Quick test_memory_bounds;
        Alcotest.test_case "memory masks" `Quick test_memory_masks;
        Alcotest.test_case "zero page never written" `Quick
          test_zero_page_never_written;
        QCheck_alcotest.to_alcotest (prop_memory_matches_flat_model 64);
        QCheck_alcotest.to_alcotest
          (prop_memory_matches_flat_model Hw.Memory.page_words);
        QCheck_alcotest.to_alcotest
          (prop_memory_matches_flat_model ((3 * Hw.Memory.page_words) + 17));
        Alcotest.test_case "registers PRs" `Quick test_registers_prs;
        Alcotest.test_case "maximize PR rings" `Quick test_maximize_pr_rings;
        Alcotest.test_case "indicators" `Quick test_indicators;
        Alcotest.test_case "copy/restore" `Quick test_copy_restore;
        Alcotest.test_case "descriptor fetch/store" `Quick
          test_descriptor_fetch_store;
        Alcotest.test_case "descriptor missing" `Quick
          test_descriptor_missing;
        Alcotest.test_case "translate bounds" `Quick test_translate_bounds;
        Alcotest.test_case "SDW fetch counted" `Quick test_sdw_fetch_counted;
      ] );
  ]
