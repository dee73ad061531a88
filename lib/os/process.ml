type loaded = {
  name : string;
  segno : int;
  base : int;
  bound : int;
  access : Rings.Access.t;
  symbols : (string * int) list;
}

type crossing_kind = Inward | Outward

type crossing = {
  kind : crossing_kind;
  saved : Hw.Registers.t;
  caller_ring : Rings.Ring.t;
  callee_ring : Rings.Ring.t;
  copy_back : (Hw.Addr.t * Hw.Addr.t) list;
}

type placement =
  | Direct of { base : int; bound : int }
  | Paged_at of { pt_base : int; bound : int }

type paging_state = {
  mutable free_frames : int list;
  mutable resident : (int * int * int) list;
  backing : (int, int array) Hashtbl.t;
}

type t = {
  user : string;
  store : Store.t;
  machine : Isa.Machine.t;
  descsegs : Hw.Registers.dbr array;
  ring_data : (int, Rings.Access.t) Hashtbl.t;
  placement : (int, placement) Hashtbl.t;
  paging : paging_state option;
  mutable loaded : loaded list;
  mutable next_segno : int;
  mutable next_free : int;
  region_end : int;
  comm_segno : int;
  retgate_segno : int;
  typewriter : Device.t;
  mutable search_rules : (Directory.t * string list) option;
  mutable crossings : crossing list;
  mutable mapped : int list;
  mutable fault_count : int;
  mutable io_attempts : int;
}

let max_segments = 256
let descseg_words = max_segments * Hw.Descriptor.words_per_sdw
let comm_segno_const = 8
let retgate_segno_const = 9
let first_user_segno = 10

let ( let* ) = Result.bind

(* Install an SDW in every descriptor segment the process has.  In 645
   mode each ring's copy carries only the flags that ring is entitled
   to; the bracket fields are stored unchanged but the hardware in
   that mode never consults them. *)
let install_sdw ?(paged = false) t ~segno ~base ~bound
    (access : Rings.Access.t) =
  Hashtbl.replace t.ring_data segno access;
  Hashtbl.replace t.placement segno
    (if paged then Paged_at { pt_base = base; bound }
     else Direct { base; bound });
  match t.machine.Isa.Machine.mode with
  | Isa.Machine.Ring_hardware | Isa.Machine.Ring_capability ->
      (* In capability mode [store_sdw] also mints the SDW words'
         validity tags: the install path is what makes a descriptor a
         capability at rest. *)
      Hw.Descriptor.store_sdw t.machine.Isa.Machine.mem t.descsegs.(0)
        ~segno
        (Hw.Sdw.v ~paged ~base ~bound access)
  | Isa.Machine.Ring_software_645 ->
      let b = access.Rings.Access.brackets in
      Array.iteri
        (fun q dbr ->
          let ring = Rings.Ring.v q in
          let flags =
            Rings.Access.v
              ~read:
                (access.Rings.Access.read
                && Rings.Brackets.in_read_bracket b ring)
              ~write:
                (access.Rings.Access.write
                && Rings.Brackets.in_write_bracket b ring)
              ~execute:
                (access.Rings.Access.execute
                && Rings.Brackets.in_execute_bracket b ring)
              ~gates:access.Rings.Access.gates b
          in
          Hw.Descriptor.store_sdw t.machine.Isa.Machine.mem dbr ~segno
            (Hw.Sdw.v ~paged ~base ~bound flags))
        t.descsegs

(* Recovery path for the capability backend's tag check: the kernel is
   the authority on what it installed, so an SDW whose validity tags
   were refused is re-derived from the kernel's own tables and stored
   afresh — which also re-mints the tags.  [false] when the segment
   was never installed: nothing to restore, the refusal stands. *)
let reinstall_sdw t ~segno =
  match
    (Hashtbl.find_opt t.ring_data segno, Hashtbl.find_opt t.placement segno)
  with
  | Some access, Some (Direct { base; bound }) ->
      install_sdw t ~segno ~base ~bound access;
      true
  | Some access, Some (Paged_at { pt_base; bound }) ->
      install_sdw t ~paged:true ~segno ~base:pt_base ~bound access;
      true
  | _ -> false

(* Memory taken by a region of [words]: whole 16-word blocks, one at
   least. *)
let footprint words = Hw.Sdw.round_bound (max words 16)

let alloc t words =
  let bound = footprint words in
  let base = t.next_free in
  t.next_free <- t.next_free + bound;
  if t.next_free > t.region_end then
    invalid_arg "Process: out of its memory region";
  (base, bound)

let stack_segno_for t ring =
  Rings.Stack_rule.stack_segno Isa.Machine.(t.machine.stack_rule)
    ~dbr_stack_base:
      t.machine.Isa.Machine.regs.Hw.Registers.dbr.Hw.Registers.stack_base
    ~current_stack_segno:(Rings.Ring.to_int ring)
    ~ring_changed:true ~new_ring:ring

let create ?(mode = Isa.Machine.Ring_hardware)
    ?(stack_rule = Rings.Stack_rule.Segno_equals_ring) ?gate_on_same_ring
    ?use_r1_in_indirection ?mem_size ?machine ?(region_base = 0) ?region_end
    ?(paged = false) ?(frame_pool = 64) ~store ~user () =
  let machine =
    match machine with
    | Some m -> m
    | None ->
        Isa.Machine.create ~mode ~stack_rule ?gate_on_same_ring
          ?use_r1_in_indirection ?mem_size ()
  in
  let mode = machine.Isa.Machine.mode in
  let ndesc =
    match mode with
    | Isa.Machine.Ring_hardware | Isa.Machine.Ring_capability -> 1
    | Isa.Machine.Ring_software_645 -> Rings.Ring.count
  in
  let descsegs =
    Array.init ndesc (fun r ->
        {
          Hw.Registers.base = region_base + (r * descseg_words);
          bound = max_segments;
          stack_base = 0;
        })
  in
  machine.Isa.Machine.regs.Hw.Registers.dbr <- descsegs.(0);
  let t =
    {
      user;
      store;
      machine;
      descsegs;
      ring_data = Hashtbl.create 64;
      placement = Hashtbl.create 64;
      paging =
        (if paged then
           Some
             { free_frames = []; resident = []; backing = Hashtbl.create 16 }
         else None);
      loaded = [];
      next_segno = first_user_segno;
      next_free = region_base + (ndesc * descseg_words);
      region_end =
        Option.value region_end
          ~default:(Hw.Memory.size machine.Isa.Machine.mem);
      comm_segno = comm_segno_const;
      retgate_segno = retgate_segno_const;
      typewriter =
        (let d = Device.create () in
         (* Replays skipped on resume are counted, not silently eaten. *)
         Hw.Journal.set_on_skip (Device.journal d) (fun () ->
             Trace.Counters.bump_journal_replays_skipped
               machine.Isa.Machine.counters);
         d);
      search_rules = None;
      crossings = [];
      mapped = [];
      fault_count = 0;
      io_attempts = 0;
    }
  in
  let mem = machine.Isa.Machine.mem in
  (* The eight standard stack segments: read and write brackets end at
     the owning ring, so stack areas for ring n are inaccessible to
     rings above n. *)
  for r = 0 to Rings.Ring.count - 1 do
    let base, bound = alloc t Calling.stack_words in
    let access =
      Rings.Access.data_segment ~writable_to:r ~readable_to:r ()
    in
    install_sdw t ~segno:r ~base ~bound access;
    Hw.Memory.write_silent mem base
      (Calling.stack_header ~ring:r ~segno:r
         ~free_wordno:Calling.first_frame_wordno)
  done;
  (* Communication segment for the outward-call emulation: accessible
     from every ring (the cost of the paper's argument-copying
     solution).  Words 0/1 are the pseudo-frame that routes the
     callee's return through the return gate. *)
  let base, bound = alloc t Calling.stack_words in
  let comm_access =
    Rings.Access.data_segment ~writable_to:7 ~readable_to:7 ()
  in
  install_sdw t ~segno:comm_segno_const ~base ~bound comm_access;
  Hw.Memory.write_silent mem base
    (Isa.Indword.encode
       (Isa.Indword.v ~ring:7 ~segno:comm_segno_const ~wordno:0 ()));
  Hw.Memory.write_silent mem (base + 1)
    (Isa.Indword.encode
       (Isa.Indword.v ~ring:7 ~segno:retgate_segno_const ~wordno:0 ()));
  (* Return-gate trampoline: executable in every ring; its single
     instruction traps back into the supervisor. *)
  let base, bound = alloc t 16 in
  let retgate_access =
    Rings.Access.v ~execute:true ~gates:1 (Rings.Brackets.of_ints 0 7 7)
  in
  install_sdw t ~segno:retgate_segno_const ~base ~bound retgate_access;
  Hw.Memory.write_silent mem base
    (Isa.Instr.encode
       (Isa.Instr.v ~base:Isa.Instr.Immediate
          ~offset:Calling.svc_outward_return Isa.Opcode.MME));
  (* The demand-paging frame pool. *)
  (match t.paging with
  | None -> ()
  | Some ps ->
      let frames =
        List.init frame_pool (fun _ ->
            fst (alloc t Hw.Paging.page_size))
      in
      ps.free_frames <- frames);
  t

let segno_of t name =
  List.find_opt (fun l -> String.equal l.name name) t.loaded
  |> Option.map (fun l -> l.segno)

let find_by_segno t segno = List.find_opt (fun l -> l.segno = segno) t.loaded

let address_of t ~segment ~symbol =
  match List.find_opt (fun l -> String.equal l.name segment) t.loaded with
  | None -> None
  | Some l ->
      List.assoc_opt symbol l.symbols
      |> Option.map (fun wordno -> Hw.Addr.v ~segno:l.segno ~wordno)

(* Survey results for a pending segment before its words exist. *)
type pending = {
  p_name : string;
  p_segno : int;
  p_access : Rings.Access.t;
  p_size : int;
  p_gates : int;
  p_symbols : (string * int) list;
  p_body : Store.body;
}

let add_segments t names =
  let* pendings =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        let* seg =
          match Store.find t.store name with
          | Some s -> Ok s
          | None -> Error (Printf.sprintf "no segment %s in on-line storage" name)
        in
        let* access =
          match Acl.check seg.Store.acl ~user:t.user with
          | Some a -> Ok a
          | None ->
              Error
                (Printf.sprintf "user %s not on the ACL of %s" t.user name)
        in
        let* size, gates, symbols =
          match seg.Store.body with
          | Store.Words { words = _; gates; length } -> Ok (length, gates, [])
          | Store.Source src -> (
              match Asm.Assemble.survey src with
              | Ok s ->
                  Ok
                    ( s.Asm.Assemble.survey_size,
                      s.Asm.Assemble.survey_gates,
                      s.Asm.Assemble.survey_symbols )
              | Error errs ->
                  Error
                    (Format.asprintf "%s: %a" name
                       (Format.pp_print_list Asm.Assemble.pp_error)
                       errs))
        in
        Ok
          ({
             p_name = name;
             p_segno = 0;
             p_access = access;
             p_size = size;
             p_gates = gates;
             p_symbols = symbols;
             p_body = seg.Store.body;
           }
          :: acc))
      (Ok []) names
  in
  let pendings = List.rev pendings in
  (* A batch that cannot fit is refused before any state changes:
     program files are untrusted. *)
  let* () =
    let words p =
      match t.paging with
      | None -> footprint p.p_size
      | Some _ -> footprint (Hw.Paging.pages_of_bound (footprint p.p_size))
    in
    if t.next_segno + List.length pendings > max_segments then
      Error (Printf.sprintf "more than %d segment numbers" max_segments)
    else if
      List.fold_left (fun n p -> n + words p) t.next_free pendings
      > t.region_end
    then
      Error
        (if t.region_end = Hw.Memory.size t.machine.Isa.Machine.mem then
           "segments exceed simulated memory"
         else
           Printf.sprintf "segments exceed the memory region ending at %d"
             t.region_end)
    else Ok ()
  in
  let pendings =
    List.map
      (fun p ->
        let segno = t.next_segno in
        t.next_segno <- t.next_segno + 1;
        { p with p_segno = segno })
      pendings
  in
  let externals ~segment ~symbol =
    let from_pending =
      List.find_opt (fun p -> String.equal p.p_name segment) pendings
      |> Option.map (fun p -> (p.p_segno, p.p_symbols))
    in
    let from_loaded =
      List.find_opt (fun l -> String.equal l.name segment) t.loaded
      |> Option.map (fun l -> (l.segno, l.symbols))
    in
    match (from_pending, from_loaded) with
    | Some (segno, symbols), _ | None, Some (segno, symbols) ->
        List.assoc_opt symbol symbols
        |> Option.map (fun wordno -> Hw.Addr.v ~segno ~wordno)
    | None, None -> None
  in
  let* newly =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* words =
          match p.p_body with
          | Store.Words { words; _ } -> Ok words
          | Store.Source src -> (
              match
                Asm.Assemble.assemble ~externals ~self_segno:p.p_segno src
              with
              | Ok prog -> Ok prog.Asm.Assemble.words
              | Error errs ->
                  Error
                    (Format.asprintf "%s: %a" p.p_name
                       (Format.pp_print_list Asm.Assemble.pp_error)
                       errs))
        in
        Ok ((p, words) :: acc))
      (Ok []) pendings
  in
  List.iter
    (fun (p, words) ->
      let access = { p.p_access with Rings.Access.gates = p.p_gates } in
      match t.paging with
      | None ->
          let base, bound = alloc t p.p_size in
          Hw.Memory.blit_silent t.machine.Isa.Machine.mem base words;
          install_sdw t ~segno:p.p_segno ~base ~bound access;
          t.loaded <-
            {
              name = p.p_name;
              segno = p.p_segno;
              base;
              bound;
              access;
              symbols = p.p_symbols;
            }
            :: t.loaded
      | Some ps ->
          (* Demand paging: the segment's contents go to the backing
             store; memory holds only the page table, all PTWs
             absent (the zeroed words decode as not-present). *)
          let bound = footprint p.p_size in
          let pages = Hw.Paging.pages_of_bound bound in
          let pt_base, _ = alloc t pages in
          let contents = Array.make bound 0 in
          Array.blit words 0 contents 0 (Array.length words);
          Hashtbl.replace ps.backing p.p_segno contents;
          install_sdw ~paged:true t ~segno:p.p_segno ~base:pt_base ~bound
            access;
          t.loaded <-
            {
              name = p.p_name;
              segno = p.p_segno;
              base = pt_base;
              bound;
              access;
              symbols = p.p_symbols;
            }
            :: t.loaded)
    (List.rev newly);
  Ok ()

let add_segment t name = add_segments t [ name ]

let map_segment t ~name ~base ~bound ~access ~symbols =
  if List.exists (fun l -> String.equal l.name name) t.loaded then
    Error (Printf.sprintf "segment %s already in this virtual memory" name)
  else begin
    let segno = t.next_segno in
    t.next_segno <- t.next_segno + 1;
    install_sdw t ~segno ~base ~bound access;
    t.loaded <- { name; segno; base; bound; access; symbols } :: t.loaded;
    t.mapped <- segno :: t.mapped;
    Ok segno
  end

let switch_descriptor_segment t ring =
  match t.machine.Isa.Machine.mode with
  | Isa.Machine.Ring_hardware | Isa.Machine.Ring_capability -> ()
  | Isa.Machine.Ring_software_645 ->
      let regs = t.machine.Isa.Machine.regs in
      let target = t.descsegs.(Rings.Ring.to_int ring) in
      if regs.Hw.Registers.dbr <> target then begin
        Trace.Counters.bump_descriptor_switches t.machine.Isa.Machine.counters;
        Trace.Counters.charge t.machine.Isa.Machine.counters
          Costs.descriptor_segment_switch;
        if Trace.Event.enabled t.machine.Isa.Machine.log then
          Trace.Event.record_descriptor_switch t.machine.Isa.Machine.log
            ~from_ring:
              (Rings.Ring.to_int regs.Hw.Registers.ipr_ring)
            ~to_ring:(Rings.Ring.to_int ring);
        regs.Hw.Registers.dbr <- target
      end

let check_bound (addr : Hw.Addr.t) bound =
  if addr.Hw.Addr.wordno >= bound then
    Error
      (Printf.sprintf "word %06o beyond bound %d of segment %d" addr.wordno
         bound addr.segno)
  else Ok ()

let abs_of t (addr : Hw.Addr.t) =
  match Hashtbl.find_opt t.placement addr.Hw.Addr.segno with
  | None -> Error (Printf.sprintf "segment %d not in virtual memory" addr.segno)
  | Some (Paged_at _) ->
      Error
        (Printf.sprintf "segment %d is paged; no stable absolute address"
           addr.segno)
  | Some (Direct { base; bound }) ->
      let* () = check_bound addr bound in
      Ok (base + addr.wordno)

(* Kernel access to a paged segment goes through the page table when
   the page is resident, to the backing image otherwise — no fault. *)
let paged_location t ps ~pt_base (addr : Hw.Addr.t) =
  let pageno = Hw.Paging.page_of_wordno addr.Hw.Addr.wordno in
  let ptw =
    Hw.Paging.decode_ptw
      (Hw.Memory.read_silent t.machine.Isa.Machine.mem (pt_base + pageno))
  in
  if ptw.Hw.Paging.present then
    `Frame
      (ptw.Hw.Paging.frame_base
      + Hw.Paging.offset_in_page addr.Hw.Addr.wordno)
  else
    match Hashtbl.find_opt ps.backing addr.Hw.Addr.segno with
    | Some contents -> `Backing contents
    | None -> `Frame 0 (* unreachable: every paged segment is backed *)

let kread t (addr : Hw.Addr.t) =
  match Hashtbl.find_opt t.placement addr.Hw.Addr.segno with
  | None -> Error (Printf.sprintf "segment %d not in virtual memory" addr.segno)
  | Some (Direct { base; bound }) ->
      let* () = check_bound addr bound in
      Ok (Hw.Memory.read t.machine.Isa.Machine.mem (base + addr.wordno))
  | Some (Paged_at { pt_base; bound }) -> (
      let* () = check_bound addr bound in
      let ps = Option.get t.paging in
      match paged_location t ps ~pt_base addr with
      | `Frame abs -> Ok (Hw.Memory.read t.machine.Isa.Machine.mem abs)
      | `Backing contents -> Ok contents.(addr.Hw.Addr.wordno))

let kwrite t (addr : Hw.Addr.t) w =
  match Hashtbl.find_opt t.placement addr.Hw.Addr.segno with
  | None -> Error (Printf.sprintf "segment %d not in virtual memory" addr.segno)
  | Some (Direct { base; bound }) ->
      let* () = check_bound addr bound in
      Hw.Memory.write t.machine.Isa.Machine.mem (base + addr.wordno) w;
      Ok ()
  | Some (Paged_at { pt_base; bound }) -> (
      let* () = check_bound addr bound in
      let ps = Option.get t.paging in
      match paged_location t ps ~pt_base addr with
      | `Frame abs ->
          Hw.Memory.write t.machine.Isa.Machine.mem abs w;
          Ok ()
      | `Backing contents ->
          contents.(addr.Hw.Addr.wordno) <- Hw.Word.of_int w;
          Ok ())

let ring_may t ~ring ~write (addr : Hw.Addr.t) =
  match Hashtbl.find_opt t.ring_data addr.Hw.Addr.segno with
  | None -> false
  | Some access ->
      let effective = Rings.Effective_ring.start ring in
      Result.is_ok
        (if write then Rings.Policy.validate_write access ~effective
         else Rings.Policy.validate_read access ~effective)

let push_crossing t c = t.crossings <- c :: t.crossings

let pop_crossing t =
  match t.crossings with
  | [] -> None
  | c :: rest ->
      t.crossings <- rest;
      Some c

let start t ~segment ~entry ~ring =
  let* addr =
    match address_of t ~segment ~symbol:entry with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "no entry %s$%s" segment entry)
  in
  let* r =
    match Rings.Ring.of_int_opt ring with
    | Some r -> Ok r
    | None -> Error "bad ring"
  in
  let regs = t.machine.Isa.Machine.regs in
  (* Select the ring's descriptor segment directly: process startup is
     not a ring crossing and must not be charged as one. *)
  (match t.machine.Isa.Machine.mode with
  | Isa.Machine.Ring_hardware | Isa.Machine.Ring_capability -> ()
  | Isa.Machine.Ring_software_645 ->
      regs.Hw.Registers.dbr <- t.descsegs.(Rings.Ring.to_int r));
  Hw.Registers.set_ipr regs { Hw.Registers.ring = r; addr };
  let stack_segno = stack_segno_for t r in
  Hw.Registers.set_pr regs 0
    { Hw.Registers.ring = r; addr = Hw.Addr.v ~segno:stack_segno ~wordno:0 };
  Hw.Registers.set_pr regs Hw.Registers.pr_stack
    {
      Hw.Registers.ring = r;
      addr =
        Hw.Addr.v ~segno:stack_segno ~wordno:Calling.first_frame_wordno;
    };
  (* Reserve the initial frame in the ring's stack. *)
  let* () =
    match
      kwrite t
        (Hw.Addr.v ~segno:stack_segno ~wordno:0)
        (Calling.stack_header ~ring ~segno:stack_segno
           ~free_wordno:(Calling.first_frame_wordno + Calling.frame_size))
    with
    | Ok () -> Ok ()
    | Error e -> Error e
  in
  Ok ()

let set_access t ~name access =
  match List.find_opt (fun l -> String.equal l.name name) t.loaded with
  | None -> Error (Printf.sprintf "%s not in this virtual memory" name)
  | Some l ->
      let access = { access with Rings.Access.gates = l.access.Rings.Access.gates } in
      let paged =
        match Hashtbl.find_opt t.placement l.segno with
        | Some (Paged_at _) -> true
        | Some (Direct _) | None -> false
      in
      install_sdw ~paged t ~segno:l.segno ~base:l.base ~bound:l.bound access;
      Isa.Machine.invalidate_sdw t.machine ~segno:l.segno;
      t.loaded <-
        List.map
          (fun l' -> if l'.segno = l.segno then { l' with access } else l')
          t.loaded;
      Ok ()

let pp_layout ppf t =
  let name_of segno =
    if segno < Rings.Ring.count then Printf.sprintf "stack ring %d" segno
    else if segno = t.comm_segno then "communication"
    else if segno = t.retgate_segno then "return gate"
    else
      match find_by_segno t segno with
      | Some l -> l.name
      | None -> "?"
  in
  let entries =
    Hashtbl.fold (fun segno pl acc -> (segno, pl) :: acc) t.placement []
    |> List.sort compare
  in
  Format.fprintf ppf "@[<v>seg  name             placement          access@,";
  List.iter
    (fun (segno, pl) ->
      let placement_text =
        match pl with
        | Direct { base; bound } ->
            Printf.sprintf "at %06o (%d w)" base bound
        | Paged_at { pt_base; bound } ->
            Printf.sprintf "paged, PT %06o (%d w)" pt_base bound
      in
      let access =
        match Hashtbl.find_opt t.ring_data segno with
        | Some a -> Format.asprintf "%a" Rings.Access.pp a
        | None -> "?"
      in
      Format.fprintf ppf "%3d  %-16s %-18s %s@," segno (name_of segno)
        placement_text access)
    entries;
  Format.fprintf ppf "@]"

(* Absolute ranges holding words that address translation trusts:
   every descriptor segment, plus every page table.  The injector aims
   [Corrupt_descriptor] here, and the kernel's parity handler treats a
   scrub inside one of these ranges as cache-coherence damage. *)
let descriptor_ranges t =
  let descs =
    Array.to_list t.descsegs
    |> List.map (fun (dbr : Hw.Registers.dbr) ->
           ( dbr.Hw.Registers.base,
             dbr.Hw.Registers.bound * Hw.Descriptor.words_per_sdw ))
  in
  let page_tables =
    Hashtbl.fold
      (fun _ pl acc ->
        match pl with
        | Paged_at { pt_base; bound } ->
            (pt_base, Hw.Paging.pages_of_bound bound) :: acc
        | Direct _ -> acc)
      t.placement []
    |> List.sort compare
  in
  descs @ page_tables

let attach_injector m plan processes =
  let inj = Hw.Inject.create plan in
  List.iter
    (fun p ->
      List.iter
        (fun (base, len) -> Hw.Inject.register_descriptor_range inj ~base ~len)
        (descriptor_ranges p))
    processes;
  Isa.Machine.attach_injector m inj;
  inj

let handle_page_fault t ~segno ~pageno =
  let mem = t.machine.Isa.Machine.mem in
  let counters = t.machine.Isa.Machine.counters in
  let* ps =
    match t.paging with
    | Some ps -> Ok ps
    | None -> Error "page fault on an unpaged process"
  in
  let* pt_base =
    match Hashtbl.find_opt t.placement segno with
    | Some (Paged_at { pt_base; _ }) -> Ok pt_base
    | Some (Direct _) | None ->
        Error (Printf.sprintf "page fault in unpaged segment %d" segno)
  in
  let* backing =
    match Hashtbl.find_opt ps.backing segno with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "segment %d has no backing image" segno)
  in
  (* A frame: from the pool, else evict the oldest resident page. *)
  let* frame =
    match ps.free_frames with
    | f :: rest ->
        ps.free_frames <- rest;
        Ok f
    | [] -> (
        match List.rev ps.resident with
        | [] -> Error "no frames and nothing to evict"
        | (victim_frame, victim_segno, victim_pageno) :: _ ->
            ps.resident <-
              List.filter
                (fun (f, _, _) -> f <> victim_frame)
                ps.resident;
            (* Write the victim page back to its backing image and
               mark its PTW absent. *)
            let* victim_pt =
              match Hashtbl.find_opt t.placement victim_segno with
              | Some (Paged_at { pt_base; _ }) -> Ok pt_base
              | _ -> Error "victim page table lost"
            in
            let victim_backing = Hashtbl.find ps.backing victim_segno in
            let off = victim_pageno * Hw.Paging.page_size in
            for i = 0 to Hw.Paging.page_size - 1 do
              if off + i < Array.length victim_backing then
                victim_backing.(off + i) <-
                  Hw.Memory.read_silent mem (victim_frame + i)
            done;
            Hw.Memory.write_silent mem (victim_pt + victim_pageno)
              (Hw.Paging.encode_ptw Hw.Paging.absent_ptw);
            Trace.Counters.bump_page_evictions counters;
            Trace.Counters.charge counters Costs.page_transfer;
            Ok victim_frame)
  in
  (* Fill the frame from the backing image and connect the PTW. *)
  let off = pageno * Hw.Paging.page_size in
  for i = 0 to Hw.Paging.page_size - 1 do
    Hw.Memory.write_silent mem (frame + i)
      (if off + i < Array.length backing then backing.(off + i) else 0)
  done;
  Hw.Memory.write_silent mem (pt_base + pageno)
    (Hw.Paging.encode_ptw { Hw.Paging.present = true; frame_base = frame });
  ps.resident <- (frame, segno, pageno) :: ps.resident;
  Trace.Counters.bump_page_faults counters;
  Trace.Counters.charge counters Costs.page_transfer;
  (if Trace.Event.enabled t.machine.Isa.Machine.log then
     Trace.Event.record_gatekeeper t.machine.Isa.Machine.log
       ~action:
         (Printf.sprintf "page %d of segment %d brought in" pageno segno));
  Ok ()
