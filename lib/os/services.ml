let all_ones = Hw.Word.mask

let ( let* ) = Result.bind

(* Finish a service call: drop the trap state and deliver the result
   in A.  The live IPR already addresses the instruction after the
   MME. *)
let resume p ~result =
  let m = p.Process.machine in
  m.Isa.Machine.saved <- None;
  m.Isa.Machine.regs.Hw.Registers.a <- result;
  Ok ()

let caller_ring p =
  match p.Process.machine.Isa.Machine.saved with
  | Some s ->
      Ok s.Isa.Machine.regs.Hw.Registers.ipr_ring
  | None -> Error "service call without saved state"

let ring_allowed ring =
  Rings.Ring.to_int ring <= Calling.highest_service_ring

let read_name p ~ring =
  let pr2 =
    Hw.Registers.get_pr p.Process.machine.Isa.Machine.regs
      Hw.Registers.pr_args
  in
  let list_addr = pr2.Hw.Registers.addr in
  let* () =
    (* The supervisor reads on the caller's behalf: the caller itself
       must be able to read the name it passed. *)
    if Process.ring_may p ~ring ~write:false list_addr then Ok ()
    else Error "name not readable from the caller's ring"
  in
  let* count =
    match Process.kread p list_addr with
    | Ok n when n >= 1 && n <= 32 -> Ok n
    | Ok _ -> Error "bad name length"
    | Error e -> Error e
  in
  let buf = Buffer.create count in
  let rec go i =
    if i > count then Ok (Buffer.contents buf)
    else
      let* c = Process.kread p (Hw.Addr.offset list_addr i) in
      if c < 32 || c > 126 then Error "bad character in name"
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  go 1

let add_segment p =
  let* ring = caller_ring p in
  if not (ring_allowed ring) then resume p ~result:all_ones
  else
    match read_name p ~ring with
    | Error _ -> resume p ~result:all_ones
    | Ok name -> (
        (if Trace.Event.enabled p.Process.machine.Isa.Machine.log then
           Trace.Event.record_gatekeeper p.Process.machine.Isa.Machine.log
             ~action:(Printf.sprintf "add segment %S" name));
        Trace.Counters.charge p.Process.machine.Isa.Machine.counters
          Costs.gate_validation;
        (* File-system search direction: with per-process search rules
           the name is a bare segment name looked up through the
           directory hierarchy; otherwise it names the store entry
           directly. *)
        let name =
          match p.Process.search_rules with
          | None -> Ok name
          | Some (dir, rules) ->
              Directory.search dir ~user:p.Process.user ~rules ~name
        in
        match
          match name with
          | Error e -> Error e
          | Ok name -> Process.add_segment p name
        with
        | Ok () -> (
            (* The loaded entry keeps the store name. *)
            let loaded_name =
              match (name : (string, string) result) with
              | Ok n -> n
              | Error _ -> assert false
            in
            match Process.segno_of p loaded_name with
            | Some segno -> resume p ~result:segno
            | None -> resume p ~result:all_ones)
        | Error _ -> resume p ~result:all_ones)

let cycle_count p =
  let* ring = caller_ring p in
  if not (ring_allowed ring) then resume p ~result:all_ones
  else
    resume p
      ~result:
        (Hw.Word.of_int
           (Trace.Counters.cycles p.Process.machine.Isa.Machine.counters))
