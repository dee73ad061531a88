type action = Continue | Halt

let ok = Ok Continue

let illegal (instr : Instr.t) =
  Error (Rings.Fault.Illegal_opcode { word = Instr.encode instr })

(* The operand is whatever {!Eff_addr.form} left in the machine's
   scratch fields.  Every path below matches directly on results — a
   [let*] would allocate a closure per bind on this compiler — and
   allocates only when it faults. *)

(* Fig. 6, left side: validate then read the operand into [op_value]. *)
let read_operand m instr =
  match m.Machine.op_kind with
  | Machine.Immediate_operand -> Ok ()
  | Machine.No_operand -> illegal instr
  | Machine.Memory_operand -> (
      match
        Machine.resolve_at m ~segno:m.Machine.op_segno
          ~wordno:m.Machine.op_wordno
      with
      | Error fault -> Error fault
      | Ok (sdw, abs) -> (
          match
            Machine.validate_read m sdw ~effective:m.Machine.op_effective
          with
          | Error _ as e -> e
          | Ok () ->
              m.Machine.op_value <- Hw.Memory.read m.Machine.mem abs;
              Ok ()))

(* Fig. 6, right side: validate then write the operand. *)
let write_operand m instr w =
  match m.Machine.op_kind with
  | Machine.Immediate_operand | Machine.No_operand -> illegal instr
  | Machine.Memory_operand -> (
      match
        Machine.resolve_at m ~segno:m.Machine.op_segno
          ~wordno:m.Machine.op_wordno
      with
      | Error fault -> Error fault
      | Ok (sdw, abs) -> (
          match
            Machine.validate_write m sdw ~effective:m.Machine.op_effective
          with
          | Error _ as e -> e
          | Ok () ->
              Hw.Memory.write m.Machine.mem abs w;
              Ok ()))

let continue_after = function Ok () -> ok | Error fault -> Error fault

(* The operand's address, for the instructions that use it without
   referencing the word. *)
let address m = Hw.Addr.v ~segno:m.Machine.op_segno ~wordno:m.Machine.op_wordno

let set_a m w =
  let regs = m.Machine.regs in
  regs.Hw.Registers.a <- w;
  Hw.Registers.set_indicators regs w

let set_q m w =
  let regs = m.Machine.regs in
  regs.Hw.Registers.q <- w;
  Hw.Registers.set_indicators regs w

(* Fig. 7: advance check and performance of ordinary transfers. *)
let transfer m instr =
  match m.Machine.op_kind with
  | Machine.Immediate_operand | Machine.No_operand -> illegal instr
  | Machine.Memory_operand -> (
      let regs = m.Machine.regs in
      let segno = m.Machine.op_segno and wordno = m.Machine.op_wordno in
      match Machine.resolve_at m ~segno ~wordno with
      | Error fault -> Error fault
      | Ok (sdw, _abs) -> (
          match
            Machine.validate_transfer m sdw ~exec:regs.Hw.Registers.ipr_ring
              ~effective:m.Machine.op_effective
          with
          | Error fault -> Error fault
          | Ok () ->
              regs.Hw.Registers.ipr_segno <- segno;
              regs.Hw.Registers.ipr_wordno <- wordno;
              ok))

let conditional_transfer m instr condition =
  if condition then transfer m instr else ok

let binop_a m instr f =
  match read_operand m instr with
  | Error fault -> Error fault
  | Ok () ->
      set_a m (f m.Machine.regs.Hw.Registers.a m.Machine.op_value);
      ok

let binop_q m instr f =
  match read_operand m instr with
  | Error fault -> Error fault
  | Ok () ->
      set_q m (f m.Machine.regs.Hw.Registers.q m.Machine.op_value);
      ok

let execute m (instr : Instr.t) =
  let regs = m.Machine.regs in
  match instr.opcode with
  | Opcode.NOP -> ok
  | Opcode.HALT -> Ok Halt
  | Opcode.LDA -> (
      match read_operand m instr with
      | Error fault -> Error fault
      | Ok () ->
          set_a m m.Machine.op_value;
          ok)
  | Opcode.STA -> continue_after (write_operand m instr regs.Hw.Registers.a)
  | Opcode.LDQ -> (
      match read_operand m instr with
      | Error fault -> Error fault
      | Ok () ->
          set_q m m.Machine.op_value;
          ok)
  | Opcode.STQ -> continue_after (write_operand m instr regs.Hw.Registers.q)
  | Opcode.LDX -> (
      match read_operand m instr with
      | Error fault -> Error fault
      | Ok () ->
          regs.Hw.Registers.xs.(instr.xr) <-
            m.Machine.op_value land ((1 lsl 18) - 1);
          ok)
  | Opcode.STX ->
      continue_after
        (write_operand m instr regs.Hw.Registers.xs.(instr.xr))
  | Opcode.ADA -> binop_a m instr Hw.Word.add
  | Opcode.SBA -> binop_a m instr Hw.Word.sub
  | Opcode.MPA -> binop_a m instr Hw.Word.mul
  | Opcode.DVA -> (
      match read_operand m instr with
      | Error fault -> Error fault
      | Ok () -> (
          match Hw.Word.div regs.Hw.Registers.a m.Machine.op_value with
          | None -> Error Rings.Fault.Divide_by_zero
          | Some q ->
              set_a m q;
              ok))
  | Opcode.ADQ -> binop_q m instr Hw.Word.add
  | Opcode.SBQ -> binop_q m instr Hw.Word.sub
  | Opcode.ANA -> binop_a m instr Hw.Word.logand
  | Opcode.ORA -> binop_a m instr Hw.Word.logor
  | Opcode.XRA -> binop_a m instr Hw.Word.logxor
  | Opcode.CMPA -> (
      match read_operand m instr with
      | Error fault -> Error fault
      | Ok () ->
          Hw.Registers.set_indicators regs
            (Hw.Word.sub regs.Hw.Registers.a m.Machine.op_value);
          ok)
  | Opcode.AOS -> (
      (* Read-modify-write: both Fig. 6 checks apply. *)
      match m.Machine.op_kind with
      | Machine.Immediate_operand | Machine.No_operand -> illegal instr
      | Machine.Memory_operand -> (
          let effective = m.Machine.op_effective in
          match
            Machine.resolve_at m ~segno:m.Machine.op_segno
              ~wordno:m.Machine.op_wordno
          with
          | Error fault -> Error fault
          | Ok (sdw, abs) -> (
              match Machine.validate_read m sdw ~effective with
              | Error fault -> Error fault
              | Ok () -> (
                  match Machine.validate_write m sdw ~effective with
                  | Error fault -> Error fault
                  | Ok () ->
                      let w =
                        Hw.Word.add (Hw.Memory.read m.Machine.mem abs) 1
                      in
                      Hw.Memory.write m.Machine.mem abs w;
                      Hw.Registers.set_indicators regs w;
                      ok))))
  | Opcode.STZ -> continue_after (write_operand m instr 0)
  | Opcode.ALS ->
      if m.Machine.op_kind <> Machine.Memory_operand then illegal instr
      else begin
        set_a m
          (Hw.Word.of_int
             (regs.Hw.Registers.a lsl min m.Machine.op_wordno Hw.Word.bits));
        ok
      end
  | Opcode.ARS ->
      if m.Machine.op_kind <> Machine.Memory_operand then illegal instr
      else begin
        set_a m
          (Hw.Word.of_signed
             (Hw.Word.to_signed regs.Hw.Registers.a
             asr min m.Machine.op_wordno Hw.Word.bits));
        ok
      end
  | Opcode.TRA -> transfer m instr
  | Opcode.TZE -> conditional_transfer m instr regs.Hw.Registers.ind_zero
  | Opcode.TNZ ->
      conditional_transfer m instr (not regs.Hw.Registers.ind_zero)
  | Opcode.TMI -> conditional_transfer m instr regs.Hw.Registers.ind_negative
  | Opcode.TPL ->
      conditional_transfer m instr (not regs.Hw.Registers.ind_negative)
  | Opcode.TSX ->
      (* IPR is already advanced: it holds the return address. *)
      regs.Hw.Registers.xs.(instr.xr) <- regs.Hw.Registers.ipr_wordno;
      transfer m instr
  | Opcode.EAP ->
      (* Fig. 7: loads PRn from TPR; the operand is not referenced and
         no access validation is required. *)
      if m.Machine.op_kind <> Machine.Memory_operand then illegal instr
      else begin
        Hw.Registers.set_pr_at regs instr.xr
          ~ring:(Rings.Effective_ring.ring m.Machine.op_effective)
          ~segno:m.Machine.op_segno ~wordno:m.Machine.op_wordno;
        ok
      end
  | Opcode.SPR ->
      let p = Hw.Registers.get_pr regs instr.xr in
      continue_after
        (write_operand m instr
           (Indword.encode_parts ~ring:p.Hw.Registers.ring ~indirect:false
              ~segno:p.Hw.Registers.addr.Hw.Addr.segno
              ~wordno:p.Hw.Registers.addr.Hw.Addr.wordno))
  | Opcode.EAA ->
      if m.Machine.op_kind <> Machine.Memory_operand then illegal instr
      else begin
        set_a m m.Machine.op_wordno;
        ok
      end
  | Opcode.CALL ->
      if m.Machine.op_kind <> Machine.Memory_operand then illegal instr
      else
        continue_after
          (Call_return.call m ~effective:m.Machine.op_effective
             ~addr:(address m))
  | Opcode.RETN ->
      if m.Machine.op_kind <> Machine.Memory_operand then illegal instr
      else
        continue_after
          (Call_return.retn m ~effective:m.Machine.op_effective
             ~addr:(address m))
  | Opcode.LDBR ->
      regs.Hw.Registers.dbr <-
        {
          Hw.Registers.base = Hw.Word.field ~pos:14 ~width:21 regs.Hw.Registers.a;
          bound = Hw.Word.field ~pos:0 ~width:14 regs.Hw.Registers.a;
          stack_base = Hw.Word.field ~pos:0 ~width:14 regs.Hw.Registers.q;
        };
      ok
  | Opcode.SIOC ->
      (* Start an I/O channel operation: the channel runs for a fixed
         number of instruction times and then raises the completion
         trap.  What matters for the reproduction is that SIOC is
         ring-0-only and that completions are one of the trap
         sources. *)
      Trace.Counters.bump_channel_ops m.Machine.counters;
      m.Machine.io_countdown <- 20;
      ok
  | Opcode.SIOT -> (
      (* Read the channel control word pair and arm the channel; the
         supervisor performs the transfer at completion time. *)
      if m.Machine.op_kind <> Machine.Memory_operand then illegal instr
      else
        let addr = address m in
        match Machine.resolve m addr with
        | Error fault -> Error fault
        | Ok (_, abs0) -> (
            let w0 = Hw.Memory.read m.Machine.mem abs0 in
            match Machine.resolve m (Hw.Addr.offset addr 1) with
            | Error fault -> Error fault
            | Ok (_, abs1) ->
                let w1 = Hw.Memory.read m.Machine.mem abs1 in
                let buffer = (Indword.decode w0).Indword.addr in
                let direction =
                  if Hw.Word.field ~pos:17 ~width:1 w1 = 0 then `Read
                  else `Write
                in
                let count = Hw.Word.field ~pos:0 ~width:17 w1 in
                Trace.Counters.bump_channel_ops m.Machine.counters;
                m.Machine.io_request <-
                  Some { Machine.ccw = addr; buffer; direction; count };
                m.Machine.io_countdown <- 20 + (2 * count);
                ok))
  | Opcode.RTRAP ->
      (* Restoring with nothing saved is a program error, not a
         simulator crash. *)
      if m.Machine.saved = None && m.Machine.trap_config = None then
        illegal instr
      else begin
        Machine.restore_saved m;
        ok
      end
  | Opcode.MME ->
      (* A deliberate trap: the supervisor dispatches on the code. *)
      Error (Rings.Fault.Service_call { code = instr.offset })

let perform m (instr : Instr.t) =
  if Opcode.privileged instr.opcode then
    match
      Rings.Policy.validate_privileged
        ~ring:m.Machine.regs.Hw.Registers.ipr_ring
    with
    | Error fault -> Error fault
    | Ok () -> execute m instr
  else execute m instr
