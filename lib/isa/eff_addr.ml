type operand =
  | Memory of { effective : Rings.Effective_ring.t; addr : Hw.Addr.t }
  | Immediate of Hw.Word.t
  | Absent

exception Runaway_indirection of Hw.Addr.t

let max_indirections = 64

let sign_extend_18 v =
  if v land 0o400000 <> 0 then Hw.Word.of_signed (v - (1 lsl 18)) else v

let wordno_mask = (1 lsl 18) - 1

let set_memory m ~effective ~segno ~wordno =
  m.Machine.op_kind <- Machine.Memory_operand;
  m.Machine.op_effective <- effective;
  m.Machine.op_segno <- segno;
  m.Machine.op_wordno <- wordno

(* Follow the indirection chain, updating the effective ring per
   Fig. 5 in hardware mode.  The indirect word is read field by field,
   so a chain allocates nothing. *)
let rec indirect m ~depth ~effective ~segno ~wordno =
  if depth > max_indirections then
    raise (Runaway_indirection (Hw.Addr.v ~segno ~wordno));
  match Machine.resolve_at m ~segno ~wordno with
  | Error fault -> Error fault
  | Ok (sdw, abs) -> (
      match Machine.validate_read m sdw ~effective with
      | Error _ as e -> e
      | Ok () ->
          Trace.Counters.bump_indirections m.Machine.counters;
          let ind = Hw.Memory.read m.Machine.mem abs in
          let effective =
            match m.Machine.mode with
            | Machine.Ring_software_645 -> effective
            | Machine.Ring_hardware | Machine.Ring_capability ->
                let container_write_top =
                  if m.Machine.use_r1_in_indirection then
                    Rings.Brackets.write_bracket_top
                      sdw.Hw.Sdw.access.Rings.Access.brackets
                  else Rings.Ring.r0
                in
                Rings.Effective_ring.via_indirect_word effective
                  ~ind_ring:(Indword.ring_field ind) ~container_write_top
          in
          let segno = Indword.segno_field ind
          and wordno = Indword.wordno_field ind in
          if Indword.indirect_field ind then
            indirect m ~depth:(depth + 1) ~effective ~segno ~wordno
          else begin
            set_memory m ~effective ~segno ~wordno;
            Ok ()
          end)

let form m (instr : Instr.t) =
  match Opcode.operand_class instr.opcode with
  | Opcode.No_operand ->
      m.Machine.op_kind <- Machine.No_operand;
      Ok ()
  | _ -> (
      let regs = m.Machine.regs in
      match instr.base with
      | Instr.Immediate ->
          m.Machine.op_kind <- Machine.Immediate_operand;
          m.Machine.op_value <- sign_extend_18 instr.offset;
          Ok ()
      | Instr.Ipr_relative ->
          let effective =
            Rings.Effective_ring.start regs.Hw.Registers.ipr_ring
          in
          let segno = regs.Hw.Registers.ipr_segno in
          let wordno =
            if instr.indexed then
              (instr.offset + regs.Hw.Registers.xs.(instr.xr)) land wordno_mask
            else instr.offset
          in
          if instr.indirect then indirect m ~depth:1 ~effective ~segno ~wordno
          else begin
            set_memory m ~effective ~segno ~wordno;
            Ok ()
          end
      | Instr.Pr n ->
          let p = Hw.Registers.get_pr regs n in
          let effective =
            Rings.Effective_ring.start regs.Hw.Registers.ipr_ring
          in
          let effective =
            match m.Machine.mode with
            | Machine.Ring_software_645 -> effective
            | Machine.Ring_hardware | Machine.Ring_capability ->
                Rings.Effective_ring.via_pointer_register effective
                  ~pr_ring:p.Hw.Registers.ring
          in
          let segno = p.Hw.Registers.addr.Hw.Addr.segno in
          let wordno =
            (p.Hw.Registers.addr.Hw.Addr.wordno + instr.offset) land wordno_mask
          in
          let wordno =
            if instr.indexed then
              (wordno + regs.Hw.Registers.xs.(instr.xr)) land wordno_mask
            else wordno
          in
          if instr.indirect then indirect m ~depth:1 ~effective ~segno ~wordno
          else begin
            set_memory m ~effective ~segno ~wordno;
            Ok ()
          end)

let operand m =
  match m.Machine.op_kind with
  | Machine.No_operand -> Absent
  | Machine.Immediate_operand -> Immediate m.Machine.op_value
  | Machine.Memory_operand ->
      Memory
        {
          effective = m.Machine.op_effective;
          addr =
            Hw.Addr.v ~segno:m.Machine.op_segno ~wordno:m.Machine.op_wordno;
        }

let compute m instr =
  match form m instr with Error fault -> Error fault | Ok () -> Ok (operand m)
