(** Effective-address formation (Fig. 5).

    Forms in the (conceptual) TPR the effective address of an
    instruction's operand: a final two-part address after all pointer
    register and indirect-word modifications, together with the
    effective ring number against which the actual operand reference
    will be validated.

    The effective ring starts at the ring of execution; addressing
    relative to PRn folds in PRn.RING; each indirect word folds in its
    own RING field and SDW.R1 of the segment it was read from.  The
    capability to read each indirect word is validated, against
    TPR.RING {e as it stands when the word is encountered}, before the
    word is retrieved.

    In 645 mode no ring arithmetic is performed (the hardware has no
    ring logic); indirect words are still followed and their reads
    still validated against the current descriptor segment's read
    flag. *)

type operand =
  | Memory of { effective : Rings.Effective_ring.t; addr : Hw.Addr.t }
      (** A memory operand with its validation level. *)
  | Immediate of Hw.Word.t
      (** The sign-extended 18-bit offset field itself. *)
  | Absent  (** The instruction takes no operand. *)

exception Runaway_indirection of Hw.Addr.t
(** Raised after 64 levels of indirection: the program built an
    indirect loop, which would hang the real processor. *)

val form : Machine.t -> Instr.t -> (unit, Rings.Fault.t) result
(** Form the operand into the machine's scratch fields
    ([Machine.op_kind] and the other [op_] fields): the instruction
    cycle's path, which allocates nothing unless it faults. *)

val compute : Machine.t -> Instr.t -> (operand, Rings.Fault.t) result
(** {!form}, then the operand it left in the scratch fields as a
    value. *)
