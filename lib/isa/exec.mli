(** The execute phase of the instruction cycle (Figs. 6–9).

    Given a decoded instruction and its computed operand, performs the
    instruction: operand references are validated against the
    effective ring per Fig. 6, EAP-type and transfer instructions per
    Fig. 7, and CALL/RETURN are delegated to {!Call_return}.  The IPR
    has already been advanced past the instruction, so transfer
    targets and TSX return addresses are taken from the registers as
    they stand. *)

type action =
  | Continue
  | Halt  (** The (privileged) HALT instruction was executed. *)

val perform : Machine.t -> Instr.t -> (action, Rings.Fault.t) result
(** Perform [instr] on the operand {!Eff_addr.form} left in the
    machine's scratch fields.  Allocates nothing unless it faults (or
    builds an address for CALL, RETURN, EAP or SIOT). *)
