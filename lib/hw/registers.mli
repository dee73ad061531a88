(** The processor's register file (Fig. 3).

    - DBR: descriptor base register — absolute address of the
      descriptor segment, its bound (number of SDWs), and the footnote's
      STACK field naming the process's eight standard stack segments.
    - IPR: instruction pointer — current ring of execution plus the
      two-part address of the next instruction.  Held as three mutable
      fields, so the processor advances it in place; {!ipr} and
      {!set_ipr} read and write it as a {!ptr}.
    - PR0..PR7: program-accessible pointer registers, each a two-part
      address plus a ring number used as a validation level.  PR
      assignments by software convention: PR0 is the stack base pointer
      the CALL instruction generates; see {!pr_stack} and {!pr_args}
      for the conventions the examples use.
    - A, Q: accumulators; X0..X7: 18-bit index registers; indicator
      flags from the last arithmetic result.

    The TPR is {e not} here: it is internal to the processor and
    exists only during effective-address formation (see
    {!Isa.Eff_addr}). *)

type ptr = { ring : Rings.Ring.t; addr : Addr.t }
(** Contents of IPR or a PRn: a validation ring and a two-part
    address. *)

type dbr = {
  base : int;  (** Absolute address of the descriptor segment. *)
  bound : int;  (** Number of SDWs (valid segment numbers). *)
  stack_base : int;
      (** Segment number of the ring-0 standard stack; ring r's stack
          is segment [stack_base + r]. *)
}

type t = {
  mutable dbr : dbr;
  mutable ipr_ring : Rings.Ring.t;  (** IPR: the ring of execution. *)
  mutable ipr_segno : int;  (** IPR: segment of the next instruction. *)
  mutable ipr_wordno : int;  (** IPR: its word number. *)
  prs : ptr array;
  mutable a : Word.t;
  mutable q : Word.t;
  xs : int array;  (** Eight 18-bit index registers. *)
  mutable ind_zero : bool;
  mutable ind_negative : bool;
}

val pr_count : int
(** 8. *)

val pr_stack : int
(** PR6 holds the stack pointer by software convention. *)

val pr_args : int
(** PR2 holds the argument-list pointer by software convention
    (the paper's "PRa"). *)

val create : unit -> t
(** All registers zero; IPR and PRs start in ring 0 at address 0|0. *)

val ptr : ring:int -> segno:int -> wordno:int -> ptr

val ipr : t -> ptr
(** The IPR as a fresh {!ptr}. *)

val set_ipr : t -> ptr -> unit

val set_ipr_at : t -> ring:Rings.Ring.t -> segno:int -> wordno:int -> unit
(** [set_ipr] from the parts, allocating nothing. *)

val advance_ipr : t -> unit
(** Step the IPR to the next word of its segment (word numbers wrap
    at 2^18), in place. *)

val get_pr : t -> int -> ptr
val set_pr : t -> int -> ptr -> unit

val set_pr_at : t -> int -> ring:Rings.Ring.t -> segno:int -> wordno:int -> unit
(** [set_pr] from the parts; allocates only when the value changes. *)

val maximize_pr_rings : t -> Rings.Ring.t -> unit
(** Raise the RING field of every PR to at least the given ring — the
    Fig. 9 action on an upward return that maintains the invariant
    PRn.RING ≥ IPR.RING. *)

val set_indicators : t -> Word.t -> unit
(** Set the zero/negative indicators from a result word. *)

val copy : t -> t
(** Deep copy, used to save processor state on a trap. *)

val restore : t -> from:t -> unit
(** Overwrite every register of the first file with the saved copy. *)

val pp : Format.formatter -> t -> unit
