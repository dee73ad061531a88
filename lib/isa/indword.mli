(** Indirect words (IND in Fig. 3).

    Indirect words contain the same information as pointer registers —
    a ring number and a two-part address — and may indicate further
    indirection with their own indirect flag.  The RING field forces
    validation of the eventual operand reference relative to a
    higher-numbered ring; it is how an argument list carries the
    caller's ring into the callee's references (see "Call and Return
    Revisited").

    Layout of the 36-bit indirect word:

    {v
    [33..35] ring/3   [32] indirect   [18..31] segno/14   [0..17] wordno/18
    v} *)

type t = { ring : Rings.Ring.t; indirect : bool; addr : Hw.Addr.t }

val v : ?indirect:bool -> ring:int -> segno:int -> wordno:int -> unit -> t

val of_ptr : ?indirect:bool -> Hw.Registers.ptr -> t
(** The encoding SPR stores: the PR's ring and address. *)

val to_ptr : t -> Hw.Registers.ptr

val encode : t -> Hw.Word.t
val decode : Hw.Word.t -> t
(** Total: every 36-bit word decodes to some indirect word. *)

(** {1 Without the record}

    [encode] and [decode] field by field, for the instruction cycle,
    which must not allocate. *)

val encode_parts :
  ring:Rings.Ring.t -> indirect:bool -> segno:int -> wordno:int -> Hw.Word.t

val ring_field : Hw.Word.t -> Rings.Ring.t
val indirect_field : Hw.Word.t -> bool
val segno_field : Hw.Word.t -> int
val wordno_field : Hw.Word.t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
