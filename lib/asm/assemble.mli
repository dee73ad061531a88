(** Two-pass assembly of one segment.

    The first pass assigns word addresses to labels; the second
    encodes instructions, data words and ITS (indirect) words.
    External references ([seg$sym] in [.its] directives) are resolved
    through the [externals] environment the caller supplies — the
    operating-system loader plays the role of the Multics linker here.
    A [.its] directive with a {e local} target needs the segment's own
    number, supplied as [self_segno].

    [.gate] statements must occupy the first words of the segment
    (the hardware compresses the gate list to a single SDW.GATE count
    of locations packed from word 0); the assembler enforces this and
    reports the count in the result. *)

type program = {
  words : int array;
  symbols : (string * int) list;  (** Label to word number. *)
  gates : int;  (** Number of [.gate] entries, packed from word 0. *)
}

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

type survey = private {
  survey_symbols : (string * int) list;
  survey_size : int;
  survey_gates : int;
  survey_lines : Statement.line list;  (** The parse, kept for {!link}. *)
  survey_table : (string, int) Hashtbl.t;
      (** Pass 1's symbol table, which {!link} reads and never
          changes. *)
}

val survey : string -> (survey, error list) result
(** Parse and pass 1: label addresses, segment size and gate count,
    with the parsed lines kept so that {!link} need not parse again.
    Needs no external environment — the loader surveys every segment
    of a virtual memory first, then links each against the combined
    symbol tables.  The errors are the parse errors, or else pass 1's
    (duplicate labels, [.gate] placement, sizes). *)

val link :
  ?externals:(segment:string -> symbol:string -> Hw.Addr.t option) ->
  ?self_segno:int ->
  survey ->
  (program, error list) result
(** Pass 2 over a survey: encode every statement, resolving [seg$sym]
    through [externals] (default: resolves nothing) and a local
    [.its] target against [self_segno].  The errors are pass 2's
    (undefined symbols, unresolved externals, values out of range),
    one per line.  A survey may be linked any number of times. *)

val assemble :
  ?externals:(segment:string -> symbol:string -> Hw.Addr.t option) ->
  ?self_segno:int ->
  string ->
  (program, error list) result
(** [assemble ?externals ?self_segno source] assembles one segment:
    {!survey}, then {!link}. *)

val symbol : program -> string -> int
(** Look up a label; raises [Not_found]. *)

val listing : string -> program -> string
(** A human-readable listing of the assembled words against the
    source. *)
