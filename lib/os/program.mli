(** Program files ([.rng]): several segments of assembly source, each
    under a header line, and optional process declarations.

    {v
    %segment NAME proc execute=N callable=M [readable=no]
    %segment NAME data write=N read=M
    %process NAME user=U start=SEG$ENTRY ring=N [shared=SEG:OWNER,...] [paged]
    v}

    A file is untrusted input: {!parse} and the loaders end every
    defect in an [Error] naming the line, never an exception.  See
    docs/ASSEMBLY.md for the format. *)

type segment = {
  name : string;
  access : Rings.Access.t;  (** Granted to every user. *)
  source : string;  (** The assembly text under the header. *)
}

type process = {
  pname : string;
  user : string;  (** Default ["operator"]. *)
  start : string * string;  (** Default [("main", "start")]. *)
  ring : int;  (** Default 4. *)
  shared : (string * string) list;
      (** [(segment, owner)]: map the owner's copy instead of loading
          a private one. *)
  paged : bool;
}

type t = { segments : segment list; processes : process list }

val parse : string -> (t, string) result
(** Errors read ["line N: ..."]: a malformed header, a header number
    that does not parse ([execute=x], [ring=x]), a header ring outside
    0-7, a gate bracket below the execute bracket or a read bracket
    below the write bracket, a [shared=] entry that is not
    [SEGMENT:OWNER], a segment name used twice, or text before the
    first header.  Assembly errors surface later, from the loaders. *)

val entry : string -> string * string
(** ["seg$entry"] to [(seg, entry)]; a bare ["seg"] enters at
    ["start"]. *)

val store : t -> Store.t
(** On-line storage holding every segment's source. *)

val spawn : System.t -> t -> (unit, string) result
(** Spawn every declared process, in file order, each loading every
    segment it does not share.  Errors read ["spawn NAME: ..."]. *)

val load : Process.t -> t -> start:string -> ring:int -> (unit, string) result
(** Single-process form: load every segment into [p] (["load: ..."]),
    then start it at [start] ({!entry}) in [ring] (["start: ..."]). *)
