(** A minimal JSON reader.

    Just enough to {e validate} and inspect what the trace exporters
    emit (tests and [bin/jsoncheck]) without an external
    dependency.  The exporters themselves build their output with
    [Buffer] — this module only reads. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON document; [Error] describes the first
    syntax error and its byte offset. *)

val member : string -> t -> t option
(** Field lookup in an [Object]; [None] otherwise. *)

val pp : Format.formatter -> t -> unit
