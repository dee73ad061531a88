(* The .rng loader: headers split the file into segments; %process lines
   declare what to spawn.  Every check on untrusted text ends in a
   "line N: ..." error before anything is built from it. *)

type segment = { name : string; access : Rings.Access.t; source : string }

type process = {
  pname : string;
  user : string;
  start : string * string;
  ring : int;
  shared : (string * string) list;
  paged : bool;
}

type t = { segments : segment list; processes : process list }

let ( let* ) = Result.bind

let entry spec =
  match String.index_opt spec '$' with
  | Some i ->
      (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | None -> (spec, "start")

(* The value of the last [key=VALUE] word, VALUE nonempty. *)
let value words key =
  let prefix = key ^ "=" in
  let n = String.length prefix in
  List.fold_left
    (fun acc w ->
      if String.length w > n && String.starts_with ~prefix w then
        Some (String.sub w n (String.length w - n))
      else acc)
    None words

let err lineno fmt =
  Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt

(* The number after [key=], if the key is given at all: a value that
   does not parse, or none at all, is an error, never the default. *)
let number words key lineno =
  match value words key with
  | None when List.mem (key ^ "=") words -> err lineno "%s=: not a number" key
  | None -> Ok None
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> Ok (Some n)
      | None -> err lineno "%s=%s: not a number" key v)

let parse_segment words lineno =
  let err fmt = err lineno fmt in
  let ring key default =
    match number words key lineno with
    | Error _ as e -> e
    | Ok None -> Ok default
    | Ok (Some r) when r >= 0 && r < Rings.Ring.count -> Ok r
    | Ok (Some r) -> err "%s=%d: rings are 0 to 7" key r
  in
  (* [lo] and [hi] bound one bracket; [hi] may not fall below [lo]. *)
  let bracket lo_key lo_default hi_key =
    let* lo = ring lo_key lo_default in
    let* hi = ring hi_key lo in
    if hi < lo then err "%s=%d is below %s=%d" hi_key hi lo_key lo
    else Ok (lo, hi)
  in
  match words with
  | "%segment" :: name :: kind :: _ -> (
      match kind with
      | "proc" ->
          let* execute, callable = bracket "execute" 4 "callable" in
          Ok
            ( name,
              Rings.Access.procedure_segment
                ~readable:(not (List.mem "readable=no" words))
                ~execute_in:execute ~callable_from:callable () )
      | "data" ->
          let* write, read = bracket "write" 4 "read" in
          Ok
            ( name,
              Rings.Access.data_segment ~writable_to:write ~readable_to:read
                () )
      | k -> err "unknown segment kind %s" k)
  | _ -> err "bad %%segment header"

let parse_process words lineno =
  match words with
  | "%process" :: pname :: rest ->
      let find key default = Option.value (value rest key) ~default in
      let* ring = number rest "ring" lineno in
      let* shared =
        match value rest "shared" with
        | None -> Ok []
        | Some spec ->
            List.fold_right
              (fun pair acc ->
                let* acc = acc in
                match String.split_on_char ':' pair with
                | [ seg; owner ] when seg <> "" && owner <> "" ->
                    Ok ((seg, owner) :: acc)
                | _ -> err lineno "shared=%s: expected SEGMENT:OWNER pairs" spec)
              (String.split_on_char ',' spec)
              (Ok [])
      in
      Ok
        {
          pname;
          user = find "user" "operator";
          start = entry (find "start" "main$start");
          ring = Option.value ring ~default:4;
          shared;
          paged = List.mem "paged" rest;
        }
  | _ -> err lineno "bad %%process header"

let parse text =
  let words line = String.split_on_char ' ' line |> List.filter (( <> ) "") in
  (* The segment being read, if any, ends at the next header. *)
  let close current segs =
    match current with
    | None -> segs
    | Some ((name, access), body) ->
        { name; access; source = String.concat "\n" (List.rev body) } :: segs
  in
  let rec go current segs procs lineno = function
    | [] ->
        Ok
          { segments = List.rev (close current segs); processes = List.rev procs }
    | line :: rest ->
        let next current segs procs = go current segs procs (lineno + 1) rest in
        if String.starts_with ~prefix:"%segment" line then
          let* ((name, _) as h) = parse_segment (words line) lineno in
          let segs = close current segs in
          if List.exists (fun s -> s.name = name) segs then
            Error (Printf.sprintf "line %d: duplicate segment %s" lineno name)
          else next (Some (h, [])) segs procs
        else if String.starts_with ~prefix:"%process" line then
          let* d = parse_process (words line) lineno in
          next None (close current segs) (d :: procs)
        else
          match current with
          | Some (h, body) -> next (Some (h, line :: body)) segs procs
          | None ->
              let t = String.trim line in
              if t = "" || t.[0] = ';' then next None segs procs
              else
                Error
                  (Printf.sprintf "line %d: text before first %%segment" lineno)
  in
  go None [] [] 1 (String.split_on_char '\n' text)

let store t =
  let store = Store.create () in
  List.iter
    (fun s ->
      Store.add_source store ~name:s.name
        ~acl:[ { Acl.user = Acl.wildcard; access = s.access } ]
        s.source)
    t.segments;
  store

let spawn sys t =
  let names = List.map (fun s -> s.name) t.segments in
  List.fold_left
    (fun acc d ->
      let* () = acc in
      System.spawn ~shared:d.shared ~paged:d.paged sys ~pname:d.pname
        ~user:d.user
        ~segments:(List.filter (fun n -> not (List.mem_assoc n d.shared)) names)
        ~start:d.start ~ring:d.ring
      |> Result.map ignore
      |> Result.map_error (Printf.sprintf "spawn %s: %s" d.pname))
    (Ok ()) t.processes

let load p t ~start ~ring =
  let* () =
    Process.add_segments p (List.map (fun s -> s.name) t.segments)
    |> Result.map_error (( ^ ) "load: ")
  in
  let segment, entry = entry start in
  Process.start p ~segment ~entry ~ring |> Result.map_error (( ^ ) "start: ")
