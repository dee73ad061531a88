(* jsoncheck: validate that each argument file parses as JSON.

   Files ending in .jsonl are validated line by line (blank lines
   allowed); anything else must be a single JSON document.  Exits 1 on
   the first malformed file, printing where it failed.  The cram tests
   run it on every JSON file they write, and `make bench-smoke` on the
   bench's fresh BENCH_throughput.json, without external tooling. *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let check path =
  let text = read_file path in
  if has_suffix ~suffix:".jsonl" path then
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> (i + 1, line))
    |> List.fold_left
         (fun acc (lineno, line) ->
           match acc with
           | Error _ -> acc
           | Ok () ->
               if String.trim line = "" then Ok ()
               else (
                 match Trace.Json.parse line with
                 | Ok _ -> Ok ()
                 | Error e ->
                     Error (Printf.sprintf "line %d: %s" lineno e)))
         (Ok ())
  else
    match Trace.Json.parse text with
    | Ok _ -> Ok ()
    | Error e -> Error e

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: jsoncheck FILE...";
    exit 2
  end;
  let failed =
    List.fold_left
      (fun failed path ->
        match check path with
        | Ok () ->
            Printf.printf "%s: ok\n" path;
            failed
        | Error e ->
            Printf.eprintf "%s: %s\n" path e;
            true
        | exception Sys_error e ->
            Printf.eprintf "%s\n" e;
            true)
      false files
  in
  exit (if failed then 1 else 0)
