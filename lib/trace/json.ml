(* A minimal JSON reader — just enough to validate and inspect what
   the exporters emit (and what bin/jsoncheck checks), without an
   external dependency.  Parses the full JSON grammar;
   numbers become floats, \u escapes decode to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Fail of string

type state = { s : string; mutable pos : int }

let error st msg = raise (Fail (Printf.sprintf "at %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected %c, found %c" c c')
  | None -> error st (Printf.sprintf "expected %c, found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length (st.s) && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let utf8_of_code buf c =
  (* Encode a Unicode scalar value as UTF-8. *)
  if c < 0x80 then Buffer.add_char buf (Char.chr c)
  else if c < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
  end
  else if c < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (c lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c when c >= '0' && c <= '9' ->
        v := (!v * 16) + Char.code c - Char.code '0'
    | Some c when c >= 'a' && c <= 'f' ->
        v := (!v * 16) + Char.code c - Char.code 'a' + 10
    | Some c when c >= 'A' && c <= 'F' ->
        v := (!v * 16) + Char.code c - Char.code 'A' + 10
    | _ -> error st "bad \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'u' ->
            advance st;
            utf8_of_code buf (hex4 st);
            go ()
        | _ -> error st "bad escape")
    | Some c when Char.code c < 0x20 -> error st "control character in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let consume_while pred =
    let rec go () =
      match peek st with
      | Some c when pred c ->
          advance st;
          go ()
      | _ -> ()
    in
    go ()
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  let digits0 = st.pos in
  consume_while (fun c -> c >= '0' && c <= '9');
  if st.pos = digits0 then error st "expected digit";
  (match peek st with
  | Some '.' ->
      advance st;
      let d = st.pos in
      consume_while (fun c -> c >= '0' && c <= '9');
      if st.pos = d then error st "expected fraction digit"
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      let d = st.pos in
      consume_while (fun c -> c >= '0' && c <= '9');
      if st.pos = d then error st "expected exponent digit"
  | _ -> ());
  match float_of_string_opt (String.sub st.s start (st.pos - start)) with
  | Some f -> f
  | None -> error st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "expected value, found end of input"
  | Some '{' -> parse_object st
  | Some '[' -> parse_array st
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Number (parse_number st)
  | Some c -> error st (Printf.sprintf "unexpected %c" c)

and parse_object st =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
      advance st;
      Object []
  | _ ->
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            members ((key, v) :: acc)
        | Some '}' ->
            advance st;
            Object (List.rev ((key, v) :: acc))
        | _ -> error st "expected , or } in object"
      in
      members []

and parse_array st =
  expect st '[';
  skip_ws st;
  match peek st with
  | Some ']' ->
      advance st;
      Array []
  | _ ->
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            elements (v :: acc)
        | Some ']' ->
            advance st;
            Array (List.rev (v :: acc))
        | _ -> error st "expected , or ] in array"
      in
      elements []

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "at %d: trailing garbage" st.pos)
      else Ok v
  | exception Fail msg -> Error msg

let member key = function
  | Object kvs -> List.assoc_opt key kvs
  | _ -> None

let rec pp ppf = function
  | Null -> Format.fprintf ppf "null"
  | Bool b -> Format.fprintf ppf "%b" b
  | Number f -> Format.fprintf ppf "%g" f
  | String s -> Format.fprintf ppf "%S" s
  | Array vs ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        vs
  | Object kvs ->
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           (fun ppf (k, v) -> Format.fprintf ppf "%S: %a" k pp v))
        kvs
