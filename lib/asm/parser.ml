type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_ident s =
  String.length s > 0
  && is_ident_start s.[0]
  && String.for_all is_ident_char s

(* An identifier never parses as a number (a literal starts with a
   digit or a sign), so it skips [int_of_string_opt], which raises and
   catches internally on every failure. *)
let parse_int s =
  if String.length s > 0 && is_ident_start s.[0] then None
  else int_of_string_opt s

let parse_expr s : (Statement.expr, string) result =
  let s = String.trim s in
  let split_at i =
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  if s = "" then Error "empty expression"
  else
    match parse_int s with
    | Some n -> Ok (Statement.Num n)
    | None ->
        if is_ident s then Ok (Statement.Sym s)
        else
          (* label+n / label-n (the minus splits after position 0 so a
             leading sign still parses as a number above). *)
          let try_offset i sign =
            let name, off = split_at i in
            match parse_int off with
            | Some n when is_ident name ->
                Some (Statement.Sym_offset (name, sign * n))
            | _ -> None
          in
          let candidate =
            match (String.index_opt s '+', String.rindex_opt s '-') with
            | Some i, _ -> try_offset i 1
            | None, Some i when i > 0 -> try_offset i (-1)
            | _ -> None
          in
          (match candidate with
          | Some e -> Ok e
          | None -> Error (Printf.sprintf "bad expression %S" s))

let parse_register prefix s =
  let n = String.length prefix in
  if
    String.length s = n + 1
    && String.lowercase_ascii (String.sub s 0 n) = prefix
    && s.[n] >= '0'
    && s.[n] <= '7'
  then Some (Char.code s.[n] - Char.code '0')
  else None

let parse_target s : (Statement.target, string) result =
  match String.index_opt s '$' with
  | Some i ->
      let segment = String.sub s 0 i in
      let symbol = String.sub s (i + 1) (String.length s - i - 1) in
      if is_ident segment && is_ident symbol then
        Ok (Statement.External { segment; symbol })
      else Error (Printf.sprintf "bad external reference %S" s)
  | None -> Result.map (fun e -> Statement.Local e) (parse_expr s)

let parse_operand_core s : (Statement.operand, string) result =
  if String.length s > 0 && s.[0] = '=' then
    Result.map
      (fun e -> Statement.Immediate e)
      (parse_expr (String.sub s 1 (String.length s - 1)))
  else
    match String.index_opt s '|' with
    | Some i -> (
        let basestr = String.sub s 0 i in
        let offstr = String.sub s (i + 1) (String.length s - i - 1) in
        match parse_register "pr" basestr with
        | Some pr ->
            Result.map
              (fun offset -> Statement.Pr_rel { pr; offset })
              (parse_expr offstr)
        | None -> Error (Printf.sprintf "bad base register %S" basestr))
    | None -> Result.map (fun e -> Statement.Ipr_rel e) (parse_expr s)

let split_comma s = List.map String.trim (String.split_on_char ',' s)

(* Parse "[operand][,*][,xN]" from comma-separated parts. *)
let parse_operand_parts parts :
    (Statement.operand option * bool * bool * int option, string) result =
  let rec suffixes ~indirect ~index = function
    | [] -> Ok (indirect, index)
    | "*" :: rest ->
        if indirect then Error "duplicate ,*"
        else suffixes ~indirect:true ~index rest
    | p :: rest -> (
        match parse_register "x" p with
        | Some n ->
            if index <> None then Error "duplicate index register"
            else suffixes ~indirect ~index:(Some n) rest
        | None -> Error (Printf.sprintf "bad operand suffix %S" p))
  in
  match parts with
  | [] | [ "" ] -> Ok (None, false, false, None)
  | core :: rest -> (
      match parse_operand_core core with
      | Error _ as e -> e
      | Ok operand -> (
          match suffixes ~indirect:false ~index:None rest with
          | Error _ as e -> e
          | Ok (indirect, index) ->
              Ok (Some operand, indirect, index <> None, index)))

let parse_instruction opcode rest : (Statement.instruction, string) result =
  let parts = if String.trim rest = "" then [] else split_comma rest in
  let xr_sel, parts =
    if Isa.Opcode.uses_xr opcode then
      match parts with
      | p :: rest -> (
          match parse_register "x" p with
          | Some n -> (Some n, rest)
          | None -> (
              match parse_register "pr" p with
              | Some n -> (Some n, rest)
              | None -> (None, p :: rest)))
      | [] -> (None, [])
    else (None, parts)
  in
  if Isa.Opcode.uses_xr opcode && xr_sel = None then
    Error
      (Printf.sprintf "%s requires a register selector (xN or prN)"
         (Isa.Opcode.mnemonic opcode))
  else
    match parse_operand_parts parts with
    | Error _ as e -> e
    | Ok (operand, indirect, indexed, index) ->
        if indexed && xr_sel <> None then
          Error "cannot combine a register selector with indexing"
        else
          let xr =
            match (xr_sel, index) with
            | Some n, _ -> n
            | None, Some n -> n
            | None, None -> 0
          in
          Ok { Statement.opcode; xr; operand; indirect; indexed }

let parse_directive name rest : (Statement.directive, string) result =
  let parts = if String.trim rest = "" then [] else split_comma rest in
  match (String.lowercase_ascii name, parts) with
  | ".org", [ e ] -> Result.map (fun e -> Statement.Org e) (parse_expr e)
  | ".org", _ -> Error ".org takes one argument"
  | ".word", [] -> Error ".word needs at least one value"
  | ".word", es ->
      let rec all acc = function
        | [] -> Ok (Statement.Word (List.rev acc))
        | e :: rest -> (
            match parse_expr e with
            | Error _ as err -> err
            | Ok v -> all (v :: acc) rest)
      in
      all [] es
  | ".zero", [ e ] -> Result.map (fun e -> Statement.Zero e) (parse_expr e)
  | ".zero", _ -> Error ".zero takes one argument"
  | ".its", ring :: target :: rest -> (
      (* Forms: .its ring, target [,*]
               .its ring, segno, wordno [,*]   (absolute) *)
      let absolute_wordno, indirect_result =
        match rest with
        | [] -> (None, Ok false)
        | [ "*" ] -> (None, Ok true)
        | [ w ] -> (Some w, Ok false)
        | [ w; "*" ] -> (Some w, Ok true)
        | _ -> (None, Error ".its: bad trailing arguments")
      in
      match indirect_result with
      | Error _ as e -> e
      | Ok indirect -> (
          let target_result =
            match absolute_wordno with
            | None -> parse_target target
            | Some w -> (
                match (parse_expr target, parse_expr w) with
                | Ok segno, Ok wordno ->
                    Ok (Statement.Absolute { segno; wordno })
                | Error e, _ | _, Error e -> Error e)
          in
          match (parse_expr ring, target_result) with
          | Ok ring, Ok target ->
              Ok (Statement.Its { ring; target; indirect })
          | Error e, _ | _, Error e -> Error e))
  | ".its", _ -> Error ".its takes ring, target [,*]"
  | ".gate", [ l ] ->
      if is_ident l then Ok (Statement.Gate l)
      else Error (Printf.sprintf "bad gate label %S" l)
  | ".gate", _ -> Error ".gate takes one label"
  | d, _ -> Error (Printf.sprintf "unknown directive %s" d)

let parse_line number raw : (Statement.line, error) result =
  let err message = Error { line = number; message } in
  let text =
    match String.index_opt raw ';' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  let label, rest =
    match String.index_opt text ':' with
    | Some i ->
        ( Some (String.trim (String.sub text 0 i)),
          String.sub text (i + 1) (String.length text - i - 1) )
    | None -> (None, text)
  in
  match label with
  | Some l when not (is_ident l) -> err (Printf.sprintf "bad label %S" l)
  | _ -> (
      let rest = String.trim rest in
      if rest = "" then Ok { Statement.number; label; stmt = None }
      else
        let head, args =
          match String.index_opt rest ' ' with
          | Some i ->
              ( String.sub rest 0 i,
                String.sub rest (i + 1) (String.length rest - i - 1) )
          | None -> (rest, "")
        in
        if String.length head > 0 && head.[0] = '.' then
          match parse_directive head args with
          | Ok d ->
              Ok
                {
                  Statement.number;
                  label;
                  stmt = Some (Statement.Directive d);
                }
          | Error message -> err message
        else
          match Isa.Opcode.of_mnemonic head with
          | None -> err (Printf.sprintf "unknown opcode %S" head)
          | Some opcode -> (
              match parse_instruction opcode args with
              | Ok i ->
                  Ok
                    {
                      Statement.number;
                      label;
                      stmt = Some (Statement.Instruction i);
                    }
              | Error message -> err message))

let parse source =
  let lines = String.split_on_char '\n' source in
  let results = List.mapi (fun i l -> parse_line (i + 1) l) lines in
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) results
  in
  if errors <> [] then Error errors
  else Ok (List.filter_map Result.to_option results)
