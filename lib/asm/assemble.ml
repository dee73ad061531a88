type program = {
  words : int array;
  symbols : (string * int) list;
  gates : int;
}

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

let no_externals ~segment:_ ~symbol:_ = None

(* Size in words of a statement; [None] when it cannot be determined
   in pass 1. *)
let stmt_size (stmt : Statement.stmt) =
  match stmt with
  | Statement.Instruction _ -> Some 1
  | Statement.Directive d -> (
      match d with
      | Statement.Org _ -> Some 0
      | Statement.Word es -> Some (List.length es)
      | Statement.Zero (Statement.Num n) -> Some n
      | Statement.Zero (Statement.Sym _ | Statement.Sym_offset _) -> None
      | Statement.Its _ -> Some 1
      | Statement.Gate _ -> Some 1)

(* A segment's words must fit one SDW bound.  Pass 1 refuses a count
   that would pass it, so pass 2 never allocates by an unchecked
   size. *)
let max_words = 1 lsl 18
let too_big = "segment exceeds 2^18 words"

let pass1 lines =
  let errors = ref [] in
  let err line message = errors := { line; message } :: !errors in
  let symbols = Hashtbl.create 32 in
  let lc = ref 0 in
  let size = ref 0 in
  let gates = ref 0 in
  let gates_done = ref false in
  List.iter
    (fun (l : Statement.line) ->
      (match l.label with
      | Some name ->
          if Hashtbl.mem symbols name then
            err l.number (Printf.sprintf "duplicate label %s" name)
          else Hashtbl.add symbols name !lc
      | None -> ());
      (match l.stmt with
      | Some (Statement.Directive (Statement.Org (Statement.Num n))) ->
          if n < 0 then err l.number ".org: negative address"
          else if n > max_words then err l.number too_big
          else lc := n
      | Some
          (Statement.Directive
            (Statement.Org (Statement.Sym _ | Statement.Sym_offset _))) ->
          err l.number ".org requires a literal address"
      | Some (Statement.Directive (Statement.Gate _)) ->
          if !gates_done || !lc <> !gates then
            err l.number ".gate statements must be contiguous from word 0"
          else incr gates;
          incr lc
      | Some stmt -> (
          gates_done := true;
          match stmt_size stmt with
          | Some n when n < 0 -> err l.number ".zero: negative count"
          | Some n when n > max_words - !lc -> err l.number too_big
          | Some n -> lc := !lc + n
          | None -> err l.number "size must be a literal number")
      | None -> ());
      size := max !size !lc)
    lines;
  (List.rev !errors, symbols, !size, !gates)

let eval symbols line (e : Statement.expr) =
  let lookup s =
    match Hashtbl.find_opt symbols s with
    | Some v -> Ok v
    | None -> Error { line; message = Printf.sprintf "undefined symbol %s" s }
  in
  match e with
  | Statement.Num n -> Ok n
  | Statement.Sym s -> lookup s
  | Statement.Sym_offset (s, n) -> Result.map (fun v -> v + n) (lookup s)

let ( let* ) = Result.bind

let guard line cond message =
  if cond then Ok () else Error { line; message }

let encode_instruction symbols line (i : Statement.instruction) =
  let* base, offset =
    match i.operand with
    | None -> Ok (Isa.Instr.Ipr_relative, 0)
    | Some (Statement.Immediate e) ->
        let* v = eval symbols line e in
        (* Negative immediates are stored as 18-bit two's complement
           and sign-extended back at effective-address time. *)
        let* () =
          guard line
            (v >= -(1 lsl 17) && v < 1 lsl 18)
            "immediate out of 18-bit range"
        in
        Ok (Isa.Instr.Immediate, v land ((1 lsl 18) - 1))
    | Some (Statement.Ipr_rel e) ->
        let* v = eval symbols line e in
        let* () =
          guard line (v >= 0 && v < 1 lsl 18) "address out of range"
        in
        Ok (Isa.Instr.Ipr_relative, v)
    | Some (Statement.Pr_rel { pr; offset }) ->
        let* v = eval symbols line offset in
        let* () =
          guard line (v >= 0 && v < 1 lsl 18) "offset out of range"
        in
        Ok (Isa.Instr.Pr pr, v)
  in
  match
    Isa.Instr.v ~base ~indirect:i.indirect ~indexed:i.indexed ~xr:i.xr
      ~offset i.opcode
  with
  | instr -> Ok (Isa.Instr.encode instr)
  | exception Invalid_argument m -> Error { line; message = m }

let encode_its externals self_segno symbols line ~ring ~target ~indirect =
  let* ring = eval symbols line ring in
  let* () = guard line (ring >= 0 && ring < 8) "ring out of range" in
  let* segno, wordno =
    match target with
    | Statement.External { segment; symbol } -> (
        match externals ~segment ~symbol with
        | Some (a : Hw.Addr.t) -> Ok (a.Hw.Addr.segno, a.Hw.Addr.wordno)
        | None ->
            Error
              {
                line;
                message =
                  Printf.sprintf "unresolved external %s$%s" segment symbol;
              })
    | Statement.Local e -> (
        let* v = eval symbols line e in
        match self_segno with
        | Some segno -> Ok (segno, v)
        | None ->
            Error
              {
                line;
                message = "local .its target needs self_segno at assembly";
              })
    | Statement.Absolute { segno; wordno } ->
        let* s = eval symbols line segno in
        let* w = eval symbols line wordno in
        Ok (s, w)
  in
  match Isa.Indword.v ~indirect ~ring ~segno ~wordno () with
  | ind -> Ok (Isa.Indword.encode ind)
  | exception Invalid_argument m -> Error { line; message = m }

let pass2 externals self_segno symbols size lines =
  let words = Array.make size 0 in
  let errors = ref [] in
  let lc = ref 0 in
  let emit w =
    words.(!lc) <- w;
    incr lc
  in
  List.iter
    (fun (l : Statement.line) ->
      let result =
        match l.stmt with
        | None -> Ok ()
        | Some (Statement.Instruction i) ->
            let* w = encode_instruction symbols l.number i in
            Ok (emit w)
        | Some (Statement.Directive d) -> (
            match d with
            | Statement.Org (Statement.Num n) ->
                lc := n;
                Ok ()
            | Statement.Org (Statement.Sym _ | Statement.Sym_offset _) ->
                Ok () (* pass-1 error *)
            | Statement.Word es ->
                List.fold_left
                  (fun acc e ->
                    let* () = acc in
                    let* v = eval symbols l.number e in
                    Ok (emit (Hw.Word.of_signed v)))
                  (Ok ()) es
            | Statement.Zero (Statement.Num n) ->
                (* A fill, not a skip: [.org] may have moved the
                   location counter back over words already emitted. *)
                Array.fill words !lc n 0;
                lc := !lc + n;
                Ok ()
            | Statement.Zero (Statement.Sym _ | Statement.Sym_offset _) ->
                Ok () (* pass-1 error *)
            | Statement.Its { ring; target; indirect } ->
                let* w =
                  encode_its externals self_segno symbols l.number ~ring
                    ~target ~indirect
                in
                Ok (emit w)
            | Statement.Gate label ->
                let* i =
                  encode_instruction symbols l.number
                    {
                      Statement.opcode = Isa.Opcode.TRA;
                      xr = 0;
                      operand = Some (Statement.Ipr_rel (Statement.Sym label));
                      indirect = false;
                      indexed = false;
                    }
                in
                Ok (emit i))
      in
      match result with Ok () -> () | Error e -> errors := e :: !errors)
    lines;
  (List.rev !errors, words)

type survey = {
  survey_symbols : (string * int) list;
  survey_size : int;
  survey_gates : int;
  survey_lines : Statement.line list;
  survey_table : (string, int) Hashtbl.t;
}

let survey source =
  match Parser.parse source with
  | Error errs ->
      Error
        (List.map
           (fun (e : Parser.error) ->
             { line = e.Parser.line; message = e.Parser.message })
           errs)
  | Ok lines -> (
      match pass1 lines with
      | (_ :: _ as errs), _, _, _ -> Error errs
      | [], table, size, gates ->
          Ok
            {
              survey_symbols =
                Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [];
              survey_size = size;
              survey_gates = gates;
              survey_lines = lines;
              survey_table = table;
            })

let link ?(externals = no_externals) ?self_segno s =
  match
    pass2 externals self_segno s.survey_table s.survey_size s.survey_lines
  with
  | [], words ->
      Ok { words; symbols = s.survey_symbols; gates = s.survey_gates }
  | errs, _ -> Error errs

let assemble ?externals ?self_segno source =
  let* s = survey source in
  link ?externals ?self_segno s

let symbol p name = List.assoc name p.symbols

let listing source p =
  let buf = Buffer.create 1024 in
  let lines = String.split_on_char '\n' source in
  (* Re-derive addresses from the symbol table where possible; for a
     full listing we simply show the source annotated with symbol
     values and then the word dump. *)
  List.iteri
    (fun i l -> Buffer.add_string buf (Printf.sprintf "%4d  %s\n" (i + 1) l))
    lines;
  Buffer.add_string buf "\nsymbols:\n";
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "  %-16s %06o\n" name v))
    (List.sort compare p.symbols);
  Buffer.add_string buf
    (Printf.sprintf "\nwords (%d, %d gates):\n" (Array.length p.words)
       p.gates);
  Array.iteri
    (fun addr w ->
      if w <> 0 then
        Buffer.add_string buf (Printf.sprintf "  %06o: %012o\n" addr w))
    p.words;
  Buffer.contents buf
