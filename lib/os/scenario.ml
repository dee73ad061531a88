type config = {
  mode : Isa.Machine.mode;
  stack_rule : Rings.Stack_rule.t;
  gate_on_same_ring : bool;
  use_r1_in_indirection : bool;
  paged : bool;
  frame_pool : int;
}

let default_config =
  {
    mode = Isa.Machine.Ring_hardware;
    stack_rule = Rings.Stack_rule.Segno_equals_ring;
    gate_on_same_ring = true;
    use_r1_in_indirection = true;
    paged = false;
    frame_pool = 64;
  }

let software_config =
  { default_config with mode = Isa.Machine.Ring_software_645 }

let capability_config =
  { default_config with mode = Isa.Machine.Ring_capability }

(* Frame slots used by the generated caller (0 and 1 are fixed by the
   convention): 2 = argument count, 3 = argument ITS, 5 = loop
   counter. *)
let caller_source ?arg_symbol ~callee_link ~iterations () =
  let buf = Buffer.create 512 in
  let add line = Buffer.add_string buf (line ^ "\n") in
  add "; generated caller";
  add (Printf.sprintf "start:  lda =%d" iterations);
  add "        sta pr6|5          ; loop counter";
  add "loop:   eap pr1, ret";
  add "        spr pr1, pr6|1     ; return point in my frame";
  (match arg_symbol with
  | None ->
      add "        lda =0";
      add "        sta pr6|2          ; empty argument list"
  | Some _ ->
      add "        lda =1";
      add "        sta pr6|2          ; one argument";
      add "        eap pr1, arglnk,*  ; address of the argument word";
      add "        spr pr1, pr6|3     ; argument ITS");
  add "        eap pr2, pr6|2     ; PRa := argument list";
  add "        call lnk,*";
  add "ret:    sta pr6|4          ; keep the service result";
  add "        lda pr6|5";
  add "        sba =1";
  add "        sta pr6|5";
  add "        tnz loop";
  add "        lda pr6|4";
  add "        mme =2             ; exit";
  add (Printf.sprintf "lnk:    .its 0, %s" callee_link);
  (match arg_symbol with
  | None -> ()
  | Some s -> add (Printf.sprintf "arglnk: .its 0, %s" s));
  Buffer.contents buf

let callee_source ?(touch_argument = false) () =
  let buf = Buffer.create 512 in
  let add line = Buffer.add_string buf (line ^ "\n") in
  add "; generated gated service";
  add "entry:  .gate impl         ; gate word 0, the external entry";
  add "impl:   eap pr5, pr0|0,*   ; new frame from the stack header";
  add "        spr pr6, pr5|0     ; save caller PR6";
  add "        eap pr6, pr5|0     ; my frame pointer";
  add (Printf.sprintf "        eap pr1, pr6|%d" Calling.frame_size);
  add "        spr pr1, pr0|0     ; bump the header";
  if touch_argument then begin
    add "        lda pr2|1,*        ; first argument, via its ITS";
    add "        ada =1";
    add "        sta pr2|1,*        ; store back (validated as caller)"
  end;
  add "        lda =42            ; the service's result";
  add "        spr pr6, pr0|0     ; pop my frame";
  add "        eap pr6, pr6|0,*   ; restore caller PR6";
  add "        retn pr6|1,*       ; return via the caller's slot 1";
  Buffer.contents buf

let data_source = "word0:  .word 7\n"

let ( let* ) = Result.bind

let build config ~sources ~start_segment ~start_ring =
  let store = Store.create () in
  List.iter
    (fun (name, acl, src) -> Store.add_source store ~name ~acl src)
    sources;
  let p =
    Process.create ~mode:config.mode ~stack_rule:config.stack_rule
      ~gate_on_same_ring:config.gate_on_same_ring
      ~use_r1_in_indirection:config.use_r1_in_indirection
      ~paged:config.paged ~frame_pool:config.frame_pool ~store
      ~user:"alice" ()
  in
  let* () = Process.add_segments p (List.map (fun (n, _, _) -> n) sources) in
  let* () = Process.start p ~segment:start_segment ~entry:"start"
      ~ring:start_ring
  in
  Ok p

let acl_all access = [ { Acl.user = Acl.wildcard; access } ]

let crossing_sources ~caller_ring ~callee_ring ?callable_from
    ?(with_argument = false) iterations =
  let callable_from =
    match callable_from with
    | Some r -> r
    | None -> max caller_ring callee_ring
  in
  let caller_acl =
    acl_all
      (Rings.Access.procedure_segment ~execute_in:caller_ring
         ~callable_from:caller_ring ())
  in
  let callee_acl =
    acl_all
      (Rings.Access.procedure_segment ~execute_in:callee_ring ~callable_from
         ())
  in
  let data_acl =
    acl_all
      (Rings.Access.data_segment
         ~writable_to:(max caller_ring callee_ring)
         ~readable_to:(max caller_ring callee_ring)
         ())
  in
  let arg_symbol = if with_argument then Some "data$word0" else None in
  [
    ( "caller",
      caller_acl,
      caller_source ?arg_symbol ~callee_link:"service$entry" ~iterations () );
    ("service", callee_acl, callee_source ~touch_argument:with_argument ());
  ]
  @ if with_argument then [ ("data", data_acl, data_source) ] else []

let crossing ?(config = default_config) ?(caller_ring = 4) ?(callee_ring = 1)
    ?callable_from ?(iterations = 1) ?with_argument () =
  build config
    ~sources:
      (crossing_sources ~caller_ring ~callee_ring ?callable_from
         ?with_argument iterations)
    ~start_segment:"caller" ~start_ring:caller_ring

(* A caller whose argument list is assembled statically in a separate
   data segment, so any argument count fits regardless of frame
   layout. *)
let caller_with_list_source ~iterations =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta pr6|5\n\
     loop:   eap pr1, ret\n\
    \        spr pr1, pr6|1\n\
    \        eap pr2, lst,*\n\
    \        call lnk,*\n\
     ret:    lda pr6|5\n\
    \        sba =1\n\
    \        sta pr6|5\n\
    \        tnz loop\n\
    \        mme =2\n\
     lnk:    .its 0, service$entry\n\
     lst:    .its 0, arglist$list\n"
    iterations

let arglist_source ~arg_count =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "list:   .word %d\n" arg_count);
  for _ = 1 to arg_count do
    Buffer.add_string buf "        .its 0, data$word0\n"
  done;
  Buffer.contents buf

let crossing_with_args ?(config = default_config) ?(caller_ring = 4)
    ?(callee_ring = 1) ~arg_count ~iterations () =
  let r_top = max caller_ring callee_ring in
  let sources =
    [
      ( "caller",
        acl_all
          (Rings.Access.procedure_segment ~execute_in:caller_ring
             ~callable_from:caller_ring ()),
        caller_with_list_source ~iterations );
      ( "service",
        acl_all
          (Rings.Access.procedure_segment ~execute_in:callee_ring
             ~callable_from:r_top ()),
        callee_source () );
      ( "arglist",
        acl_all
          (Rings.Access.data_segment ~writable_to:caller_ring
             ~readable_to:r_top ()),
        arglist_source ~arg_count );
      ( "data",
        acl_all
          (Rings.Access.data_segment ~writable_to:r_top ~readable_to:r_top ()),
        data_source );
    ]
  in
  build config ~sources ~start_segment:"caller" ~start_ring:caller_ring

let same_ring_pair ?(config = default_config) ?(ring = 4) ?(iterations = 1)
    () =
  crossing ~config ~caller_ring:ring ~callee_ring:ring ~callable_from:ring
    ~iterations ()
