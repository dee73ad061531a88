type ptr = { ring : Rings.Ring.t; addr : Addr.t }

type dbr = { base : int; bound : int; stack_base : int }

type t = {
  mutable dbr : dbr;
  mutable ipr_ring : Rings.Ring.t;
  mutable ipr_segno : int;
  mutable ipr_wordno : int;
  prs : ptr array;
  mutable a : Word.t;
  mutable q : Word.t;
  xs : int array;
  mutable ind_zero : bool;
  mutable ind_negative : bool;
}

let pr_count = 8
let pr_stack = 6
let pr_args = 2

let zero_ptr = { ring = Rings.Ring.r0; addr = Addr.v ~segno:0 ~wordno:0 }

let create () =
  {
    dbr = { base = 0; bound = 0; stack_base = 0 };
    ipr_ring = Rings.Ring.r0;
    ipr_segno = 0;
    ipr_wordno = 0;
    prs = Array.make pr_count zero_ptr;
    a = 0;
    q = 0;
    xs = Array.make 8 0;
    ind_zero = false;
    ind_negative = false;
  }

let ptr ~ring ~segno ~wordno =
  { ring = Rings.Ring.v ring; addr = Addr.v ~segno ~wordno }

let ipr t =
  { ring = t.ipr_ring; addr = Addr.v ~segno:t.ipr_segno ~wordno:t.ipr_wordno }

let set_ipr_at t ~ring ~segno ~wordno =
  t.ipr_ring <- ring;
  t.ipr_segno <- segno;
  t.ipr_wordno <- wordno

let set_ipr t p =
  set_ipr_at t ~ring:p.ring ~segno:p.addr.Addr.segno ~wordno:p.addr.Addr.wordno

let advance_ipr t = t.ipr_wordno <- (t.ipr_wordno + 1) land Addr.max_wordno

let get_pr t n =
  if n < 0 || n >= pr_count then invalid_arg "Registers.get_pr";
  t.prs.(n)

let set_pr t n p =
  if n < 0 || n >= pr_count then invalid_arg "Registers.set_pr";
  t.prs.(n) <- p

(* Pointers are immutable, so a PR that already holds the value keeps
   its record: the instruction cycle allocates only for a change. *)
let set_pr_at t n ~ring ~segno ~wordno =
  if n < 0 || n >= pr_count then invalid_arg "Registers.set_pr_at";
  let p = t.prs.(n) in
  if
    not
      (Rings.Ring.equal p.ring ring
      && p.addr.Addr.segno = segno
      && p.addr.Addr.wordno = wordno)
  then t.prs.(n) <- { ring; addr = Addr.v ~segno ~wordno }

let maximize_pr_rings t ring =
  for n = 0 to pr_count - 1 do
    let p = t.prs.(n) in
    if Rings.Ring.more_privileged p.ring ~than:ring then
      t.prs.(n) <- { p with ring }
  done

let set_indicators t w =
  t.ind_zero <- Word.is_zero w;
  t.ind_negative <- Word.is_negative w

let copy t =
  {
    dbr = t.dbr;
    ipr_ring = t.ipr_ring;
    ipr_segno = t.ipr_segno;
    ipr_wordno = t.ipr_wordno;
    prs = Array.copy t.prs;
    a = t.a;
    q = t.q;
    xs = Array.copy t.xs;
    ind_zero = t.ind_zero;
    ind_negative = t.ind_negative;
  }

let restore t ~from =
  t.dbr <- from.dbr;
  t.ipr_ring <- from.ipr_ring;
  t.ipr_segno <- from.ipr_segno;
  t.ipr_wordno <- from.ipr_wordno;
  Array.blit from.prs 0 t.prs 0 pr_count;
  t.a <- from.a;
  t.q <- from.q;
  Array.blit from.xs 0 t.xs 0 (Array.length t.xs);
  t.ind_zero <- from.ind_zero;
  t.ind_negative <- from.ind_negative

let pp_ptr ppf p =
  Format.fprintf ppf "%a:%a" Rings.Ring.pp p.ring Addr.pp p.addr

let pp ppf t =
  Format.fprintf ppf "@[<v>IPR %a  A=%a Q=%a z=%b n=%b@," pp_ptr (ipr t)
    Word.pp_octal t.a Word.pp_octal t.q t.ind_zero t.ind_negative;
  Array.iteri
    (fun i p -> Format.fprintf ppf "PR%d %a  " i pp_ptr p)
    t.prs;
  Format.fprintf ppf "@]"
