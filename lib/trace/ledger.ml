(* Per-tenant accounting: one counter table per tenant, charged in
   place from the values marked at the start of the slice, so a slice
   allocates nothing and a bill is exactly the pointwise sum of what
   the machine's counters moved while that tenant held the
   processor. *)

type t = { bills : (int, Counters.t) Hashtbl.t; since : Counters.t }

let create () = { bills = Hashtbl.create 64; since = Counters.create () }
let start t c = Counters.copy c ~into:t.since

(* [Hashtbl.find], not [find_opt]: a found bill costs no allocation. *)
let bill t ~tenant =
  try Hashtbl.find t.bills tenant
  with Not_found ->
    let b = Counters.create () in
    Hashtbl.replace t.bills tenant b;
    b

let charge t ~tenant c =
  Counters.accrue c ~since:t.since ~into:(bill t ~tenant)
