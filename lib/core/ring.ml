type t = int

let count = 8

let v n =
  if n < 0 || n >= count then
    invalid_arg (Printf.sprintf "Ring.v: %d not in [0, %d)" n count)
  else n

let of_int_opt n = if n < 0 || n >= count then None else Some n
let to_int n = n
let r0 = 0
let lowest_privilege = count - 1
let all = List.init count Fun.id
let compare = Int.compare
let equal = Int.equal
(* Annotated int comparisons: [Stdlib.max] and an unannotated [<] are
   polymorphic and compare through a C call, on every PR-relative or
   indirect operand. *)
let max (a : t) (b : t) = if a >= b then a else b
let min (a : t) (b : t) = if a <= b then a else b
let more_privileged (a : t) ~than:(b : t) = a < b
let succ n = if n + 1 >= count then None else Some (n + 1)
let pred n = if n = 0 then None else Some (n - 1)
let pp ppf n = Format.fprintf ppf "r%d" n
