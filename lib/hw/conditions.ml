let words = 23

let encode_ptr (p : Registers.ptr) =
  0
  |> Word.set_field ~pos:33 ~width:3 (Rings.Ring.to_int p.Registers.ring)
  |> Word.set_field ~pos:18 ~width:14 p.Registers.addr.Addr.segno
  |> Word.set_field ~pos:0 ~width:18 p.Registers.addr.Addr.wordno

let decode_ptr w =
  {
    Registers.ring = Rings.Ring.v (Word.field ~pos:33 ~width:3 w);
    addr =
      Addr.v
        ~segno:(Word.field ~pos:18 ~width:14 w)
        ~wordno:(Word.field ~pos:0 ~width:18 w);
  }

let store (regs : Registers.t) ~fault_code =
  let a = Array.make words 0 in
  a.(0) <-
    (0
    |> Word.set_field ~pos:14 ~width:21 regs.Registers.dbr.Registers.base
    |> Word.set_field ~pos:0 ~width:14 regs.Registers.dbr.Registers.bound);
  a.(1) <- regs.Registers.dbr.Registers.stack_base;
  a.(2) <- encode_ptr (Registers.ipr regs);
  for n = 0 to Registers.pr_count - 1 do
    a.(3 + n) <- encode_ptr (Registers.get_pr regs n)
  done;
  a.(11) <- regs.Registers.a;
  a.(12) <- regs.Registers.q;
  for n = 0 to 7 do
    a.(13 + n) <- regs.Registers.xs.(n)
  done;
  a.(21) <-
    (if regs.Registers.ind_zero then 1 else 0)
    lor if regs.Registers.ind_negative then 2 else 0;
  a.(22) <- fault_code;
  a

let load (regs : Registers.t) (a : Word.t array) =
  if Array.length a < words then invalid_arg "Conditions.load: short area";
  regs.Registers.dbr <-
    {
      Registers.base = Word.field ~pos:14 ~width:21 a.(0);
      bound = Word.field ~pos:0 ~width:14 a.(0);
      stack_base = Word.field ~pos:0 ~width:14 a.(1);
    };
  Registers.set_ipr regs (decode_ptr a.(2));
  for n = 0 to Registers.pr_count - 1 do
    Registers.set_pr regs n (decode_ptr a.(3 + n))
  done;
  regs.Registers.a <- a.(11);
  regs.Registers.q <- a.(12);
  for n = 0 to 7 do
    regs.Registers.xs.(n) <- a.(13 + n) land ((1 lsl 18) - 1)
  done;
  regs.Registers.ind_zero <- a.(21) land 1 = 1;
  regs.Registers.ind_negative <- a.(21) land 2 = 2;
  a.(22)
