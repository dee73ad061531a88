type t = { ring : Rings.Ring.t; indirect : bool; addr : Hw.Addr.t }

let v ?(indirect = false) ~ring ~segno ~wordno () =
  { ring = Rings.Ring.v ring; indirect; addr = Hw.Addr.v ~segno ~wordno }

let of_ptr ?(indirect = false) (p : Hw.Registers.ptr) =
  { ring = p.ring; indirect; addr = p.addr }

let to_ptr t : Hw.Registers.ptr = { ring = t.ring; addr = t.addr }

let encode_parts ~ring ~indirect ~segno ~wordno =
  0
  |> Hw.Word.set_field ~pos:33 ~width:3 (Rings.Ring.to_int ring)
  |> Hw.Word.set_field ~pos:32 ~width:1 (if indirect then 1 else 0)
  |> Hw.Word.set_field ~pos:18 ~width:14 segno
  |> Hw.Word.set_field ~pos:0 ~width:18 wordno

let encode t =
  encode_parts ~ring:t.ring ~indirect:t.indirect ~segno:t.addr.Hw.Addr.segno
    ~wordno:t.addr.Hw.Addr.wordno

let ring_field w = Rings.Ring.v (Hw.Word.field ~pos:33 ~width:3 w)
let indirect_field w = Hw.Word.field ~pos:32 ~width:1 w = 1
let segno_field w = Hw.Word.field ~pos:18 ~width:14 w
let wordno_field w = Hw.Word.field ~pos:0 ~width:18 w

let decode w =
  {
    ring = ring_field w;
    indirect = indirect_field w;
    addr = Hw.Addr.v ~segno:(segno_field w) ~wordno:(wordno_field w);
  }

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "IND{%a %a%s}" Rings.Ring.pp t.ring Hw.Addr.pp t.addr
    (if t.indirect then ",*" else "")
