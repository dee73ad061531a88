(* Power-of-two-bucketed histogram.  Bucket 0 holds values <= 0;
   bucket i >= 1 holds values in [2^(i-1), 2^i - 1] — i.e. values with
   exactly i significant bits.  Percentiles are computed from the
   bucket counts alone, so they are deterministic functions of the
   observed multiset and independent of observation order. *)

let max_buckets = 63

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  {
    buckets = Array.make max_buckets 0;
    count = 0;
    sum = 0;
    vmin = max_int;
    vmax = min_int;
  }

let clear t =
  Array.fill t.buckets 0 max_buckets 0;
  t.count <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- min_int

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1
let bucket_lower i = if i <= 0 then min_int else 1 lsl (i - 1)

let observe t v =
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.vmin
let max_value t = if t.count = 0 then 0 else t.vmax

let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

(* The value reported for percentile [p] is the upper bound of the
   bucket holding the rank-⌈p/100·count⌉ observation, clamped to the
   observed maximum — an overestimate by at most 2x, and exactly the
   reference percentile whenever that bucket is the last occupied
   one. *)
let percentile t p =
  if t.count = 0 then 0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank && !i < max_buckets do
      cum := !cum + t.buckets.(!i);
      if !cum < rank then incr i
    done;
    let upper = bucket_upper !i in
    if upper > t.vmax then t.vmax else upper
  end

let merge_into ~dst src =
  if src.count > 0 then begin
    for i = 0 to max_buckets - 1 do
      dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
    done;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum + src.sum;
    if src.vmin < dst.vmin then dst.vmin <- src.vmin;
    if src.vmax > dst.vmax then dst.vmax <- src.vmax
  end

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

(* Raw state, for the checkpoint codec: every bucket count followed by
   the scalar accumulators.  [restore] is the exact inverse, so a
   dump/restore round-trip reproduces percentiles bit-for-bit. *)
let dump t =
  (Array.copy t.buckets, t.count, t.sum, t.vmin, t.vmax)

let restore t (buckets, count, sum, vmin, vmax) =
  if Array.length buckets <> max_buckets then
    invalid_arg "Histogram.restore: wrong bucket count";
  Array.blit buckets 0 t.buckets 0 max_buckets;
  t.count <- count;
  t.sum <- sum;
  t.vmin <- vmin;
  t.vmax <- vmax

let nonempty_buckets t =
  let acc = ref [] in
  for i = max_buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then
      acc := (bucket_lower i, bucket_upper i, t.buckets.(i)) :: !acc
  done;
  !acc
