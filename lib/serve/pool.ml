(* The parallel map.  Items are claimed by index through one atomic
   cursor and each result is written to its own slot, so workers share
   nothing but the cursor and the failure cell.  A failure closes the
   cursor (every later claim reads past the end), so the other workers
   stop after their current item. *)

let map ~workers f items =
  if workers < 1 then invalid_arg "Pool.map: workers < 1";
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n None in
  let cursor = Atomic.make 0 in
  let failure = Atomic.make None in
  let fail e =
    let bt = Printexc.get_raw_backtrace () in
    ignore (Atomic.compare_and_set failure None (Some (e, bt)));
    Atomic.set cursor n
  in
  let rec work w =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < n then
      match f w items.(i) with
      | y ->
          results.(i) <- Some y;
          work w
      | exception e -> fail e
  in
  let spawned = ref [] in
  (try
     for w = 1 to min workers n - 1 do
       spawned := Domain.spawn (fun () -> work w) :: !spawned
     done
   with e -> fail e);
  work 0;
  List.iter Domain.join !spawned;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> Array.to_list (Array.map Option.get results)
