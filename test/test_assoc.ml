(* The generic bounded LRU associative memory underneath the host-side
   SDW cache, PTW TLB and decoded-instruction cache. *)

let find_exn c k =
  match Hw.Assoc.find c k with
  | v -> v
  | exception Not_found -> Alcotest.failf "key %d unexpectedly absent" k

(* [find] as an option, for comparing against expected contents. *)
let find c k =
  match Hw.Assoc.find c k with v -> Some v | exception Not_found -> None

let keys c = List.sort compare (Hw.Assoc.fold (fun k _ acc -> k :: acc) c [])

let test_create () =
  let c : (int, string) Hw.Assoc.t = Hw.Assoc.create ~capacity:4 () in
  Alcotest.(check int) "capacity" 4 (Hw.Assoc.capacity c);
  Alcotest.(check int) "empty" 0 (Hw.Assoc.length c);
  Alcotest.(check bool) "negative capacity rejected" true
    (try
       ignore (Hw.Assoc.create ~capacity:(-1) () : (int, int) Hw.Assoc.t);
       false
     with Invalid_argument _ -> true)

let test_find_insert () =
  let c = Hw.Assoc.create ~capacity:4 () in
  Alcotest.(check (option string)) "miss on empty" None (find c 1);
  Alcotest.(check (option (pair int string)))
    "insert under capacity evicts nothing" None
    (Hw.Assoc.insert c 1 "one");
  Alcotest.(check string) "hit" "one" (find_exn c 1);
  ignore (Hw.Assoc.insert c 1 "uno");
  Alcotest.(check string) "insert replaces" "uno" (find_exn c 1);
  Alcotest.(check int) "replacement keeps one entry" 1 (Hw.Assoc.length c)

let test_eviction_order () =
  let c = Hw.Assoc.create ~capacity:3 () in
  ignore (Hw.Assoc.insert c 1 "a");
  ignore (Hw.Assoc.insert c 2 "b");
  ignore (Hw.Assoc.insert c 3 "c");
  Alcotest.(check (option (pair int string)))
    "oldest entry evicted at capacity"
    (Some (1, "a"))
    (Hw.Assoc.insert c 4 "d");
  Alcotest.(check int) "still at capacity" 3 (Hw.Assoc.length c);
  Alcotest.(check (list int)) "survivors" [ 2; 3; 4 ] (keys c)

let test_find_refreshes_recency () =
  let c = Hw.Assoc.create ~capacity:3 () in
  ignore (Hw.Assoc.insert c 1 "a");
  ignore (Hw.Assoc.insert c 2 "b");
  ignore (Hw.Assoc.insert c 3 "c");
  (* Touch the oldest: the eviction victim must now be key 2. *)
  ignore (find c 1);
  Alcotest.(check (option (pair int string)))
    "LRU after touch" (Some (2, "b"))
    (Hw.Assoc.insert c 4 "d");
  (* [mem] must not refresh: key 3 is now oldest despite the probe. *)
  Alcotest.(check bool) "mem sees 3" true (Hw.Assoc.mem c 3);
  Alcotest.(check (option (pair int string)))
    "mem does not touch recency" (Some (3, "c"))
    (Hw.Assoc.insert c 5 "e")

let test_remove_drop_clear () =
  let c = Hw.Assoc.create ~capacity:8 () in
  List.iter (fun k -> ignore (Hw.Assoc.insert c k (string_of_int k)))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "remove present" true (Hw.Assoc.remove c 3);
  Alcotest.(check bool) "remove absent" false (Hw.Assoc.remove c 3);
  Alcotest.(check int) "drop evens" 2
    (Hw.Assoc.drop_where c (fun k _ -> k mod 2 = 0));
  Alcotest.(check (list int)) "odds survive" [ 1; 5 ] (keys c);
  Hw.Assoc.clear c;
  Alcotest.(check int) "cleared" 0 (Hw.Assoc.length c);
  (* A removed key's node must not leak back through recency links. *)
  ignore (Hw.Assoc.insert c 9 "nine");
  Alcotest.(check string) "usable after clear" "nine" (find_exn c 9)

let test_stats () =
  let c = Hw.Assoc.create ~capacity:2 () in
  ignore (find c 1);
  ignore (Hw.Assoc.insert c 1 "a");
  ignore (find c 1);
  ignore (Hw.Assoc.insert c 2 "b");
  ignore (Hw.Assoc.insert c 3 "c");
  ignore (Hw.Assoc.remove c 2);
  let s = Hw.Assoc.stats c in
  Alcotest.(check int) "hits" 1 s.Hw.Assoc.hits;
  Alcotest.(check int) "misses" 1 s.Hw.Assoc.misses;
  Alcotest.(check int) "evictions" 1 s.Hw.Assoc.evictions;
  Alcotest.(check int) "invalidations" 1 s.Hw.Assoc.invalidations;
  Hw.Assoc.reset_stats c;
  let s = Hw.Assoc.stats c in
  Alcotest.(check int) "reset hits" 0 s.Hw.Assoc.hits;
  Alcotest.(check int) "reset misses" 0 s.Hw.Assoc.misses

(* Capacity 1: every insert of a new key must evict the sole occupant,
   and the recency machinery must keep working with head = tail. *)
let test_capacity_one () =
  let c = Hw.Assoc.create ~capacity:1 () in
  Alcotest.(check (option (pair int string)))
    "first insert evicts nothing" None
    (Hw.Assoc.insert c 1 "a");
  Alcotest.(check string) "resident" "a" (find_exn c 1);
  ignore (Hw.Assoc.insert c 1 "a2");
  Alcotest.(check string) "replace in place" "a2" (find_exn c 1);
  Alcotest.(check int) "still one entry" 1 (Hw.Assoc.length c);
  Alcotest.(check (option (pair int string)))
    "second key evicts the first"
    (Some (1, "a2"))
    (Hw.Assoc.insert c 2 "b");
  Alcotest.(check (option string)) "old key gone" None (find c 1);
  Alcotest.(check string) "new key resident" "b" (find_exn c 2);
  Alcotest.(check (option (pair int string)))
    "and again" (Some (2, "b"))
    (Hw.Assoc.insert c 3 "c");
  Alcotest.(check (list int)) "only the newest survives" [ 3 ] (keys c);
  Alcotest.(check bool) "remove drains to empty" true (Hw.Assoc.remove c 3);
  Alcotest.(check int) "empty again" 0 (Hw.Assoc.length c);
  ignore (Hw.Assoc.insert c 4 "d");
  Alcotest.(check string) "usable after drain" "d" (find_exn c 4)

(* Capacity 0: caching disabled.  Every find misses, every insert
   bounces straight back as the eviction, and invalidation entry
   points stay callable. *)
let test_capacity_zero () =
  let c = Hw.Assoc.create ~capacity:0 () in
  Alcotest.(check int) "capacity zero" 0 (Hw.Assoc.capacity c);
  Alcotest.(check (option string)) "find always misses" None
    (find c 1);
  Alcotest.(check (option (pair int string)))
    "insert bounces the pair back"
    (Some (1, "one"))
    (Hw.Assoc.insert c 1 "one");
  Alcotest.(check int) "nothing retained" 0 (Hw.Assoc.length c);
  Alcotest.(check (option string)) "still a miss" None (find c 1);
  Alcotest.(check bool) "mem is false" false (Hw.Assoc.mem c 1);
  Alcotest.(check bool) "remove finds nothing" false (Hw.Assoc.remove c 1);
  Alcotest.(check int) "drop_where drops nothing" 0
    (Hw.Assoc.drop_where c (fun _ _ -> true));
  Hw.Assoc.clear c;
  let s = Hw.Assoc.stats c in
  Alcotest.(check int) "both finds counted as misses" 2 s.Hw.Assoc.misses;
  Alcotest.(check int) "no hits" 0 s.Hw.Assoc.hits;
  Alcotest.(check int) "bounced insert counted as eviction" 1
    s.Hw.Assoc.evictions;
  Alcotest.(check int) "nothing to invalidate" 0 s.Hw.Assoc.invalidations

(* The SDW cache, PTW TLB and icache are probed on every memo miss of
   the interpreter, so a probe may not allocate: [Gc.minor_words] over
   10k hits and 10k misses reads exactly zero. *)
let test_probe_allocates_nothing () =
  let c = Hw.Assoc.create ~capacity:64 () in
  for k = 0 to 63 do
    ignore (Hw.Assoc.insert c k k)
  done;
  let words probe =
    let before = Gc.minor_words () in
    for i = 0 to 9_999 do
      probe i
    done;
    Gc.minor_words () -. before
  in
  let hits =
    words (fun i -> ignore (Sys.opaque_identity (Hw.Assoc.find c (i land 63))))
  in
  let misses =
    words (fun i ->
        match Hw.Assoc.find c (64 + i) with
        | v -> ignore (Sys.opaque_identity v)
        | exception Not_found -> ())
  in
  Alcotest.(check (float 0.)) "minor words over 10k hits" 0. hits;
  Alcotest.(check (float 0.)) "minor words over 10k misses" 0. misses;
  let s = Hw.Assoc.stats c in
  Alcotest.(check (pair int int)) "every probe counted" (10_000, 10_000)
    (s.Hw.Assoc.hits, s.Hw.Assoc.misses)

(* Exercise the intrusive list against a reference model under random
   operations: contents must match an LRU simulated with plain
   lists. *)
let prop_matches_reference_model =
  QCheck.Test.make ~name:"assoc matches reference LRU model" ~count:200
    QCheck.(list (pair (int_bound 15) (int_bound 3)))
    (fun ops ->
      let capacity = 4 in
      let c = Hw.Assoc.create ~capacity () in
      (* Reference: association list, most recent first. *)
      let model = ref [] in
      List.iter
        (fun (k, op) ->
          match op with
          | 0 ->
              ignore (Hw.Assoc.insert c k k);
              model := (k, k) :: List.remove_assoc k !model;
              if List.length !model > capacity then
                model :=
                  List.filteri (fun i _ -> i < capacity) !model
          | 1 ->
              let expected = List.assoc_opt k !model in
              if find c k <> expected then
                QCheck.Test.fail_report "find disagrees with model";
              if expected <> None then
                model := (k, k) :: List.remove_assoc k !model
          | 2 ->
              ignore (Hw.Assoc.remove c k);
              model := List.remove_assoc k !model
          | _ ->
              if Hw.Assoc.mem c k <> List.mem_assoc k !model then
                QCheck.Test.fail_report "mem disagrees with model")
        ops;
      List.length !model = Hw.Assoc.length c
      && List.for_all (fun (k, v) -> find c k = Some v) !model)

let suite =
  [
    ( "assoc",
      [
        Alcotest.test_case "create" `Quick test_create;
        Alcotest.test_case "find/insert" `Quick test_find_insert;
        Alcotest.test_case "eviction order" `Quick test_eviction_order;
        Alcotest.test_case "find refreshes recency" `Quick
          test_find_refreshes_recency;
        Alcotest.test_case "remove/drop_where/clear" `Quick
          test_remove_drop_clear;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "capacity 1 edge" `Quick test_capacity_one;
        Alcotest.test_case "capacity 0 disables caching" `Quick
          test_capacity_zero;
        QCheck_alcotest.to_alcotest prop_matches_reference_model;
        Alcotest.test_case "a probe allocates nothing" `Quick
          test_probe_allocates_nothing;
      ] );
  ]
