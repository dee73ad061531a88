(* Bounded LRU: a hash table from key to an intrusive doubly-linked
   node, plus a circular sentinel ordering nodes from most to least
   recently used.  Lookup, insert and evict are all O(1). *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node;
  mutable next : ('k, 'v) node;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable sentinel : ('k, 'v) node option;
      (* Lazily created on first insert: a node needs a key/value to
         exist, and ['k]/['v] have no default. [sentinel.next] is the
         most recently used node, [sentinel.prev] the least. *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~capacity () =
  if capacity < 0 then invalid_arg "Assoc.create: capacity < 0";
  {
    capacity;
    table = Hashtbl.create (max 1 (min capacity 64));
    sentinel = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let link_front sentinel node =
  node.next <- sentinel.next;
  node.prev <- sentinel;
  sentinel.next.prev <- node;
  sentinel.next <- node

(* A probe allocates nothing: no option on either path, and a miss is
   re-raised without a backtrace. *)
let find t k =
  match Hashtbl.find t.table k with
  | exception Not_found ->
      t.misses <- t.misses + 1;
      raise_notrace Not_found
  | node ->
      t.hits <- t.hits + 1;
      (match t.sentinel with
      | Some s when s.next != node ->
          unlink node;
          link_front s node
      | _ -> ());
      node.value

let mem t k = Hashtbl.mem t.table k

let insert t k v =
  (* A zero-capacity cache holds nothing: the inserted pair is itself
     the evicted one, so callers can treat "caching disabled" exactly
     like capacity pressure (release the value, count the eviction)
     without a special case of their own. *)
  if t.capacity = 0 then begin
    t.evictions <- t.evictions + 1;
    Some (k, v)
  end
  else
  match Hashtbl.find_opt t.table k with
  | Some node ->
      node.value <- v;
      (match t.sentinel with
      | Some s when s.next != node ->
          unlink node;
          link_front s node
      | _ -> ());
      None
  | None ->
      let s =
        match t.sentinel with
        | Some s -> s
        | None ->
            (* The sentinel's key/value are never read; borrow this
               insert's. *)
            let rec s = { key = k; value = v; prev = s; next = s } in
            t.sentinel <- Some s;
            s
      in
      let evicted =
        if Hashtbl.length t.table >= t.capacity then begin
          let lru = s.prev in
          unlink lru;
          Hashtbl.remove t.table lru.key;
          t.evictions <- t.evictions + 1;
          Some (lru.key, lru.value)
        end
        else None
      in
      let node = { key = k; value = v; prev = s; next = s } in
      link_front s node;
      Hashtbl.replace t.table k node;
      evicted

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> false
  | Some node ->
      unlink node;
      Hashtbl.remove t.table k;
      t.invalidations <- t.invalidations + 1;
      true

let drop_where t f =
  let doomed =
    Hashtbl.fold
      (fun k node acc -> if f k node.value then node :: acc else acc)
      t.table []
  in
  List.iter
    (fun node ->
      unlink node;
      Hashtbl.remove t.table node.key;
      t.invalidations <- t.invalidations + 1)
    doomed;
  List.length doomed

let clear t =
  t.invalidations <- t.invalidations + Hashtbl.length t.table;
  Hashtbl.reset t.table;
  t.sentinel <- None

let fold f t acc =
  Hashtbl.fold (fun k node acc -> f k node.value acc) t.table acc

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
  }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.invalidations <- 0
