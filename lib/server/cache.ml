module Ecq = Ac_query.Ecq
module Json = Ac_analysis.Json
module Metrics = Ac_obs.Metrics

type stats = {
  capacity : int;
  length : int;
  hits : int;
  misses : int;
  evictions : int;
}

module Lru = struct
  (* Recency is an intrusive doubly-linked list through the entries,
     most recent at [head]: a hit or an add moves its entry to the
     head, and eviction unlinks [tail] — O(1) each, and the same victim
     a scan for the oldest use would pick. *)
  type 'a entry = {
    key : string;
    mutable value : 'a;
    mutable newer : 'a entry option;
    mutable older : 'a entry option;
  }

  (* Per-instance counters stay exact under the instance mutex (the
     [stats] contract); named caches additionally mirror every event to
     the process-wide metrics registry, where the [cache] label keeps
     the plan and result caches apart on the METRICS surface. *)
  type meters = {
    m_hits : Metrics.counter;
    m_misses : Metrics.counter;
    m_evictions : Metrics.counter;
    m_entries : Metrics.gauge;
  }

  type 'a t = {
    capacity : int;
    table : (string, 'a entry) Hashtbl.t;
    mutex : Mutex.t;
    meters : meters option;
    mutable head : 'a entry option; (* most recently used *)
    mutable tail : 'a entry option; (* least recently used *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ?name ~capacity () =
    if capacity < 0 then invalid_arg "Cache.Lru.create: negative capacity";
    let meters =
      Option.map
        (fun name ->
          let labels = [ ("cache", name) ] in
          {
            m_hits =
              Metrics.counter Metrics.global "acq_cache_hits_total" ~labels
                ~help:"Cache lookups that hit";
            m_misses =
              Metrics.counter Metrics.global "acq_cache_misses_total" ~labels
                ~help:"Cache lookups that missed";
            m_evictions =
              Metrics.counter Metrics.global "acq_cache_evictions_total"
                ~labels ~help:"Entries evicted to make room";
            m_entries =
              Metrics.gauge Metrics.global "acq_cache_entries" ~labels
                ~help:"Entries currently cached";
          })
        name
    in
    {
      capacity;
      table = Hashtbl.create (max 16 capacity);
      mutex = Mutex.create ();
      meters;
      head = None;
      tail = None;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let meter t f = match t.meters with None -> () | Some m -> f m

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let unlink t e =
    (match e.newer with Some n -> n.older <- e.older | None -> t.head <- e.older);
    (match e.older with Some o -> o.newer <- e.newer | None -> t.tail <- e.newer);
    e.newer <- None;
    e.older <- None

  let push_head t e =
    e.older <- t.head;
    (match t.head with Some h -> h.newer <- Some e | None -> t.tail <- Some e);
    t.head <- Some e

  let touch t e =
    unlink t e;
    push_head t e

  let find t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some entry ->
            touch t entry;
            t.hits <- t.hits + 1;
            meter t (fun m -> Metrics.incr m.m_hits);
            Some entry.value
        | None ->
            t.misses <- t.misses + 1;
            meter t (fun m -> Metrics.incr m.m_misses);
            None)

  let add t key value =
    if t.capacity > 0 then
      locked t (fun () ->
          (match Hashtbl.find_opt t.table key with
          | Some entry ->
              entry.value <- value;
              touch t entry
          | None ->
              (match t.tail with
              | Some victim when Hashtbl.length t.table >= t.capacity ->
                  unlink t victim;
                  Hashtbl.remove t.table victim.key;
                  t.evictions <- t.evictions + 1;
                  meter t (fun m -> Metrics.incr m.m_evictions)
              | _ -> ());
              let entry = { key; value; newer = None; older = None } in
              Hashtbl.replace t.table key entry;
              push_head t entry);
          meter t (fun m -> Metrics.set m.m_entries (Hashtbl.length t.table)))

  let stats t =
    locked t (fun () ->
        {
          capacity = t.capacity;
          length = Hashtbl.length t.table;
          hits = t.hits;
          misses = t.misses;
          evictions = t.evictions;
        })
end

let stats_to_json s =
  Json.Obj
    [
      ("capacity", Json.Int s.capacity);
      ("length", Json.Int s.length);
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("evictions", Json.Int s.evictions);
    ]

(* Version-precise invalidation: the db component of every cache key is
   (rolling fingerprint @ version). A mutation bumps both, so entries
   cached against the old state simply stop being referenced — no
   scanning, no flush — and re-querying a db at the same version hits
   again. *)
let db_key ~fingerprint ~version = Printf.sprintf "%s@%d" fingerprint version

let plan_key ~db_fingerprint q =
  Printf.sprintf "plan|%s|%s" db_fingerprint (Ecq.key q)

let result_key ~db_fingerprint ~eps ~delta ~method_name ~seed q =
  (* floats in hex: the key must distinguish every representable
     accuracy target, not just six significant digits *)
  Printf.sprintf "result|%s|%h|%h|%s|%d|%s" db_fingerprint eps delta
    method_name seed (Ecq.key q)
