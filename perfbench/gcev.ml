(** GC accounting from the OCaml runtime's event ring ([runtime_events]).

    Every domain of the process (the main domain and every pool worker)
    writes its minor-collection counters into its own ring. A reader
    thread drains the rings while the traced run executes, so nothing is
    overwritten, and each sample is placed on the wall clock through
    sync events the benchmark writes into the main domain's ring.

    A sample is one minor collection of one domain: the words that
    domain allocated on its minor heap since its previous collection,
    and the words promoted. Attributing a sample to the span open when
    the collection ran samples allocation in proportion to where it
    happened; summed over a run, the samples equal [Gc.quick_stat]'s
    totals exactly. Major cycles are counted once per cycle (ring 0). *)

module RE = Runtime_events

type RE.User.tag += Sync

let sync_ev = RE.User.register "perfbench.sync" Sync RE.Type.int

type sample = {
  at : float;  (** wall-clock seconds *)
  minor_words : int;
  promoted_words : int;
  major_cycles : int;
}

type t = {
  cursor : RE.cursor;
  lock : Mutex.t;
  mutable raw : (int64 * int * int * int) list;
      (** ns timestamp, minor words, promoted words, major cycles *)
  mutable syncs : (int * int64) list;  (** sync id → ns timestamp *)
  mutable walls : (int * float) list;  (** sync id → wall seconds *)
  mutable next_sync : int;
  mutable lost : int;
  mutable stop : bool;
  mutable reader : Thread.t option;
}

let callbacks (t : t) : RE.Callbacks.t =
  let push ts m p c =
    t.raw <- (RE.Timestamp.to_int64 ts, m, p, c) :: t.raw
  in
  RE.Callbacks.create
    ~runtime_counter:(fun _ring ts counter v ->
      match counter with
      | RE.EV_C_MINOR_ALLOCATED -> push ts (v / 8) 0 0
      | RE.EV_C_MINOR_PROMOTED -> push ts 0 (v / 8) 0
      | _ -> ())
    ~runtime_begin:(fun ring ts phase ->
      (* every domain enters this phase once per completed cycle *)
      match phase with
      | RE.EV_MAJOR_GC_CYCLE_DOMAINS when ring = 0 -> push ts 0 0 1
      | _ -> ())
    ~lost_events:(fun _ n -> t.lost <- t.lost + n)
    ()
  |> RE.Callbacks.add_user_event RE.Type.int (fun _ ts ev v ->
         if RE.User.name ev = RE.User.name sync_ev then
           t.syncs <- (v, RE.Timestamp.to_int64 ts) :: t.syncs)

let poll (t : t) (cb : RE.Callbacks.t) : unit =
  Mutex.protect t.lock (fun () -> ignore (RE.read_poll t.cursor cb None : int))

(** Write one sync event and remember the wall time it was written at. *)
let sync (t : t) : unit =
  let id = t.next_sync in
  t.next_sync <- id + 1;
  let w0 = Unix.gettimeofday () in
  RE.User.write sync_ev id;
  let w1 = Unix.gettimeofday () in
  Mutex.protect t.lock (fun () -> t.walls <- (id, (w0 +. w1) /. 2.0) :: t.walls)

(** Start collecting (the ring file lives in [OCAML_RUNTIME_EVENTS_DIR]). *)
let start () : t =
  RE.start ();
  let t =
    {
      cursor = RE.create_cursor None;
      lock = Mutex.create ();
      raw = [];
      syncs = [];
      walls = [];
      next_sync = 0;
      lost = 0;
      stop = false;
      reader = None;
    }
  in
  let cb = callbacks t in
  poll t cb;
  (* drop whatever the rings held before this point *)
  Mutex.protect t.lock (fun () -> t.raw <- []);
  sync t;
  t.reader <-
    Some
      (Thread.create
         (fun () ->
           while not t.stop do
             poll t cb;
             Thread.delay 0.005
           done;
           poll t cb)
         ());
  t

(** Stop the reader and return the samples in wall-clock order. Fails
    when the rings overflowed, since the counts would then be short. *)
let stop (t : t) : sample array =
  sync t;
  (* the reader's last poll must see the final sync event *)
  t.stop <- true;
  Option.iter Thread.join t.reader;
  RE.pause ();
  if t.lost > 0 then
    failwith (Printf.sprintf "runtime_events lost %d events" t.lost);
  (* wall = a + b·ns, fitted through the first and last sync pair *)
  let pair id =
    match (List.assoc_opt id t.syncs, List.assoc_opt id t.walls) with
    | Some ns, Some w -> (Int64.to_float ns, w)
    | _ -> failwith "runtime_events: sync event not seen"
  in
  let n0, w0 = pair 0 and n1, w1 = pair (t.next_sync - 1) in
  let b = if n1 > n0 then (w1 -. w0) /. (n1 -. n0) else 1e-9 in
  let to_wall ns = w0 +. (b *. (Int64.to_float ns -. n0)) in
  let a =
    Array.of_list
      (List.rev_map
         (fun (ns, m, p, c) ->
           {
             at = to_wall ns;
             minor_words = m;
             promoted_words = p;
             major_cycles = c;
           })
         t.raw)
  in
  Array.stable_sort (fun x y -> Float.compare x.at y.at) a;
  a
