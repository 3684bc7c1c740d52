(** Per-layer attribution of a traced run.

    The traced run records one span tree on the main domain's track:
    the benchmark's own spans around each call into a layer, and the
    spans the program records itself when handed an enabled [Obs.ctx]
    (analysis, the CEGIS search with its grammar and verifier phases,
    cost pruning, source emission, engine stages). A span's self time is
    its duration minus its children's; every span belongs to one layer
    row, and the root's self time is the [unattributed] row, so the rows
    sum to the root's duration exactly. *)

module Obs = Casper_obs.Obs

(** Engine stage labels the plan compiler emits (Compile.compile_node),
    one [engine.stage.<label>_s] row each. *)
let stage_labels =
  [ "flatMapToPair"; "reduceByKey"; "groupByKey"; "foldValues"; "reduce"; "join" ]

(** Layer rows, in report order. *)
let rows =
  [
    "minijava.parse"; "analysis.fragments"; "core.translate_self";
    "synth.grammar"; "synth.search_self"; "verify.bounded"; "verify.full";
    "cost.prune"; "codegen.emit"; "codegen.compile_plan"; "runner.datasets";
    "runner.self"; "engine.run_plan"; "engine.cache"; "engine.spill_merge";
  ]
  @ List.map (fun l -> "engine.stage." ^ l) stage_labels
  @ [
      "exec.submit"; "exec.wait"; "exec.shutdown"; "bench.setup";
      "bench.reference"; "bench.check"; "unattributed";
    ]

(** The layer row a span's self time belongs to. [in_engine] is true
    below an [engine.run_plan] span, where every other span is a stage. *)
let row_of ~in_engine (name : string) : string =
  match name with
  | "bench.run" -> "unattributed"
  | "minijava.parse" -> "minijava.parse"
  | "analysis" -> "analysis.fragments"
  | "casper.translate_fragment" | "fragment" -> "core.translate_self"
  | "synthesis" | "class" | "round" -> "synth.search_self"
  | "grammar" -> "synth.grammar"
  | "bounded-verify" -> "verify.bounded"
  | "full-verify" -> "verify.full"
  | "cost-prune" -> "cost.prune"
  | "codegen" -> "codegen.emit"
  | "codegen.compile_plan" -> "codegen.compile_plan"
  | "runner.datasets" -> "runner.datasets"
  | "runner.run_summary" -> "runner.self"
  | "engine.run_plan" -> "engine.run_plan"
  | "engine.cache" -> "engine.cache"
  | "spill.merge" -> "engine.spill_merge"
  | "exec.submit" -> "exec.submit"
  | "exec.wait" -> "exec.wait"
  | "exec.shutdown" | "exec.session" -> "exec.shutdown"
  | "bench.setup" -> "bench.setup"
  | "bench.reference" -> "bench.reference"
  | "bench.check" -> "bench.check"
  | l when in_engine && List.mem l stage_labels -> "engine.stage." ^ l
  | other -> failwith ("perfbench: span without a layer row: " ^ other)

(** The GC bucket of a layer row: synth, verify, runner (with plan
    compilation), engine (a served job's engine work included: the
    concurrency-1 session traces its engine spans), exec and everything
    else. *)
let gc_layer (row : string) : string =
  match String.index_opt row '.' with
  | Some i -> (
      match String.sub row 0 i with
      | "synth" -> "synth"
      | "verify" -> "verify"
      | "runner" -> "runner"
      | "codegen" when row = "codegen.compile_plan" -> "runner"
      | "engine" -> "engine"
      | "exec" -> "exec"
      | _ -> "other")
  | None -> "other"

let gc_layers = [ "synth"; "verify"; "runner"; "engine"; "exec"; "other" ]

type gc = { mutable minor : int; mutable promoted : int; mutable major : int }

type table = {
  wall_s : float;  (** the root span's duration *)
  self_s : (string * float) list;  (** per row, in {!rows} order *)
  gc : (string * gc) list;  (** per GC bucket *)
  spans : (string * int) list;  (** span count per program span name *)
}

(** Attribute [root] (a span on the main track) and the GC [samples]
    falling inside it. Spans on other tracks (per-domain workers, the
    session's per-job track) overlap the main track in time and are
    left out of the sums. *)
let attribute (root : Obs.view) (samples : Gcev.sample array) : table =
  let self = Hashtbl.create 32 in
  let gcs = List.map (fun l -> (l, { minor = 0; promoted = 0; major = 0 })) gc_layers in
  let counts = Hashtbl.create 32 in
  let n = Array.length samples in
  (* first sample index with [at >= t] *)
  let lower t =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if samples.(mid).Gcev.at < t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let add_gc row i j =
    let g = List.assoc (gc_layer row) gcs in
    for k = i to j - 1 do
      let s = samples.(k) in
      g.minor <- g.minor + s.Gcev.minor_words;
      g.promoted <- g.promoted + s.Gcev.promoted_words;
      g.major <- g.major + s.Gcev.major_cycles
    done
  in
  let rec walk ~in_engine (v : Obs.view) =
    let row = row_of ~in_engine v.Obs.v_name in
    Hashtbl.replace counts v.Obs.v_name
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts v.Obs.v_name));
    let kids =
      List.filter (fun c -> c.Obs.v_track = v.Obs.v_track) v.Obs.v_children
    in
    let in_engine' = in_engine || v.Obs.v_name = "engine.run_plan" in
    let kids_s =
      List.fold_left (fun a c -> a +. (c.Obs.v_t1 -. c.Obs.v_t0)) 0.0 kids
    in
    let s = v.Obs.v_t1 -. v.Obs.v_t0 -. kids_s in
    Hashtbl.replace self row
      (s +. Option.value ~default:0.0 (Hashtbl.find_opt self row));
    (* samples inside this span but outside every child are its own *)
    let cursor = ref (lower v.Obs.v_t0) in
    List.iter
      (fun c ->
        let c0 = lower c.Obs.v_t0 in
        if c0 > !cursor then add_gc row !cursor c0;
        walk ~in_engine:in_engine' c;
        cursor := max !cursor (lower c.Obs.v_t1))
      kids;
    let stop = lower v.Obs.v_t1 in
    if stop > !cursor then add_gc row !cursor stop
  in
  walk ~in_engine:false root;
  {
    wall_s = root.Obs.v_t1 -. root.Obs.v_t0;
    self_s =
      List.map
        (fun r -> (r, Option.value ~default:0.0 (Hashtbl.find_opt self r)))
        rows;
    gc = gcs;
    spans = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [];
  }

let span_count (t : table) name =
  Option.value ~default:0 (List.assoc_opt name t.spans)

(** Human-readable per-layer table: self time, share of the wall time,
    and the GC samples attributed to each row's bucket. *)
let print (t : table) ~(traced_s : float) ~(untraced_s : float) : unit =
  Printf.printf
    "per-layer self time over the traced run (wall %.3f s); set-up + timed \
     loop took %.3f s traced, %.3f s untraced: tracing overhead %+.3f s\n"
    t.wall_s traced_s untraced_s (traced_s -. untraced_s);
  Printf.printf "  %-28s %10s %7s\n" "layer" "self_s" "share";
  let sum = ref 0.0 in
  List.iter
    (fun (r, s) ->
      sum := !sum +. s;
      if s > 0.0 || r = "unattributed" then
        Printf.printf "  %-28s %10.4f %6.1f%%\n" r s (100.0 *. s /. t.wall_s))
    t.self_s;
  Printf.printf "  %-28s %10.4f %6.1f%%\n" "sum of rows" !sum
    (100.0 *. !sum /. t.wall_s);
  Printf.printf "  %-10s %14s %14s %8s\n" "gc bucket" "minor_words" "promoted_words" "majors";
  List.iter
    (fun (l, g) ->
      Printf.printf "  %-10s %14d %14d %8d\n" l g.minor g.promoted g.major)
    t.gc
