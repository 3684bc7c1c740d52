(** The repository benchmark: MiniJava source → verified summary →
    engine output, plus a served job stream.

    [perfbench --workload W --seed N --seconds S --trace 0|1 --tmp DIR]
    runs one workload and prints, as its last line, one JSON object with
    the keys [correct], [attempted], [failed] and [metrics]. With
    [--trace 0] the metrics are the end-to-end ones, measured untraced;
    with [--trace 1] the untraced run is followed by one traced
    repetition whose spans give the per-layer metrics. The lines before
    the result describe the host, the pinned configuration, any failed
    operation and (traced) the per-layer table. perfbench/METRICS.md
    explains every metric and which layer moves it. *)

module F = Casper_analysis.Fragment
module Analyze = Casper_analysis.Analyze
module Cegis = Casper_synth.Cegis
module Casper = Casper_core.Casper
module Runner = Casper_codegen.Runner
module Compile = Casper_codegen.Compile
module Vc = Casper_vcgen.Vc
module Ir = Casper_ir.Lang
module Value = Casper_common.Value
module Rng = Casper_common.Rng
module Obs = Casper_obs.Obs
module Par = Casper_par.Par
module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster
module Exec = Casper_exec.Exec
module Suite = Casper_suites.Suite
module Registry = Casper_suites.Registry

(** CPU time of the calling thread, seconds ([CLOCK_THREAD_CPUTIME_ID]). *)
external thread_cpu_s : unit -> (float[@unboxed])
  = "perfbench_thread_cpu_s" "perfbench_thread_cpu_s_unboxed"
[@@noalloc]

(** The clock every timing is read on: the main thread's CPU time. Each
    workload runs the program on the main domain alone (a pool of one,
    a concurrency-1 session the main domain drives), so this clock
    advances exactly while the program works, garbage collection
    included. On a dedicated idle host it reads as wall time; on a
    shared virtual machine it leaves out the time the hypervisor gives
    the virtual CPU to other guests (steal), which wall time counts and
    which varies from run to run. *)
let clock = thread_cpu_s

(** Wall time: only for the cap on a run's length. *)
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(** Linear interpolation between closest ranks. *)
let quantile (q : float) (xs : float list) : float =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i + 1 >= n then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

let geomean (xs : float list) : float =
  exp (sum (List.map log xs) /. float_of_int (List.length xs))

(** Peak resident set of this process, MB ([VmHWM]). *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      go ())

(* ------------------------------------------------------------------ *)
(* Run context: the pinned configuration and the failure ledger       *)

type size = {
  sample_n : int option;  (** execute-suites input size; None = suite's own *)
  serve_n : int;  (** records per serve-mixed dataset *)
  serve_datasets : int;  (** datasets per serve-mixed fragment *)
  setups : int;  (** set-up repetitions behind [setup_s] *)
  suites : string list option;  (** None = all seven *)
}

let full_size =
  {
    sample_n = None;
    serve_n = 8_000;
    serve_datasets = 8;
    setups = 3;
    suites = None;
  }

(** The smoke test's size: two suites, small inputs, one set-up. *)
let tiny_size =
  {
    sample_n = Some 200;
    serve_n = 300;
    serve_datasets = 2;
    setups = 1;
    suites = Some [ "Phoenix"; "TPC-H" ];
  }

type ctx = {
  seed : int;
  size : size;
  obs : Obs.ctx;  (** [Obs.null] when untraced *)
  cegis : Cegis.config;
  cluster : Cluster.t;
  mutable attempted : int;
  mutable failures : string list;  (** one line per failed operation *)
}

let span (c : ctx) name f = Obs.span c.obs name f

(** The pool size: one domain, so {!clock} stands for elapsed time. *)
let pool_jobs = 1

let fail (c : ctx) fmt =
  Printf.ksprintf (fun m -> c.failures <- m :: c.failures) fmt

(** [op c name f] counts one attempted operation; an exception fails it. *)
let op (c : ctx) (name : string) (f : unit -> 'a) : 'a option =
  c.attempted <- c.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      fail c "%s: exception %s" name (Printexc.to_string e);
      None

(** The table-2 CEGIS configuration (the bench harness's). *)
let cegis_config = { Cegis.default_config with Cegis.max_candidates = 60_000 }

(** Engine configuration for single-caller execution: every knob set
    explicitly — in-memory shuffle, no lineage cache, closed-form time
    model, the pinned pool. *)
let exec_config (c : ctx) : Exec.Config.t =
  {
    Exec.Config.sched = None;
    obs = Some c.obs;
    pool = Some (Par.global ());
    memory_budget = Some 0;
    cache = None;
    cluster = Some c.cluster;
    concurrency = Some 1;
    queue_capacity = Some 1;
    cancel = None;
  }

let benchmarks (c : ctx) : Suite.benchmark list =
  List.concat_map
    (fun (name, bs) ->
      match c.size.suites with
      | Some keep when not (List.mem name keep) -> []
      | _ -> bs)
    Registry.suites

(** Per-benchmark input seed derived from the workload seed. *)
let input_seed (c : ctx) (b : Suite.benchmark) (i : int) : int =
  Hashtbl.hash (c.seed, b.Suite.name, i)

let digest_of (v : 'a) : string =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Compilation: parse → analysis → Casper.translate_fragment           *)

type compiled = {
  bench : Suite.benchmark;
  prog : Minijava.Ast.program;
  frag : F.t;
  tr : Casper.translation option;  (** None when translation raised *)
  compile_s : float;
}

(** Compile every analyzable fragment of [benches] once. Each fragment
    is one operation: an exception or a synthesis budget timeout fails
    it. Returns the fragments and the time of the whole pass. *)
let compile_all (c : ctx) (benches : Suite.benchmark list) :
    compiled list * float =
  let t0 = clock () in
  let out =
    List.concat_map
      (fun (b : Suite.benchmark) ->
        (* a source that fails to parse or analyze is one failed
           operation; otherwise its fragments are the operations *)
        match
          let prog =
            span c "minijava.parse" (fun () ->
                let p = Minijava.Parser.parse_program b.Suite.source in
                Minijava.Typecheck.check_program p;
                p)
          in
          ( prog,
            Analyze.fragments_of_program ~obs:c.obs prog ~suite:b.Suite.suite
              ~benchmark:b.Suite.name )
        with
        | exception e ->
            c.attempted <- c.attempted + 1;
            fail c "%s: exception %s" b.Suite.name (Printexc.to_string e);
            []
        | prog, frags ->
            List.filter_map
              (fun (f : F.t) ->
                if f.F.unsupported <> None then None
                else begin
                  let t = clock () in
                  let tr =
                    op c f.F.frag_id (fun () ->
                        span c "casper.translate_fragment" (fun () ->
                            Casper.translate_fragment ~obs:c.obs ~config:c.cegis
                              prog f))
                  in
                  let compile_s = clock () -. t in
                  (match tr with
                  | Some t when t.Casper.outcome.Cegis.stats.Cegis.timed_out ->
                      fail c "%s: synthesis budget timeout" f.F.frag_id
                  | _ -> ());
                  Some { bench = b; prog; frag = f; tr; compile_s }
                end)
              frags)
      benches
  in
  (out, clock () -. t0)

let translated (x : compiled) =
  match x.tr with Some t -> Casper.translated t | None -> false

(** Exact search counts and the chosen summaries: equal on every pass. *)
let compile_digest (l : compiled list) : string =
  digest_of
    (List.map
       (fun x ->
         ( x.frag.F.frag_id,
           Option.map
             (fun (t : Casper.translation) ->
               let s = t.Casper.outcome.Cegis.stats in
               ( s.Cegis.candidates_tried,
                 s.Cegis.cegis_iterations,
                 s.Cegis.tp_failures,
                 List.map
                   (fun (s : Cegis.solution) -> Ir.summary_to_string s.Cegis.summary)
                   t.Casper.survivors ))
             x.tr ))
       l)

type synth_counts = {
  candidates : int;
  iterations : int;
  tp_failures : int;
  classes : int;
  survivors : int;
}

let synth_counts (l : compiled list) : synth_counts =
  List.fold_left
    (fun a x ->
      match x.tr with
      | None -> a
      | Some t ->
          let s = t.Casper.outcome.Cegis.stats in
          {
            candidates = a.candidates + s.Cegis.candidates_tried;
            iterations = a.iterations + s.Cegis.cegis_iterations;
            tp_failures = a.tp_failures + s.Cegis.tp_failures;
            classes = a.classes + s.Cegis.classes_explored;
            survivors = a.survivors + List.length t.Casper.survivors;
          })
    { candidates = 0; iterations = 0; tp_failures = 0; classes = 0; survivors = 0 }
    l

(** What a pass leaves behind: its time, each operation's time
    (ms) and the digest of its exact counts. Passes keep only this, so
    the memory a run holds does not grow with the passes it makes. *)
type pass = {
  pass_s : float;
  times : ((string * string) * float) list;
  digest : string;
}

let frag_key (x : compiled) = (x.bench.Suite.name, x.frag.F.frag_id)

let compile_pass ((l, pass_s) : compiled list * float) : pass =
  {
    pass_s;
    times = List.map (fun x -> (frag_key x, x.compile_s *. 1e3)) l;
    digest = compile_digest l;
  }

(** Each operation's median time over the passes it ran in: the
    per-operation figures percentiles and rates are taken over, so one
    slow pass moves them less. *)
let op_medians (passes : pass list) : float list =
  let h = Hashtbl.create 128 in
  List.iter
    (fun p ->
      List.iter
        (fun (k, t) ->
          Hashtbl.replace h k (t :: Option.value ~default:[] (Hashtbl.find_opt h k)))
        p.times)
    passes;
  Hashtbl.fold (fun _ ts acc -> median ts :: acc) h []

(** A failure when the passes' exact counts differ. *)
let check_digests (c : ctx) (what : string) (passes : pass list) : unit =
  match passes with
  | p :: rest when List.exists (fun q -> q.digest <> p.digest) rest ->
      fail c "%s differ between passes" what
  | _ -> ()


(** compile_s, fragment percentiles and translated_frac over the passes
    ([first] is the first pass's fragments). The percentiles are taken
    over every fragment compilation of every pass, not over per-fragment
    medians: the tenth-slowest of the 92 Table-2 fragments alone would
    set a p90 over medians, and it sits between two clusters of
    fragment times, so that p90 moved by a quarter when that one
    fragment was slow. *)
let compile_metrics (first : compiled list) (passes : pass list) =
  let all = List.concat_map (fun p -> List.map snd p.times) passes in
  [
    ("compile_s", median (List.map (fun p -> p.pass_s) passes), "s");
    ("frag_compile_p50_ms", quantile 0.5 all, "ms");
    ("frag_compile_p90_ms", quantile 0.9 all, "ms");
    ( "translated_frac",
      float_of_int (List.length (List.filter translated first))
      /. float_of_int (List.length first),
      "ratio" );
  ]

(* ------------------------------------------------------------------ *)
(* Execution: Runner.run_summary against the MiniJava interpreter      *)

type exec_item = {
  x : compiled;
  best : Cegis.solution;
  entry : Minijava.Interp.env;
  scale : float;
  reference : (string * Value.t) list;  (** interpreter outputs *)
  seq_s : float;  (** modeled sequential time (cluster model) *)
}

(** Inputs for each benchmark with a translated fragment, generated
    from the workload seed at [n] records (None = the suite's size). *)
let gen_inputs (c : ctx) (l : compiled list) ~(n : int option) :
    (string * (Minijava.Interp.env * int)) list =
  List.filter_map
    (fun (b : Suite.benchmark) ->
      if List.exists (fun x -> x.bench == b && translated x) l then
        let n = Option.value n ~default:b.Suite.workload.Suite.sample_n in
        Some
          ( b.Suite.name,
            (b.Suite.workload.Suite.gen (Rng.create (input_seed c b 0)) ~n, n) )
      else None)
    (benchmarks c)

(** Interpreter outputs already computed in this process, by fragment:
    the traced repetition regenerates the same inputs and reuses them. *)
let reference_memo : (string * string, (string * Value.t) list * float) Hashtbl.t =
  Hashtbl.create 128

(** The interpreter's outputs for every translated fragment: computed
    once, outside every timed region. A failing reference fails the
    fragment's execution. *)
let references (c : ctx) (l : compiled list) inputs : exec_item list =
  span c "bench.reference" @@ fun () ->
  List.filter_map
    (fun x ->
      match x.tr with
      | Some ({ Casper.survivors = best :: _; _ }) -> (
          let env, n = List.assoc x.bench.Suite.name inputs in
          let r =
            try
              let entry = Vc.entry_of_params x.prog x.frag env in
              let scale = Suite.scale_of x.bench ~sample:n in
              let reference, seq_s =
                match Hashtbl.find_opt reference_memo (frag_key x) with
                | Some r -> r
                | None ->
                    let r =
                      Runner.run_sequential ~scale
                        ~passes:x.bench.Suite.workload.Suite.passes x.prog x.frag
                        entry
                    in
                    Hashtbl.replace reference_memo (frag_key x) r;
                    r
              in
              Ok { x; best; entry; scale; reference; seq_s }
            with e -> Error (Printexc.to_string e)
          in
          match r with
          | Ok it -> Some it
          | Error m ->
              c.attempted <- c.attempted + 1;
              fail c "%s: reference run raised %s" x.frag.F.frag_id m;
              None)
      | _ -> None)
    l

type exec_run = { it : exec_item; run_s : float; result : Runner.result }

(** [Runner.run_summary], decomposed into its public parts when traced
    so each part gets its own span; the same calls in the same order. *)
let run_summary (c : ctx) (it : exec_item) : Runner.result =
  let x = it.x in
  let summary = it.best.Cegis.summary in
  let cluster = c.cluster in
  if not (Obs.enabled c.obs) then
    Runner.run_summary ~config:(exec_config c) ~cluster ~scale:it.scale x.prog
      x.frag it.entry summary
  else
    span c "runner.run_summary" @@ fun () ->
    let tr =
      span c "codegen.compile_plan" (fun () ->
          Compile.compile x.prog x.frag it.entry summary)
    in
    let datasets =
      span c "runner.datasets" (fun () -> Runner.datasets_of x.prog x.frag it.entry)
    in
    let run =
      Engine.run_plan ~config:(exec_config c) ~cluster ~datasets tr.Compile.plan
    in
    {
      Runner.outputs = tr.Compile.read_outputs run.Engine.output;
      run;
      time_s = Engine.simulate_time ~cluster ~scale:it.scale run;
    }

(** One execution pass over [items]; outputs are compared with the
    interpreter after each run's clock stops. *)
let exec_pass (c : ctx) (items : exec_item list) : exec_run list =
  List.filter_map
    (fun it ->
      let id = it.x.frag.F.frag_id in
      let t = clock () in
      match op c id (fun () -> run_summary c it) with
      | None -> None
      | Some result ->
          let run_s = clock () -. t in
          span c "bench.check" (fun () ->
              if not (Runner.outputs_agree it.x.frag it.reference result.Runner.outputs)
              then fail c "%s: output differs from the interpreter" id);
          Some { it; run_s; result })
    items

(** Per benchmark, modeled sequential ÷ MapReduce time (paper Fig. 7);
    the geometric mean over benchmarks. *)
let modeled_speedup (runs : exec_run list) : float =
  let by_bench = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let k = r.it.x.bench.Suite.name in
      let s, m = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt by_bench k) in
      Hashtbl.replace by_bench k (s +. r.it.seq_s, m +. r.result.Runner.time_s))
    runs;
  geomean (Hashtbl.fold (fun _ (s, m) acc -> (s /. m) :: acc) by_bench [])

let shuffle_bytes (runs : Engine.run list) : int =
  List.fold_left
    (fun a (r : Engine.run) ->
      List.fold_left (fun a (m : Engine.stage_metrics) -> a + m.Engine.bytes_shuffled) a
        r.Engine.stages)
    0 runs

let records_in (runs : Engine.run list) : int =
  List.fold_left (fun a (r : Engine.run) -> a + r.Engine.input_records) 0 runs

(** Exact volumes and modeled times of a pass: equal on every pass. *)
let exec_digest (runs : exec_run list) : string =
  digest_of
    (List.map
       (fun r ->
         ( r.it.x.frag.F.frag_id,
           r.result.Runner.run.Engine.stages,
           r.result.Runner.time_s ))
       runs)

let exec_pass_summary (runs : exec_run list) : pass =
  {
    pass_s = sum (List.map (fun r -> r.run_s) runs);
    times = List.map (fun r -> (frag_key r.it.x, r.run_s *. 1e3)) runs;
    digest = exec_digest runs;
  }

(** exec_records_per_s, frag_exec_p90_ms and the modeled speedup over
    the passes ([first] is the first pass's runs). *)
let exec_metrics (first : exec_run list) (passes : pass list) =
  let meds = op_medians passes in
  [
    ( "exec_records_per_s",
      float_of_int (records_in (List.map (fun r -> r.result.Runner.run) first))
      /. (sum meds /. 1e3),
      "rec/s" );
    ("frag_exec_p90_ms", quantile 0.9 meds, "ms");
    ("modeled_speedup_geomean", modeled_speedup first, "x");
  ]

(** On execute-suites one job is one benchmark's execution: a pass's
    run times summed over the benchmark's fragments. Latency
    percentiles are taken over the benchmarks' median times; jobs_per_s
    is benchmarks ÷ the summed medians. *)
let bench_job_metrics (passes : pass list) =
  let per_bench (p : pass) =
    let h = Hashtbl.create 32 in
    List.iter
      (fun ((b, _), t) ->
        Hashtbl.replace h b (t +. Option.value ~default:0.0 (Hashtbl.find_opt h b)))
      p.times;
    { p with times = Hashtbl.fold (fun b t acc -> ((b, ""), t) :: acc) h [] }
  in
  let meds = op_medians (List.map per_bench passes) in
  [
    ("jobs_per_s", float_of_int (List.length meds) /. (sum meds /. 1e3), "jobs/s");
    ("job_p50_ms", quantile 0.5 meds, "ms");
    ("job_p90_ms", quantile 0.9 meds, "ms");
  ]

(* ------------------------------------------------------------------ *)
(* Workload results                                                    *)

(** How long the timed loop runs: for about [seconds] on {!clock} —
    passes start while the next one would end less than half a pass past
    the budget, and there is at least one — or for exactly the work an
    earlier run did (the traced repetition). *)
type budget = Seconds of float | Repeat of int

(** However much the host steals, a run's timed loop stops after
    [wall_cap] times its budget in wall time, so a run ends in bounded
    time. *)
let wall_cap = 1.5

(** Whether a timed loop started at [c0] on {!clock} and [w0] on the
    wall may start more work. *)
let within (s : float) ~(c0 : float) ~(w0 : float) ~(ahead : float) : bool =
  clock () -. c0 +. ahead <= s && now () -. w0 +. ahead <= wall_cap *. s

type outcome = {
  e2e : (string * float * string) list;  (** except setup_s and ok_frac *)
  setup_s : float list;  (** one per set-up *)
  work : int;  (** passes or jobs done by the timed loop *)
  loop_s : float;  (** time of one set-up plus the timed loop *)
  counts : (string * float * string) list;  (** exact per-layer counts *)
  exact : (string * string) list;  (** must repeat bit-for-bit *)
  inputs : string;  (** digest of the generated inputs *)
  samples : (string * float list) list;  (** per-pass timings, for the log *)
}

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)

module Int_map = Map.Make (Int)

(** A fixed piece of work of the benchmark's own, timed on {!clock}:
    inserting 120,000 pseudo-random keys into a [Hashtbl] and a [Map],
    allocation- and cache-bound like synthesis and the engine. The
    program's code does not run in it, so a change to the program does
    not change its time; a change in the host's speed does. *)
let calibration () : float =
  Gc.minor ();
  let t = clock () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 2 do
    let h = Hashtbl.create 16 and m = ref Int_map.empty in
    for i = 1 to 60_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      Hashtbl.replace h !x [ i; !x ];
      m := Int_map.add (!x land 0xffff) (string_of_int i) !m
    done;
    acc := !acc + Hashtbl.length h + Int_map.cardinal !m
  done;
  ignore (Sys.opaque_identity !acc);
  clock () -. t

(** Calibration times taken through the untraced run, between passes. *)
let host_samples : float list ref = ref []

(** Clock time spent in calibrations, kept out of [loop_s]. *)
let host_spent = ref 0.0

let sample_host () =
  let t = clock () in
  host_samples := calibration () :: !host_samples;
  host_spent := !host_spent +. (clock () -. t)

(** The calibration's median time that end-to-end timings are scaled
    to (see METRICS.md, "Host speed"). *)
let calibration_ref_s = 0.2

let timed_loop (budget : budget) (pass : unit -> 'a) : 'a list =
  let c0 = clock () and w0 = now () in
  let rec go acc k last =
    let continue =
      match budget with
      | Seconds s -> k = 0 || within s ~c0 ~w0 ~ahead:(last /. 2.0)
      | Repeat n -> k < n
    in
    if continue then begin
      (match budget with Seconds _ -> sample_host () | Repeat _ -> ());
      let t = clock () in
      let v = pass () in
      go (v :: acc) (k + 1) (clock () -. t)
    end
    else List.rev acc
  in
  go [] 0 0.0

(** [settled f] runs [f] on a fully collected heap, so a timed pass
    does not also pay for a major cycle the passes before it started. *)
let settled (f : unit -> 'a) : 'a =
  Gc.full_major ();
  f ()

(** Run [setup] [n] times, timing each; keep the last result and hand
    every earlier one to [discard]. *)
let repeat_setup ?(discard = ignore) (c : ctx) (n : int) (setup : unit -> 'a) :
    'a * float list =
  let rec go k acc last =
    if k = n then (Option.get last, List.rev acc)
    else begin
      Option.iter discard last;
      if not (Obs.enabled c.obs) then sample_host ();
      let t = clock () in
      let v = span c "bench.setup" setup in
      go (k + 1) ((clock () -. t) :: acc) (Some v)
    end
  in
  go 0 [] None

(** Set-up's pool: a fresh process pool of the pinned size, used by the
    synthesizer (through [Par.global]) and passed to the engine. *)
let fresh_pool () : unit =
  Par.set_jobs pool_jobs;
  ignore (Par.global () : Par.pool)

let synth_count_metrics (s : synth_counts) =
  [
    ("synth.candidates", float_of_int s.candidates, "count");
    ("synth.cegis_iterations", float_of_int s.iterations, "count");
    ("synth.classes_explored", float_of_int s.classes, "count");
    ("verify.tp_failures", float_of_int s.tp_failures, "count");
    ("cost.survivors", float_of_int s.survivors, "count");
  ]

let engine_count_metrics (runs : Engine.run list) =
  [
    ("engine.records_in", float_of_int (records_in runs), "count");
    ("engine.shuffle_bytes", float_of_int (shuffle_bytes runs), "bytes");
  ]

(* ------------------------------------------------------------------ *)
(* execute-suites                                                      *)

(** Set-up compiles every benchmark and generates its inputs at the
    suite's [sample_n]; the timed loop runs each translated fragment's
    cheapest surviving summary through [Runner.run_summary], and
    compiles every benchmark again after each execution pass, so the
    compile figures are medians over passes spread through the run, not
    only over its set-ups. *)
let execute_suites (c : ctx) (budget : budget) : outcome =
  let benches = benchmarks c in
  let compiles = ref [] in
  let (compiled, inputs), setup_s =
    repeat_setup c c.size.setups (fun () ->
        fresh_pool ();
        let l, pass_s = compile_all c benches in
        compiles := compile_pass (l, pass_s) :: !compiles;
        (l, gen_inputs c l ~n:c.size.sample_n))
  in
  let items = references c compiled inputs in
  let first = ref [] in
  let t_pass = clock () and h0 = !host_spent in
  let passes =
    timed_loop budget (fun () ->
        let runs = settled (fun () -> exec_pass c items) in
        if !first = [] then first := runs;
        compiles := compile_pass (settled (fun () -> compile_all c benches)) :: !compiles;
        exec_pass_summary runs)
  in
  let loop_s = median setup_s +. clock () -. t_pass -. (!host_spent -. h0) in
  let compiles = List.rev !compiles in
  check_digests c "execute-suites: compiles" compiles;
  check_digests c "execute-suites: engine volumes" passes;
  let first = !first in
  {
    e2e =
      compile_metrics compiled compiles
      @ (if first = [] then [] else exec_metrics first passes @ bench_job_metrics passes);
    setup_s;
    work = List.length passes;
    loop_s;
    counts =
      synth_count_metrics (synth_counts compiled)
      @ engine_count_metrics (List.map (fun r -> r.result.Runner.run) first);
    exact =
      [
        ("compile", (List.hd compiles).digest);
        ("exec", (List.hd passes).digest);
        ( "modeled_speedup_geomean",
          if first = [] then "-" else Printf.sprintf "%.17g" (modeled_speedup first) );
      ];
    inputs = digest_of inputs;
    samples =
      [
        ("setup_s", setup_s);
        ("compile_pass_s", List.map (fun p -> p.pass_s) compiles);
        ("exec_pass_s", List.map (fun p -> p.pass_s) passes);
      ];
  }

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)

(** The fragments the served stream mixes: a key-grouped stage over
    Zipf-distributed words, a global reduce, filter + reduce, a join
    and an iterative algorithm's fragment. *)
let serve_fragments =
  [
    ("WordCount", "wordcount#0");
    ("Mean", "mean#0");
    ("Q6", "q6#0");
    ("Q17", "q17Total#0");
    ("PageRank", "contribs#0");
  ]

type pair = {
  p_frag : compiled;
  p_plan : Mapreduce.Plan.t;
  p_datasets : (string * Value.t list) list;
  p_scale : float;
  p_seq_s : float;  (** modeled sequential time of the pair *)
}

(** Closed-loop clients: each keeps one job in flight. Two, so one job
    always waits in the session's queue while the other runs. *)
let serve_clients = 2

(** Stream segments of an untraced run. After each, [table2_per_round]
    compile passes of every Table-2 fragment are timed, as on
    execute-suites: the five serve benchmarks alone have too few
    fragments for steady compile percentiles. *)
let serve_rounds = 3
let table2_per_round = 2

(** Share of jobs that repeat one of the last [recent] jobs' pairs. The
    value is synthetic (METRICS.md says why this one): about a third of
    the stream re-submits recent work, so the cache serves hits and
    still misses on the rest. *)
let repeat_share = 0.35
let recent = 4

(** A stream segment of [s] seconds also ends after [max_rate *. s]
    jobs. [Exec.Session] keeps every finished job until shutdown, so the
    process's peak memory grows with the jobs completed (about 80 KB a
    job); without the cap a faster host would read a higher
    [peak_rss_mb]. The cap is below the rate of the seed code (290 to
    350 jobs/s on the VM METRICS.md describes), so it usually ends the
    segment, and a slower host ends it by time with fewer jobs. *)
let max_rate = 250.0

(** The stream's budgets are fractions of what its pairs need, measured
    on their solo runs: the lineage cache holds [1/cache_div] of the
    working set (every pair's output), and the memory budget is
    [1/spill_div] of the input of the largest grouped stage, so the
    pairs with the most shuffle state spill. *)
let cache_div = 4
let spill_div = 2

(** Labels of a plan's grouped stages, the ones that can spill. *)
let rec grouped_labels (p : Mapreduce.Plan.t) : string list =
  List.concat_map
    (function
      | Mapreduce.Plan.Reduce_by_key { label; _ } | Group_by_key { label } -> [ label ]
      | Join_with { right; _ } -> grouped_labels right
      | _ -> [])
    p.Mapreduce.Plan.stages

(** One completed job of the stream, timed on {!clock}. *)
type job_time = {
  pair : int;
  records : int;
  shuffle : int;
  service_ms : float;
      (** from when the session could start it (its submit, or the
          previous job's completion) to its completion *)
  latency_ms : float;  (** submit to completion *)
}

let serve_mixed (c : ctx) (budget : budget) : outcome =
  let benches =
    List.filter_map
      (fun (name, _) ->
        List.find_opt (fun (b : Suite.benchmark) -> b.Suite.name = name)
          Registry.all_benchmarks)
      serve_fragments
  in
  let compiles = ref [] and compiled = ref [] in
  let table2 = ref [] and table2_first = ref [] in
  let pairs, setup_s =
    repeat_setup c c.size.setups (fun () ->
        fresh_pool ();
        let l, pass_s = compile_all c benches in
        compiles := compile_pass (l, pass_s) :: !compiles;
        compiled := l;
        let frags =
          List.filter_map
            (fun (_, id) ->
              match List.find_opt (fun x -> x.frag.F.frag_id = id) l with
              | Some x when translated x -> Some x
              | _ ->
                  fail c "%s: serve-mixed needs it translated" id;
                  None)
            serve_fragments
        in
        let pairs =
          List.concat_map
            (fun x ->
              let best = List.hd (Option.get x.tr).Casper.survivors in
              List.init c.size.serve_datasets (fun i ->
                  (* sizes cycle through serve_n/4, serve_n/2, 3/4·serve_n, serve_n *)
                  let n = c.size.serve_n * (1 + (i mod 4)) / 4 in
                  let env =
                    x.bench.Suite.workload.Suite.gen
                      (Rng.create (input_seed c x.bench (i + 1)))
                      ~n
                  in
                  let entry = Vc.entry_of_params x.prog x.frag env in
                  let plan =
                    (Compile.compile x.prog x.frag entry best.Cegis.summary).Compile.plan
                  in
                  let datasets = Runner.datasets_of x.prog x.frag entry in
                  let records =
                    List.fold_left (fun a (_, rs) -> a + List.length rs) 0 datasets
                  in
                  let bytes =
                    List.fold_left (fun a (_, rs) -> a + Value.size_of_list rs) 0 datasets
                  in
                  let scale = Suite.scale_of x.bench ~sample:n in
                  {
                    p_frag = x;
                    p_plan = plan;
                    p_datasets = datasets;
                    p_scale = scale;
                    p_seq_s =
                      Engine.sequential_time ~scale
                        ~passes:x.bench.Suite.workload.Suite.passes ~records ~bytes ();
                  }))
            frags
        in
        Array.of_list pairs)
  in
  (* solo runs, in-memory and uncached: the reference outputs, and the
     sizes the budgets are taken from *)
  let solo =
    span c "bench.reference" (fun () ->
        Array.map
          (fun p ->
            Engine.run_plan
              ~config:{ (exec_config c) with Exec.Config.obs = None }
              ~cluster:c.cluster ~datasets:p.p_datasets p.p_plan)
          pairs)
  in
  let working_set =
    Array.fold_left (fun a (r : Engine.run) -> a + Value.size_of_list r.Engine.output) 0 solo
  in
  let largest_grouped =
    Array.fold_left max 0
      (Array.mapi
         (fun i p ->
           let labels = grouped_labels p.p_plan in
           List.fold_left
             (fun a (m : Engine.stage_metrics) ->
               if List.mem m.Engine.label labels then max a m.Engine.bytes_in else a)
             0 solo.(i).Engine.stages)
         pairs)
  in
  let cache_budget = max 1 (working_set / cache_div)
  and memory_budget = max 1 (largest_grouped / spill_div) in
  (* the spill probe: every pair once at the stream's memory budget,
     checked against its in-memory run. Stream jobs run the same plans
     on the same data within at most this budget (the session sheds
     cache before it spills), so a probe that never spills means the
     stream does not either. Traced, its engine spans add to the
     stream's in the engine and spill rows. *)
  let probe_obs = if Obs.enabled c.obs then c.obs else Obs.create () in
  let spills_before = Obs.total probe_obs "spill_runs" in
  span c "bench.reference" (fun () ->
      Array.iteri
        (fun i p ->
          let r =
            Engine.run_plan
              ~config:
                {
                  (exec_config c) with
                  Exec.Config.obs = Some probe_obs;
                  memory_budget = Some memory_budget;
                }
              ~cluster:c.cluster ~datasets:p.p_datasets p.p_plan
          in
          if r.Engine.output <> solo.(i).Engine.output then
            fail c "pair %d: spilled run differs from the in-memory run" i)
        pairs);
  let spill_runs = Obs.total probe_obs "spill_runs" - spills_before in
  if spill_runs = 0 then
    fail c "serve-mixed: no pair spills at the %d-byte memory budget" memory_budget;
  (* the cache and session are sized from the solo runs, so they are
     made here; the time this takes is part of every set-up's *)
  let t_session = clock () in
  let cache, session =
    span c "bench.setup" @@ fun () ->
    let cache = Engine.make_cache ~budget:cache_budget () in
    (* concurrency 1 on the pool of one: the main domain runs each job
       while it awaits it *)
    let session =
      Exec.Session.create
        ~config:
          {
            Exec.Config.sched = None;
            obs = Some c.obs;
            pool = Some (Par.global ());
            memory_budget = Some memory_budget;
            cache = Some cache;
            cluster = Some c.cluster;
            concurrency = Some 1;
            queue_capacity = Some 64;
            cancel = None;
          }
        ()
    in
    (cache, session)
  in
  let setup_s = List.map (fun s -> s +. (clock () -. t_session)) setup_s in
  Printf.printf
    "# serve {\"pairs\": %d, \"working_set_bytes\": %d, \"cache_budget\": %d, \
     \"largest_grouped_bytes\": %d, \"memory_budget\": %d, \"probe_spill_runs\": %d}\n"
    (Array.length pairs) working_set cache_budget largest_grouped memory_budget spill_runs;
  (* the job stream: which pair each job runs, drawn from the seed *)
  let rng = Rng.create (Hashtbl.hash (c.seed, "serve-mixed")) in
  let history = Queue.create () in
  let next_pair () =
    let i =
      if Queue.length history > 0 && Rng.float rng < repeat_share then
        List.nth (List.of_seq (Queue.to_seq history)) (Rng.int rng (Queue.length history))
      else Rng.int rng (Array.length pairs)
    in
    Queue.push i history;
    if Queue.length history > recent then ignore (Queue.pop history : int);
    i
  in
  (* a job's output is checked against its pair's solo run once the
     segment has ended, off the clock; the session keeps every finished
     job until shutdown *)
  let done_jobs = ref [] and times = ref [] in
  let check (j, i) =
    span c "bench.check" @@ fun () ->
    match Exec.Session.state session j with
    | `Done (Exec.Session.Completed r) ->
        if r.Engine.output <> solo.(i).Engine.output
           || r.Engine.stages <> solo.(i).Engine.stages
        then fail c "job on pair %d: output differs from the solo run" i
    | `Done (Exec.Session.Cancelled m) -> fail c "job on pair %d: cancelled (%s)" i m
    | `Done (Exec.Session.Failed m) -> fail c "job on pair %d: failed: %s" i m
    | `Queued | `Running -> fail c "job on pair %d: not finished" i
  in
  let submitted = ref 0 in
  let submit () =
    let i = next_pair () in
    let p = pairs.(i) in
    incr submitted;
    let t = clock () in
    op c (Printf.sprintf "job %d" !submitted) (fun () ->
        span c "exec.submit" (fun () ->
            (Exec.Session.submit session ~datasets:p.p_datasets p.p_plan, i, t)))
  in
  (* one stream segment: every client keeps one job in flight; the
     session runs them in submission order, each while the main domain
     awaits it, so awaiting the oldest job awaits the next to finish.
     Once the budget is spent the segment drains; returns its time. *)
  let segment (budget : budget) : float =
    let c0 = clock () and w0 = now () and n0 = !submitted in
    let may_submit () =
      match budget with
      | Seconds s ->
          within s ~c0 ~w0 ~ahead:0.0
          && float_of_int (!submitted - n0) < max_rate *. s
      | Repeat n -> !submitted < n
    in
    let inflight = Queue.create () in
    let add () = if may_submit () then Option.iter (fun j -> Queue.push j inflight) (submit ()) in
    for _ = 1 to serve_clients do add () done;
    let free = ref c0 in
    while not (Queue.is_empty inflight) do
      let j, i, t = Queue.pop inflight in
      let o = span c "exec.wait" (fun () -> Exec.Session.await session j) in
      let t_done = clock () in
      (match o with
      | Exec.Session.Completed r ->
          times :=
            {
              pair = i;
              records = r.Engine.input_records;
              shuffle = shuffle_bytes [ r ];
              service_ms = (t_done -. Float.max t !free) *. 1e3;
              latency_ms = (t_done -. t) *. 1e3;
            }
            :: !times
      | _ -> ());
      free := t_done;
      done_jobs := (j, i) :: !done_jobs;
      add ()
    done;
    let t = clock () -. c0 in
    List.iter check !done_jobs;
    done_jobs := [];
    t
  in
  (* untraced, the stream runs in [serve_rounds] segments; after each,
     [compile_per_round] compile passes are timed, so the compile figures
     sample the whole run, not its start. The traced repetition replays
     the same jobs in one segment. *)
  let walls =
    match budget with
    | Repeat _ -> [ segment budget ]
    | Seconds s ->
        List.init serve_rounds (fun _ ->
            sample_host ();
            let w = segment (Seconds (s /. float_of_int serve_rounds)) in
            for _ = 1 to table2_per_round do
              sample_host ();
              let l, pass_s = settled (fun () -> compile_all c (benchmarks c)) in
              if !table2_first = [] then table2_first := l;
              table2 := compile_pass (l, pass_s) :: !table2
            done;
            w)
  in
  let stream_s = sum walls in
  let loop_s = median setup_s +. stream_s in
  let stats = Exec.Session.stats session in
  let cstats = Engine.cache_stats cache in
  span c "exec.shutdown" (fun () -> Exec.Session.shutdown session);
  (* the stream must show the reuse it is built for *)
  if cstats.Mapreduce.Cache.hits = 0 then fail c "serve-mixed: the stream had no cache hits";
  if cstats.Mapreduce.Cache.evictions = 0 then
    fail c "serve-mixed: the stream evicted nothing from the cache";
  let times = !times in
  let lats = List.map (fun t -> t.latency_ms) times in
  let records = List.fold_left (fun a t -> a + t.records) 0 times in
  (* each pair's mean service time over its jobs, cache hits included:
     a pair's times mix hits and misses, which a median would pick
     between *)
  let pair_service_ms =
    List.filter_map
      (fun i ->
        match List.filter (fun t -> t.pair = i) times with
        | [] -> None
        | ts ->
            Some (sum (List.map (fun t -> t.service_ms) ts) /. float_of_int (List.length ts)))
      (List.init (Array.length pairs) Fun.id)
  in
  let geo =
    geomean
      (Array.to_list
         (Array.mapi
            (fun i p ->
              p.p_seq_s
              /. Engine.simulate_time ~cluster:c.cluster ~scale:p.p_scale solo.(i))
            pairs))
  in
  (* the session runs one job at a time in submission order, so a job
     waits in the queue for the part of its latency it is not served *)
  let waits = List.map (fun t -> t.latency_ms -. t.service_ms) times in
  let compiles = List.rev !compiles and compiled = !compiled in
  let table2 = List.rev !table2 in
  check_digests c "serve-mixed: compiles" compiles;
  check_digests c "serve-mixed: Table-2 compiles" table2;
  {
    e2e =
      (if table2 = [] then [] else compile_metrics !table2_first table2)
      @ [
          ( "exec_records_per_s",
            float_of_int records /. (sum (List.map (fun t -> t.service_ms) times) /. 1e3),
            "rec/s" );
          ("frag_exec_p90_ms", quantile 0.9 pair_service_ms, "ms");
          ("modeled_speedup_geomean", geo, "x");
          ("jobs_per_s", float_of_int (List.length times) /. stream_s, "jobs/s");
          ("job_p50_ms", quantile 0.5 lats, "ms");
          ("job_p90_ms", quantile 0.9 lats, "ms");
        ];
    setup_s;
    work = !submitted;
    loop_s;
    counts =
      synth_count_metrics (synth_counts compiled)
      @ [
          ("engine.records_in", float_of_int records, "count");
          ( "engine.shuffle_bytes",
            float_of_int (List.fold_left (fun a t -> a + t.shuffle) 0 times),
            "bytes" );
          ("exec.queue_high_water", float_of_int stats.Exec.Session.queue_high_water, "count");
          ("exec.ledger_high_water", float_of_int stats.Exec.Session.ledger_high_water, "bytes");
          ( "engine.cache_hit_ratio",
            float_of_int cstats.Mapreduce.Cache.hits
            /. float_of_int (max 1 (cstats.Mapreduce.Cache.hits + cstats.Mapreduce.Cache.misses)),
            "ratio" );
          ("engine.cache_evictions", float_of_int cstats.Mapreduce.Cache.evictions, "count");
          ("exec.queue_wait_p50_ms", quantile 0.5 waits, "ms");
          ("exec.queue_wait_p90_ms", quantile 0.9 waits, "ms");
          ("exec.run_p50_ms", quantile 0.5 (List.map (fun t -> t.service_ms) times), "ms");
        ];
    exact =
      [
        ("compile", (List.hd compiles).digest);
        ("solo", digest_of (Array.map (fun (r : Engine.run) -> r.Engine.stages) solo));
        ("modeled_speedup_geomean", Printf.sprintf "%.17g" geo);
      ];
    inputs = digest_of (Array.map (fun p -> p.p_datasets) pairs);
    samples =
      [
        ("setup_s", setup_s);
        ("setup_compile_pass_s", List.map (fun p -> p.pass_s) compiles);
        ("table2_compile_pass_s", List.map (fun p -> p.pass_s) table2);
        ("stream_segment_s", walls);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Workload and metric catalogue                                       *)

let workloads =
  [
    ("execute-suites", execute_suites);
    ("serve-mixed", serve_mixed);
  ]

(** End-to-end metrics every workload reports (BENCHMARK.json). *)
let end_to_end =
  [
    ("setup_s", "s"); ("compile_s", "s"); ("frag_compile_p50_ms", "ms");
    ("frag_compile_p90_ms", "ms"); ("translated_frac", "ratio");
    ("exec_records_per_s", "rec/s"); ("frag_exec_p90_ms", "ms");
    ("modeled_speedup_geomean", "x"); ("jobs_per_s", "jobs/s");
    ("job_p50_ms", "ms"); ("job_p90_ms", "ms"); ("peak_rss_mb", "MB");
    ("ok_frac", "ratio");
  ]

let gc_metrics =
  List.concat_map
    (fun l ->
      [
        ("gc." ^ l ^ ".minor_words", "words");
        ("gc." ^ l ^ ".promoted_words", "words");
        ("gc." ^ l ^ ".major_collections", "count");
      ])
    Layers.gc_layers

(** Per-layer metrics every traced run reports (BENCHMARK.json); a
    layer the workload does not reach reads 0. *)
let per_layer =
  List.map (fun r -> (r ^ "_s", "s")) Layers.rows
  @ [
      ("trace.wall_s", "s"); ("trace.traced_s", "s"); ("trace.untraced_s", "s");
      ("trace.overhead_s", "s");
      ("synth.candidates", "count"); ("synth.cegis_iterations", "count");
      ("synth.classes_explored", "count"); ("synth.memo_eval_hit_ratio", "ratio");
      ("verify.tp_failures", "count"); ("verify.full_calls", "count");
      ("verify.full_reject_ratio", "ratio"); ("cost.survivors", "count");
      ("engine.records_in", "count"); ("engine.shuffle_bytes", "bytes");
      ("engine.cache_hit_ratio", "ratio"); ("engine.cache_evictions", "count");
      ("engine.spill_runs", "count"); ("engine.spill_bytes", "bytes");
      ("exec.queue_wait_p50_ms", "ms"); ("exec.queue_wait_p90_ms", "ms");
      ("exec.run_p50_ms", "ms"); ("exec.queue_high_water", "count");
      ("exec.ledger_high_water", "bytes");
    ]
  @ gc_metrics

(* ------------------------------------------------------------------ *)
(* Command line and pinned configuration                               *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tmp : string;
  tiny : bool;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload execute-suites|serve-mixed \
     --seed N --seconds S --trace 0|1 --tmp DIR [--tiny] [--commit ID]";
  exit 2

let parse_args () : args =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: r -> go { a with workload = w } r
    | "--seed" :: n :: r -> (
        match int_of_string_opt n with
        | Some n -> go { a with seed = n } r
        | None -> usage ())
    | "--seconds" :: s :: r -> (
        match float_of_string_opt s with
        | Some s when s > 0.0 -> go { a with seconds = s } r
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: r -> go { a with trace = t = "1" } r
    | "--tmp" :: d :: r -> go { a with tmp = d } r
    | "--tiny" :: r -> go { a with tiny = true } r
    | "--commit" :: id :: r -> go { a with commit = id } r
    | _ -> usage ()
  in
  let a =
    go
      {
        workload = "";
        seed = -1;
        seconds = 0.0;
        trace = false;
        tmp = "";
        tiny = false;
        commit = "unknown";
      }
      (List.tl (Array.to_list Sys.argv))
  in
  if
    (not (List.mem_assoc a.workload workloads))
    || a.seed < 0 || a.seconds <= 0.0 || a.tmp = ""
  then usage ()
  else a

(** Every [CASPER_*] knob of the program is pinned explicitly below, so
    a variable in the environment can only mislead the reader of the
    result: refuse to run instead of measuring something else. *)
let refuse_casper_env () =
  let set =
    List.filter
      (fun kv -> String.starts_with ~prefix:"CASPER_" kv)
      (Array.to_list (Unix.environment ()))
  in
  if set <> [] then begin
    Printf.eprintf "perfbench: unset %s first (the benchmark pins every knob)\n"
      (String.concat ", " set);
    exit 2
  end

let json_num (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s = "\"" ^ String.escaped s ^ "\""

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

(** Values for the declared metrics, in declaration order; a declared
    metric the run did not produce is an error for end-to-end metrics
    and 0 for per-layer ones. *)
let collect ~(declared : (string * string) list) ~(strict : bool)
    (got : (string * float * string) list) : (string * float * string) list =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) got with
      | Some (_, v, u) ->
          if u <> unit then failwith (Printf.sprintf "%s: unit %s, declared %s" name u unit);
          if not (Float.is_finite v) then failwith (name ^ " is not a number");
          (name, v, unit)
      | None ->
          if strict then failwith ("metric not measured: " ^ name);
          (name, 0.0, unit))
    declared

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (json_obj
       [
         ("correct", if correct then "true" else "false");
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (n, v, u) ->
                  (n, json_obj [ ("value", json_num v); ("unit", json_str u) ]))
                metrics) );
       ])

let () =
  let a = parse_args () in
  refuse_casper_env ();
  (* the pinned configuration: a pool of one (see [clock]), no
     process-default lineage cache, spill files in [tmp] (run.py puts
     the runtime-events file there too) *)
  Par.set_jobs pool_jobs;
  Engine.set_default_cache_budget (Some 0);
  Mapreduce.Spill.set_base_dir a.tmp;
  let size = if a.tiny then tiny_size else full_size in
  let cluster = Cluster.spark in
  let run = List.assoc a.workload workloads in
  let mk obs size =
    {
      seed = a.seed;
      size;
      obs;
      cegis = cegis_config;
      cluster;
      attempted = 0;
      failures = [];
    }
  in
  let gc = Gc.get () in
  print_endline
    ("# perfbench "
    ^ json_obj
        [
          ("workload", json_str a.workload);
          ("seed", string_of_int a.seed);
          ("seconds", json_num a.seconds);
          ("trace", if a.trace then "1" else "0");
          ("commit", json_str a.commit);
          ("ocaml", json_str Sys.ocaml_version);
          ("nproc", string_of_int (Domain.recommended_domain_count ()));
          ("pool_jobs", string_of_int pool_jobs);
          ("cluster", json_str "spark");
          ("cegis_max_candidates", string_of_int cegis_config.Cegis.max_candidates);
          ("exec_memory_budget", "0");
          ("exec_cache", json_str "off");
          ("serve_memory_budget", json_str (Printf.sprintf "largest grouped stage input / %d" spill_div));
          ("serve_cache_budget", json_str (Printf.sprintf "working set / %d" cache_div));
          ("clock", json_str "main thread CPU time");
          ("serve_clients", string_of_int serve_clients);
          ("serve_concurrency", "1");
          ("serve_pool_jobs", string_of_int pool_jobs);
          ("serve_queue_capacity", "64");
          ("serve_repeat_share", json_num repeat_share);
          ("serve_max_jobs_per_s", json_num max_rate);
          ("serve_n", string_of_int size.serve_n);
          ("setups", string_of_int size.setups);
          ("gc_minor_heap_words", string_of_int gc.Gc.minor_heap_size);
          ("gc_space_overhead", string_of_int gc.Gc.space_overhead);
        ]);
  let c0 = mk Obs.null size in
  let clock0 = clock () and wall0 = now () in
  let o0 = run c0 (Seconds a.seconds) in
  (* how far the clock the timings are read on fell behind wall time:
     about 0 on an idle dedicated host *)
  Printf.printf "# clock %.3f s, wall %.3f s\n" (clock () -. clock0) (now () -. wall0);
  let rss = peak_rss_mb () in
  let exact_mismatch = ref [] in
  let traced =
    if not a.trace then None
    else begin
      (* one traced repetition of the same work: one set-up, then the
         passes or jobs the untraced run did *)
      let obs = Obs.create () in
      let c1 = mk obs { size with setups = 1 } in
      let g0 = Gc.quick_stat () in
      let g = Gcev.start () in
      let o1 = Obs.span obs "bench.run" (fun () -> run c1 (Repeat o0.work)) in
      let samples = Gcev.stop g in
      let g1 = Gc.quick_stat () in
      (* cross-check of the event rings against the runtime's own count,
         which lags each other domain by at most one minor heap *)
      Printf.printf "# gc minor words: runtime events %d, Gc.quick_stat %.0f\n"
        (Array.fold_left (fun a s -> a + s.Gcev.minor_words) 0 samples)
        (g1.Gc.minor_words -. g0.Gc.minor_words);
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k o1.exact with
          | Some v' when v' <> v -> exact_mismatch := k :: !exact_mismatch
          | _ -> ())
        o0.exact;
      let root =
        List.find (fun v -> v.Obs.v_name = "bench.run") (Obs.tree obs)
      in
      Some (c1, o1, obs, Layers.attribute root samples)
    end
  in
  let failures =
    List.rev c0.failures
    @ (match traced with Some (c1, _, _, _) -> List.rev c1.failures | None -> [])
    @ List.map (fun k -> k ^ ": exact counts differ between runs") !exact_mismatch
  in
  let attempted =
    c0.attempted + match traced with Some (c1, _, _, _) -> c1.attempted | None -> 0
  in
  let failed = List.length failures in
  List.iter (fun f -> print_endline ("# failed: " ^ f)) failures;
  print_endline
    ("# exact "
    ^ json_obj
        (List.map (fun (k, v) -> (k, json_str v)) o0.exact
        @ [ ("inputs", json_str o0.inputs) ]));
  List.iter
    (fun (k, l) ->
      Printf.printf "# %s: %s\n" k
        (String.concat " " (List.map (Printf.sprintf "%.4f") l)))
    o0.samples;
  Printf.printf "# work %d, failed_frac %s (%d of %d)\n" o0.work
    (json_num (float_of_int failed /. float_of_int (max 1 attempted)))
    failed attempted;
  let metrics =
    match traced with
    | None ->
        let raw =
          collect ~declared:end_to_end ~strict:true
            (o0.e2e
            @ [
                ("setup_s", median o0.setup_s, "s");
                ("peak_rss_mb", rss, "MB");
                ( "ok_frac",
                  1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)),
                  "ratio" );
              ])
        in
        (* timings scaled to the reference host speed: times by
           reference ÷ measured calibration, rates by its inverse *)
        let host = median !host_samples in
        let f = calibration_ref_s /. host in
        print_endline
          ("# host "
          ^ json_obj
              [
                ("calibration_median_s", json_num host);
                ("calibration_ref_s", json_num calibration_ref_s);
                ("scale", json_num f);
                ("samples", string_of_int (List.length !host_samples));
              ]);
        print_endline
          ("# unscaled "
          ^ json_obj (List.map (fun (n, v, _) -> (n, json_num v)) raw));
        List.map
          (fun (n, v, u) ->
            match u with
            | "s" | "ms" -> (n, v *. f, u)
            | "rec/s" | "jobs/s" -> (n, v /. f, u)
            | _ -> (n, v, u))
          raw
    | Some (_, o1, obs, table) ->
        Layers.print table ~traced_s:o1.loop_s ~untraced_s:o0.loop_s;
        let total k = float_of_int (Obs.total obs k) in
        let ratio a b = if b > 0.0 then a /. b else 0.0 in
        let full_calls = float_of_int (Layers.span_count table "full-verify") in
        let tp = List.find_map (fun (n, v, _) -> if n = "verify.tp_failures" then Some v else None) o1.counts in
        collect ~declared:per_layer ~strict:false
          (List.map (fun (r, s) -> (r ^ "_s", s, "s")) table.Layers.self_s
          @ [
              ("trace.wall_s", table.Layers.wall_s, "s");
              ("trace.traced_s", o1.loop_s, "s");
              ("trace.untraced_s", o0.loop_s, "s");
              ("trace.overhead_s", o1.loop_s -. o0.loop_s, "s");
              ( "synth.memo_eval_hit_ratio",
                ratio (total "memo_eval_hits")
                  (total "memo_eval_hits" +. total "memo_eval_misses"),
                "ratio" );
              ("verify.full_calls", full_calls, "count");
              ( "verify.full_reject_ratio",
                ratio (Option.value tp ~default:0.0) full_calls,
                "ratio" );
              ("engine.spill_runs", total "spill_runs", "count");
              ("engine.spill_bytes", total "spill_bytes", "bytes");
            ]
          @ o1.counts
          @ List.concat_map
              (fun (l, (g : Layers.gc)) ->
                [
                  ("gc." ^ l ^ ".minor_words", float_of_int g.Layers.minor, "words");
                  ("gc." ^ l ^ ".promoted_words", float_of_int g.Layers.promoted, "words");
                  ("gc." ^ l ^ ".major_collections", float_of_int g.Layers.major, "count");
                ])
              table.Layers.gc)
  in
  flush stdout;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
