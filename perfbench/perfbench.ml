(* The repository benchmark: three workloads against the public API and
   the real [perfdojo] binary.  See NOTES.md for why each workload exists
   and which layer each metric is expected to move.

     perfbench.exe --workload exhaustive|libgen|serve --seed N
                   --seconds S --trace 0|1 --perfdojo PATH --work DIR

   [--trace 0] repeats the workload for about S seconds and reports the
   end-to-end metrics; [--trace 1] runs a warm-up pass, a traced pass and
   an untraced one, then replays each layer on what the workload produced and reports the
   per-layer metrics.  Every pass checks its outputs against the
   interpreter or the recorded deposit.  The last line of standard output
   is the JSON result; the process exits 1 when any check failed. *)

open Perfdojo
module Stoch = Search.Stochastic
module P = Serve.Protocol
module L = Layers

let now = Unix.gettimeofday
let median xs = Util.Stats.median (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; samples : int }

(* The end-to-end metrics BENCHMARK.json declares; run.py checks that
   the result line carries exactly the declared names. *)
let end_to_end =
  [ "setup_s"; "wall_s"; "evals_per_s" ]

(* Check outcomes; the serve workload records them from two threads. *)
let failures : string list ref = ref []
let attempted = ref 0
let failed = ref 0
let outcome_lock = Mutex.create ()

let fail fmt =
  Printf.ksprintf
    (fun msg -> Mutex.protect outcome_lock (fun () -> failures := msg :: !failures))
    fmt

(** One operation of the workload: counted as attempted, and as failed
    when [ok] is false. *)
let op ok =
  Mutex.protect outcome_lock (fun () ->
      incr attempted;
      if not ok then incr failed)

let print_metrics ms =
  List.iter
    (fun m ->
      Printf.printf "  %-32s %16.6g %-6s (n=%d)\n" m.name m.value m.unit_
        m.samples)
    ms

let json_metrics ~samples ms =
  String.concat ","
    (List.map
       (fun m ->
         Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S%s}" m.name m.value
           m.unit_
           (if samples then Printf.sprintf ",\"samples\":%d" m.samples else ""))
       ms)

(** Print the human table, the full detail line, and the result line
    restricted to [names]. *)
let report ms names =
  let ms =
    List.map
      (fun m ->
        if Float.is_finite m.value then m
        else begin
          fail "metric %s is not finite" m.name;
          { m with value = 0. }
        end)
      ms
  in
  print_metrics ms;
  Printf.printf "perfbench-detail {%s}\n" (json_metrics ~samples:true ms);
  let picked =
    List.filter_map
      (fun n ->
        match List.find_opt (fun m -> m.name = n) ms with
        | Some m -> Some m
        | None ->
            fail "metric %s was not measured" n;
            None)
      names
  in
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) (List.rev !failures);
  let correct = !failures = [] in
  if not correct then failed := max !failed 1;
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct (max 1 !attempted) !failed
    (json_metrics ~samples:false picked);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)
(* ------------------------------------------------------------------ *)

(** VmHWM of a process in MB ([pid] "self" for this one). *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(** Daemons still running; killed at exit whatever happens. *)
let live : int list ref = ref []

let reap pid =
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(** Time from spawning this executable to its exit right after the
    libraries' module initialisers: the process-start part of set-up. *)
let startup_probe () =
  let fd = devnull () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--probe" |]
      fd fd fd
  in
  ignore (Unix.waitpid [] pid);
  Unix.close fd;
  now () -. t0

let setup_samples = 15
let startup_s () = median (List.init setup_samples (fun _ -> startup_probe ()))

(** Median of [k] timed runs of [f]; returns it with [f]'s last value. *)
let timed_median k f =
  let last = ref None in
  let ts =
    List.init k (fun _ ->
        let t0 = now () in
        last := Some (f ());
        now () -. t0)
  in
  (median ts, Option.get !last)

(** Repeat [pass] for about [seconds]: at least once, and again while
    the previous pass still fits in the time left. *)
let repeat ~seconds pass =
  let t_end = now () +. seconds in
  let rec go i acc =
    let t0 = now () in
    let r = pass i in
    let acc = r :: acc in
    if now () +. (now () -. t0) <= t_end then go (i + 1) acc
    else List.rev acc
  in
  go 0 []

let print_passes walls =
  Printf.printf "  pass walls (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let entry_of label =
  Kernels.find_entry (Libgen.default_kernels ()) label

let geomean xs = Util.Stats.geomean (Array.of_list xs)

(** Replay [moves] from [root]; the program and whether every move
    applied. *)
let replays caps root moves =
  let p, applied = Stoch.replay_skipping caps root moves in
  (p, applied = moves)

let counter (m : Obs.Metrics.t) n = float_of_int (Obs.Metrics.counter m n)

let ratio a b = if b = 0. then 0. else a /. b

let m name unit_ samples value = { name; unit_; value; samples }

(* ------------------------------------------------------------------ *)
(* exhaustive                                                          *)
(* ------------------------------------------------------------------ *)

type walk = {
  wlabel : string;
  wtarget : string;
  depth : int;
  composites : bool;
  build : unit -> Ir.Prog.t;
}

let walks =
  [
    { wlabel = "relu 32x32"; wtarget = "x86"; depth = 3; composites = false;
      build = (fun () -> Kernels.relu ~n:32 ~m:32) };
    { wlabel = "gemv 64x64"; wtarget = "x86"; depth = 3; composites = false;
      build = (fun () -> Kernels.gemv ~m:64 ~n:64) };
    { wlabel = "gemv 32x32"; wtarget = "snitch"; depth = 3; composites = false;
      build = (fun () -> Kernels.gemv ~m:32 ~n:32) };
    { wlabel = "gemv 64x64"; wtarget = "x86"; depth = 2; composites = true;
      build = (fun () -> Kernels.gemv ~m:64 ~n:64) };
    { wlabel = "softmax 64x64"; wtarget = "x86"; depth = 3; composites = false;
      build = (fun () -> Kernels.softmax ~n:64 ~m:64) };
  ]

type prepared = {
  walk : walk;
  ti : L.target_info;
  wcaps : Transform.Xforms.caps;
  root : Ir.Prog.t;
}

let prepare_walks () =
  List.map
    (fun w ->
      let ti = L.target_info w.wtarget in
      let wcaps = if w.composites then ti.composite_caps else ti.caps in
      { walk = w; ti; wcaps; root = w.build () })
    walks

type walk_run = {
  pw : prepared;
  res : Search.Exhaustive.result;
  wall : float;
  eval_s : float;  (** traced only: time inside the objective *)
  filtered : int;  (** traced only: instances the filter saw *)
  expanded : int;  (** traced only: states whose moves were enumerated *)
}

let sample_every = 50

(** States expanded by a walk: the root, then every frontier a later
    level enumerated (from the walk's [search.exhaustive_level] events). *)
let expanded_states obs (res : Search.Exhaustive.result) =
  let frontiers =
    List.filter_map
      (fun ev ->
        match Util.Json.member "ev" ev with
        | Some (Util.Json.Str "search.exhaustive_level") ->
            Option.bind (Util.Json.member "frontier" ev) Util.Json.to_int
        | _ -> None)
      (Obs.Trace.events obs)
  in
  1
  + List.fold_left ( + ) 0
      (List.filteri (fun i _ -> i < res.reached_depth - 1) frontiers)

(** One pass over the five walks.  Traced, each walk is a span, the
    objective is wrapped in a child span, the filter counts instances,
    and every [sample_every]-th evaluated state is kept for the layer
    replay. *)
let exhaustive_pass ~traced ~parent ~metrics ~samples prepared =
  List.map
    (fun pw ->
      Tracer.with_span ~parent "exhaustive.walk" (fun wid ->
          let evaluated = ref 0 and eval_s = ref 0. and filtered = ref 0 in
          let objective =
            if not traced then Machine.time pw.ti.target
            else fun p ->
              incr evaluated;
              if !evaluated mod sample_every = 0 then
                samples := { L.sti = pw.ti; prog = p } :: !samples;
              let t0 = now () in
              let t = Machine.time pw.ti.target p in
              let t1 = now () in
              eval_s := !eval_s +. (t1 -. t0);
              Tracer.record ~parent:wid "machine.evaluate" t0 t1;
              t
          in
          let filter =
            if traced then Some (fun _ -> incr filtered; true) else None
          in
          let obs =
            if traced then Obs.Trace.make_buffer () else Obs.Trace.null
          in
          let t0 = now () in
          let res =
            Search.Exhaustive.run ?filter ~obs ~metrics ~depth:pw.walk.depth
              pw.wcaps objective pw.root
          in
          let wall = now () -. t0 in
          {
            pw;
            res;
            wall;
            eval_s = !eval_s;
            filtered = !filtered;
            expanded = (if traced then expanded_states obs res else 0);
          }))
    prepared

(** The output checks: each optimum replays to its time and computes
    what the root computes. *)
let check_walks runs =
  List.iter
    (fun r ->
      let label = r.pw.walk.wlabel ^ " " ^ r.pw.ti.tname in
      let p, all_applied = replays r.pw.wcaps r.pw.root r.res.best_moves in
      let ok_replay = all_applied && Machine.time r.pw.ti.target p = r.res.best_time in
      if not ok_replay then fail "%s: best_moves do not replay to best_time" label;
      let ok_interp =
        match Interp.equivalent r.pw.root p with
        | Ok () -> true
        | Error e ->
            fail "%s: winner differs from root: %s" label e;
            false
      in
      if r.res.failures > 0 then fail "%s: %d guard failures" label r.res.failures;
      op (ok_replay && ok_interp && r.res.failures = 0))
    runs

let walk_winners runs =
  List.map
    (fun r ->
      {
        L.kernel = r.pw.walk.wlabel;
        entry =
          {
            Kernels.label = r.pw.walk.wlabel;
            shape_desc = r.pw.walk.wlabel;
            description = r.pw.walk.wlabel;
            build = r.pw.walk.build;
            build_small = r.pw.walk.build;
          };
        ti = r.pw.ti;
        caps = r.pw.wcaps;
        root = r.pw.root;
        moves = r.res.best_moves;
        time_s = r.res.best_time;
      })
    runs

let speedups runs =
  List.map (fun r -> Machine.time r.pw.ti.target r.pw.root /. r.res.best_time) runs

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs


(* ------------------------------------------------------------------ *)
(* Shared pieces of the traced run                                     *)
(* ------------------------------------------------------------------ *)

let work_dir = ref ".perfbench_work"
let seed_arg = ref 0

let trace_file = ref ""

(** Spans of one traced run share this identifier. *)
let run_id workload =
  Printf.sprintf "%s-seed%d-pid%d" workload !seed_arg (Unix.getpid ())

(** The per-layer metrics every workload reports; a layer the workload
    does not run reads 0, with its base beside it. *)
let layer_units =
  [
    ("search.exhaustive.self_s", "s"); ("canon.fingerprint_total_s", "s");
    ("canon.share", "ratio"); ("search.unique_ratio", "ratio");
    ("search.steps", "count"); ("canon.unique", "count");
    ("canon.total", "count"); ("canon.fingerprint_us", "us");
    ("transform.enumerate_us", "us");
    ("transform.instances_per_state", "count");
    ("transform.expanded_states", "count"); ("transform.apply_us", "us");
    ("transform.replay_us", "us"); ("transfo.enumerate_us", "us");
    ("machine.evaluate_us.cpu", "us"); ("machine.evaluate_us.snitch", "us");
    ("machine.evaluate_us.gpu", "us"); ("machine.evaluate_n.cpu", "count");
    ("machine.evaluate_n.snitch", "count"); ("machine.evaluate_n.gpu", "count");
    ("machine.evaluate_share", "ratio"); ("machine.evaluations", "count");
    ("surrogate.features_us", "us"); ("surrogate.score_us", "us");
    ("surrogate.kept_ratio", "ratio"); ("surrogate.scored", "count");
    ("tuning.db_query_us", "us"); ("tuning.db_save_ms", "ms");
    ("tuning.cache_hit_ratio", "ratio"); ("tuning.cache_lookups", "count");
    ("recover.journal_append_ms", "ms"); ("serve.frame_roundtrip_us", "us");
    ("serve.warm_inproc_us", "us"); ("serve.warm_inproc_hits", "count");
    ("serve.cold_server_ms", "ms"); ("codegen.program_ms", "ms");
    ("codegen.bytes", "bytes"); ("parallel.utilization", "ratio");
    ("parallel.tasks", "count"); ("obs.trace_overhead", "ratio");
    ("layer.states", "count");
  ]

(** Assemble the per-layer metrics from the layer replay and the
    workload's own values (which take precedence), then check the span
    tree: nothing negative, children inside parents, and the workload
    span [wl] covered by its children. *)
let layer_report ~wl ~(replay : L.result) ~samples own =
  let value name =
    match List.assoc_opt name own with
    | Some v -> v
    | None -> (
        match List.assoc_opt name replay.values with Some v -> v | None -> 0.)
  in
  let spans = Tracer.spans () in
  List.iter (fun p -> fail "trace: %s" p) (Tracer.check spans);
  (match List.find_opt (fun (s : Tracer.span) -> s.id = wl) spans with
  | None -> fail "trace: no workload span"
  | Some s ->
      let self = Hashtbl.find (Tracer.self_times spans) s.id in
      let share = 1. -. (self /. Tracer.dur s) in
      if share < 0.9 then
        fail "trace: child spans cover only %.1f%% of the workload span"
          (100. *. share));
  if !trace_file <> "" then Tracer.write !trace_file;
  List.map
    (fun (name, unit_) ->
      let n =
        if List.mem_assoc name own then samples
        else if List.mem_assoc name replay.values then replay.states
        else 0
      in
      m name unit_ n (value name))
    layer_units

(** An untraced warm-up pass 0 (the first pass of a fresh process is
    often the slowest), traced pass 1, then untraced pass 2, whose wall is
    returned as the base of the tracing overhead.  Spans are recorded for
    pass 1 and for whatever runs after this returns (the layer replay). *)
let around_traced id ~wall untraced traced =
  let warm_up = untraced 0 in
  Tracer.start_run id;
  let r = traced 1 in
  Tracer.enabled := false;
  let base = untraced 2 in
  Tracer.enabled := true;
  print_passes [ warm_up; wall r; base ];
  (r, base)

(** Share of [wall] a workload spent in the cost model, estimated from
    its evaluation counts per target family and the layer replay's
    per-call times. *)
let evaluate_share (replay : L.result) evals_by_family wall =
  let us fam =
    Option.value ~default:0. (List.assoc_opt ("machine.evaluate_us." ^ fam) replay.values)
  in
  ratio (sum (fun (fam, n) -> float_of_int n *. us fam *. 1e-6) evals_by_family) wall

(* ------------------------------------------------------------------ *)
(* exhaustive                                                          *)
(* ------------------------------------------------------------------ *)

let exhaustive ~seconds ~traced =
  let startup = if traced then 0. else startup_s () in
  let setup, prepared = timed_median setup_samples prepare_walks in
  let samples = ref [] in
  let pass ~traced ~parent metrics =
    exhaustive_pass ~traced ~parent ~metrics ~samples prepared
  in
  let wall runs = sum (fun r -> r.wall) runs in
  if not traced then begin
    let setup_s = startup +. setup in
    let rss = ref nan in
    let passes =
      repeat ~seconds (fun i ->
          let runs = pass ~traced:false ~parent:0 (Obs.Metrics.create ()) in
          if i = 0 then rss := peak_rss_mb "self";
          runs)
    in
    print_passes (List.map wall passes);
    List.iter check_walks passes;
    let n = List.length passes in
    let per_pass f = median (List.map f passes) in
    let per_wall f runs = sum (fun r -> float_of_int (f r.res)) runs /. wall runs in
    let certified runs =
      float_of_int (List.length (List.filter (fun r -> r.res.certified) runs))
    in
    let walks_n = List.length walks in
    [
      m "setup_s" "s" setup_samples setup_s;
      m "wall_s" "s" n (per_pass wall);
      m "evals_per_s" "1/s" n
        (per_pass (per_wall (fun (r : Search.Exhaustive.result) -> r.evals)));
      m "states_per_s" "1/s" n
        (per_pass (per_wall (fun (r : Search.Exhaustive.result) -> r.total)));
      m "certified" "count" walks_n (per_pass certified);
      m "geomean_speedup" "x" walks_n (geomean (speedups (List.hd passes)));
      m "peak_rss_mb" "MB" 1 !rss;
    ]
  end
  else begin
    let untraced _ = wall (pass ~traced:false ~parent:0 (Obs.Metrics.create ())) in
    let metrics = Obs.Metrics.create () in
    let (runs, wl), untraced_wall =
      around_traced (run_id "exhaustive") ~wall:(fun (runs, _) -> wall runs) untraced (fun _ ->
          Tracer.with_span "workload.exhaustive" (fun wl ->
              (pass ~traced:true ~parent:wl metrics, wl)))
    in
    check_walks runs;
    let winners = walk_winners runs in
    let replay =
      L.run ~parent:0 ~work:!work_dir
        ~kernels:(List.map (fun (w : L.winner) -> w.entry) winners)
        ~states:!samples ~winners
    in
    let wall_t = wall runs in
    let eval_s = sum (fun r -> r.eval_s) runs in
    let total = counter metrics "canon.total" in
    let unique = counter metrics "canon.unique" in
    let fp_total =
      List.assoc "canon.fingerprint_us" replay.values *. total *. 1e-6
    in
    let expanded = List.fold_left (fun a r -> a + r.expanded) 0 runs in
    let filtered = List.fold_left (fun a r -> a + r.filtered) 0 runs in
    layer_report ~wl ~replay ~samples:(List.length runs)
      [
        ("search.exhaustive.self_s", wall_t -. eval_s);
        ("search.unique_ratio", ratio unique total);
        ("search.steps", counter metrics "search.steps");
        ("canon.unique", unique);
        ("canon.total", total);
        ("canon.fingerprint_total_s", fp_total);
        ("canon.share", ratio fp_total wall_t);
        ("transform.instances_per_state", ratio (float_of_int filtered) (float_of_int expanded));
        ("transform.expanded_states", float_of_int expanded);
        ("machine.evaluate_share", ratio eval_s wall_t);
        ("machine.evaluations", sum (fun r -> float_of_int r.res.evals) runs);
        ("obs.trace_overhead", ratio wall_t untraced_wall);
      ]
  end

(* ------------------------------------------------------------------ *)
(* libgen                                                              *)
(* ------------------------------------------------------------------ *)

let libgen_targets = [ "x86"; "snitch" ]

type libgen_pass = {
  lib : Libgen.library;
  db : Tuning.Db.t;
  lmetrics : Obs.Metrics.t;
  lsetup : float;
  lwall : float;
}

(** One suite generation from an empty database into a fresh directory,
    checkpointing the database after every deposit. *)
let libgen_pass ~seed ~parent i =
  let dir = Filename.concat !work_dir (Printf.sprintf "libgen-%d" i) in
  let t0 = now () in
  Sys.mkdir dir 0o755;
  let db = Tuning.Db.create () in
  let lmetrics = Obs.Metrics.create () in
  let ctx =
    Ctx.(
      default |> with_seed seed |> with_jobs 2
      |> with_cache (Tuning.Cache.create ())
      |> with_metrics lmetrics)
  in
  let lsetup = now () -. t0 in
  let t1 = now () in
  let lib =
    Tracer.with_span ~parent "libgen.generate" (fun _ ->
        Libgen.generate ~db
          ~db_file:(Filename.concat dir "tune.jsonl")
          ~ctx ~targets:libgen_targets
          ~out:(Filename.concat dir "lib")
          ())
  in
  { lib; db; lmetrics; lsetup; lwall = now () -. t1 }

let entry_key (e : Libgen.entry) = (e.kernel, e.target, e.moves, e.time_s, e.status)

(** The output checks: nothing degraded, and every entry's moves replay
    from the root to its recorded time, fingerprint and deposit.  Later
    passes of the same seed must reproduce the first pass's entries. *)
let check_library ~first (p : libgen_pass) =
  List.iter
    (fun (e : Libgen.entry) ->
      let label = e.kernel ^ "/" ^ e.target in
      let ok =
        match first with
        | Some (f : libgen_pass) ->
            let same =
              List.exists (fun g -> entry_key g = entry_key e) f.lib.entries
            in
            if not same then fail "%s: differs from the first pass" label;
            same
        | None ->
            let ti = L.target_info e.target in
            let root = (entry_of e.kernel).build () in
            let q, all_applied = replays ti.caps root e.moves in
            let checks =
              [
                (e.status <> Libgen.Degraded, "degraded");
                (e.failures = 0, "guard failures");
                (all_applied, "moves do not replay");
                (Machine.time ti.target q = e.time_s, "replayed time differs");
                (Tuning.Record.fingerprint root = e.fingerprint, "fingerprint differs");
                ( (match Tuning.Db.best p.db ~kernel:e.kernel ~target:e.target with
                  | Some r -> r.moves = e.moves && r.best_time = e.time_s
                  | None -> false),
                  "deposit differs" );
                ( Sys.file_exists (Filename.concat p.lib.out_dir e.c_file),
                  "no C file" );
              ]
            in
            List.iter (fun (ok, what) -> if not ok then fail "%s: %s" label what) checks;
            List.for_all fst checks
      in
      op ok)
    p.lib.entries

let lib_speedup (p : libgen_pass) =
  geomean (List.map (fun (e : Libgen.entry) -> e.naive_s /. e.time_s) p.lib.entries)

let lib_evals (p : libgen_pass) =
  List.fold_left (fun a (e : Libgen.entry) -> a + e.evaluations) 0 p.lib.entries

let libgen ~seed ~seconds ~traced =
  if not traced then begin
    let startup = startup_s () in
    let rss = ref nan in
    let passes =
      repeat ~seconds (fun i ->
          let p = libgen_pass ~seed ~parent:0 i in
          if i = 0 then rss := peak_rss_mb "self";
          p)
    in
    print_passes (List.map (fun p -> p.lwall) passes);
    let first = List.hd passes in
    check_library ~first:None first;
    List.iter (check_library ~first:(Some first)) (List.tl passes);
    let n = List.length passes in
    let per_pass f = median (List.map f passes) in
    let pairs = List.length first.lib.entries in
    [
      m "setup_s" "s" n (startup +. per_pass (fun p -> p.lsetup));
      m "wall_s" "s" n (per_pass (fun p -> p.lwall));
      m "evals_per_s" "1/s" n
        (per_pass (fun p -> float_of_int (lib_evals p) /. p.lwall));
      m "geomean_speedup" "x" pairs (lib_speedup first);
      m "peak_rss_mb" "MB" 1 !rss;
    ]
  end
  else begin
    let (p, wl), untraced_wall =
      around_traced (run_id "libgen") ~wall:(fun (p, _) -> p.lwall)
        (fun i -> (libgen_pass ~seed ~parent:0 i).lwall)
        (fun i ->
          Tracer.with_span "workload.libgen" (fun wl ->
              (libgen_pass ~seed ~parent:wl i, wl)))
    in
    check_library ~first:None p;
    let winners =
      List.map
        (fun (e : Libgen.entry) ->
          let entry = entry_of e.kernel in
          let ti = L.target_info e.target in
          { L.kernel = e.kernel; entry; ti; caps = ti.caps; root = entry.build ();
            moves = e.moves; time_s = e.time_s })
        p.lib.entries
    in
    let replay =
      L.run ~parent:0 ~work:!work_dir ~kernels:(Libgen.default_kernels ())
        ~states:[] ~winners
    in
    let ms = p.lmetrics in
    let hits = counter ms "cache.hits" and misses = counter ms "cache.misses" in
    let evals_by_family =
      List.map
        (fun (e : Libgen.entry) ->
          (L.family (L.target_info e.target).target, e.evaluations))
        p.lib.entries
    in
    layer_report ~wl ~replay ~samples:1
      [
        ("search.steps", counter ms "search.steps");
        ("canon.unique", counter ms "canon.unique");
        ("canon.total", counter ms "canon.total");
        ("search.unique_ratio", ratio (counter ms "canon.unique") (counter ms "canon.total"));
        ("machine.evaluations", float_of_int (lib_evals p));
        ("machine.evaluate_share", evaluate_share replay evals_by_family p.lwall);
        ("tuning.cache_hit_ratio", ratio hits (hits +. misses));
        ("tuning.cache_lookups", hits +. misses);
        ( "parallel.utilization",
          Option.value ~default:0. (Obs.Metrics.gauge ms "pool.utilization") );
        ( "parallel.tasks",
          Option.value ~default:0. (Obs.Metrics.gauge ms "pool.tasks") );
        ("obs.trace_overhead", ratio p.lwall untraced_wall);
      ]
  end

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_targets = [ "x86"; "arm"; "snitch"; "gh200"; "mi300a" ]
let perfdojo_exe = ref ""

type pair = { pk : Kernels.entry; pti : L.target_info }

type deposit = {
  dpair : pair;
  dtime : float;
  dscript : string;
  dmoves : string list;
}

type daemon = { pid : int; sock : string; conn : Serve.Client.t; ready_s : float }

let request_deadline_ms = 120_000

let request c req = Serve.Client.request ~deadline_ms:request_deadline_ms c req

(** Spawn [perfdojo serve] on a fresh socket and empty database; ready
    once it answers a [stats] request. *)
let spawn_daemon ~seed tag =
  let path ext = Filename.concat !work_dir (tag ^ ext) in
  let sock = path ".sock" in
  let args =
    [|
      !perfdojo_exe; "serve"; "--socket"; sock; "--db"; path ".jsonl";
      "--jobs"; "1"; "--surrogate"; "--filter-ratio"; "0.25";
      "--visited-dedup"; "--seed"; string_of_int seed;
    |]
  in
  let null = devnull () in
  let log =
    Unix.openfile (path ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t0 = now () in
  let pid = Unix.create_process !perfdojo_exe args null null log in
  live := pid :: !live;
  Unix.close null;
  Unix.close log;
  let rec ready () =
    if now () -. t0 > 60. then failwith ("serve daemon did not start: see " ^ path ".log");
    match Serve.Client.connect sock with
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.002;
        ready ()
    | c -> (
        match request c (P.Stats { id = 0 }) with
        | Ok (P.Stats_reply _) -> c
        | _ ->
            Serve.Client.close c;
            Unix.sleepf 0.002;
            ready ())
  in
  let conn = ready () in
  { pid; sock; conn; ready_s = now () -. t0 }

let stop_daemon d =
  (match request d.conn (P.Shutdown { id = 0 }) with
  | Ok (P.Shutdown_ack _) -> ()
  | _ -> fail "serve: shutdown was not acknowledged");
  Serve.Client.close d.conn;
  reap d.pid

type serve_pass = {
  ssetup : float;
  cold_wall : float;
  cold_lat : float list;
  warm_lat : float list;
  cold_evals : int;
  deposits : deposit list;
  counters : (string * int) list;
  gauges : (string * float) list;
  daemon_rss : float;
}

let percentile q xs = Util.Stats.quantile q (Array.of_list xs)

(* Interval between warm requests.  A saturating warm loop forces a
   runtime-lock hand-off in the daemon thousands of times a second, and
   the cold search's speed then followed the scheduler rather than the
   program; at this rate a 30 s pass still gives about 10 000 warm
   samples, ten beyond p99.9. *)
let warm_period_s = 0.003

(** One session against a fresh daemon: connection 1 issues a cold
    [optimize] for every pair in [order]; connection 2 alternates warm
    [optimize] and [query] over the pairs already deposited, one every
    [warm_period_s], until connection 1 is done.  Every reply is checked
    against the pair's cold deposit. *)
let serve_pass ~seed ~parent ~(order : pair array) i =
  let d =
    Tracer.with_span ~parent "serve.spawn" (fun _ ->
        spawn_daemon ~seed (Printf.sprintf "serve-%d" i))
  in
  let c2 = Serve.Client.connect d.sock in
  let n = Array.length order in
  let deposited = Array.make n None in
  let n_dep = ref 0 in
  let lock = Mutex.create () and cond = Condition.create () in
  let cold_done = Atomic.make false in
  let warm_lat = ref [] in
  let warm () =
    let rng = Util.Rng.create (seed + 7919) in
    Mutex.lock lock;
    while !n_dep = 0 && not (Atomic.get cold_done) do
      Condition.wait cond lock
    done;
    Mutex.unlock lock;
    let k = ref 0 in
    let transport_failed = ref false in
    let next = ref (now ()) in
    while not (Atomic.get cold_done || !transport_failed) do
      (* Paced, not saturating: a late request is sent at once, but a
         backlog is never made up in a burst. *)
      next := Float.max (now ()) (!next +. warm_period_s);
      let wait = !next -. now () in
      if wait > 0. then Unix.sleepf wait;
      Mutex.lock lock;
      let dep = Option.get deposited.(Util.Rng.int rng !n_dep) in
      Mutex.unlock lock;
      let kernel = dep.dpair.pk.label and target = dep.dpair.pti.tname in
      let query = !k land 1 = 1 in
      incr k;
      let req =
        if query then P.Query { id = !k; kernel; target }
        else
          P.Optimize
            { id = !k; kernel; target; strategy = "annealing"; budget = 0;
              deadline_ms = 0; force = false }
      in
      let t0 = now () in
      let r =
        try request c2 req
        with Unix.Unix_error (e, _, _) ->
          transport_failed := true;
          Error (Serve.Client.Transport (Unix.error_message e))
      in
      let t1 = now () in
      Tracer.record ~parent (if query then "serve.client.query" else "serve.client.warm") t0 t1;
      warm_lat := (t1 -. t0) :: !warm_lat;
      let ok =
        match r with
        | Ok (P.Optimized o) ->
            (not query) && o.warm && o.time_s = dep.dtime
            && o.script = dep.dscript && o.moves = dep.dmoves
        | Ok (P.Queried q) ->
            query && q.found && q.time_s = dep.dtime && q.moves = dep.dmoves
        | Ok other -> fail "serve: warm reply %s" (P.response_kind other); false
        | Error e -> fail "serve: warm request: %s" (Serve.Client.error_message e); false
      in
      if not ok then fail "serve: warm reply for %s/%s differs from its deposit" kernel target;
      op ok
    done
  in
  let warm_thread = Thread.create warm () in
  let cold_lat = ref [] and cold_evals = ref 0 in
  let t_cold = now () in
  Array.iteri
    (fun j pr ->
      let kernel = pr.pk.label and target = pr.pti.tname in
      let req =
        P.Optimize
          { id = j + 1; kernel; target; strategy = "annealing"; budget = 0;
            deadline_ms = 0; force = false }
      in
      let t0 = now () in
      let r = request d.conn req in
      let t1 = now () in
      Tracer.record ~parent "serve.client.cold" t0 t1;
      cold_lat := (t1 -. t0) :: !cold_lat;
      let ok =
        match r with
        | Ok (P.Optimized o) when not o.warm ->
            cold_evals := !cold_evals + o.evaluations;
            Mutex.lock lock;
            deposited.(!n_dep) <-
              Some { dpair = pr; dtime = o.time_s; dscript = o.script; dmoves = o.moves };
            incr n_dep;
            Condition.signal cond;
            Mutex.unlock lock;
            if o.failures > 0 then fail "serve: %s/%s: %d guard failures" kernel target o.failures;
            o.failures = 0
        | Ok other ->
            fail "serve: cold %s/%s answered %s" kernel target (P.response_kind other);
            false
        | Error e ->
            fail "serve: cold %s/%s: %s" kernel target (Serve.Client.error_message e);
            false
      in
      op ok)
    order;
  let cold_wall = now () -. t_cold in
  Mutex.lock lock;
  Atomic.set cold_done true;
  Condition.broadcast cond;
  Mutex.unlock lock;
  Thread.join warm_thread;
  Serve.Client.close c2;
  let counters, gauges =
    match request d.conn (P.Stats { id = 0 }) with
    | Ok (P.Stats_reply s) -> (s.counters, s.gauges)
    | _ ->
        fail "serve: no stats reply";
        ([], [])
  in
  let daemon_rss = peak_rss_mb (string_of_int d.pid) in
  Tracer.with_span ~parent "serve.shutdown" (fun _ -> stop_daemon d);
  {
    ssetup = d.ready_s;
    cold_wall;
    cold_lat = !cold_lat;
    warm_lat = !warm_lat;
    cold_evals = !cold_evals;
    deposits = List.filter_map Fun.id (Array.to_list deposited);
    counters;
    gauges;
    daemon_rss;
  }

let serve_order seed =
  let pairs =
    Array.of_list
      (List.concat_map
         (fun t ->
           let pti = L.target_info t in
           List.map (fun pk -> { pk; pti }) (Libgen.default_kernels ()))
         serve_targets)
  in
  Util.Rng.shuffle_in_place (Util.Rng.create seed) pairs;
  pairs

let serve_speedup (p : serve_pass) =
  geomean
    (List.map
       (fun dep ->
         Machine.time dep.dpair.pti.target (dep.dpair.pk.build ()) /. dep.dtime)
       p.deposits)

(* Extra set-up samples for serve: daemons spawned, readied and shut
   down before the passes, so the set-up median does not rest on the one
   or two daemons the passes spawn. *)
let serve_probes = 9

let serve ~seed ~seconds ~traced =
  let order = serve_order seed in
  let warm_count p = float_of_int (List.length p.warm_lat) in
  if not traced then begin
    let probes =
      List.init serve_probes (fun i ->
          let d = spawn_daemon ~seed (Printf.sprintf "probe-%d" i) in
          stop_daemon d;
          d.ready_s)
    in
    let passes = repeat ~seconds (serve_pass ~seed ~parent:0 ~order) in
    print_passes (List.map (fun p -> p.cold_wall) passes);
    let n = List.length passes in
    let per_pass f = median (List.map f passes) in
    let first = List.hd passes in
    List.iter
      (fun p ->
        if List.length p.deposits <> Array.length order then
          fail "serve: %d of %d pairs deposited" (List.length p.deposits) (Array.length order))
      passes;
    [
      m "setup_s" "s" (n + serve_probes) (median (probes @ List.map (fun p -> p.ssetup) passes));
      m "wall_s" "s" n (per_pass (fun p -> p.cold_wall));
      m "evals_per_s" "1/s" n
        (per_pass (fun p -> float_of_int p.cold_evals /. p.cold_wall));
      m "geomean_speedup" "x" (List.length first.deposits) (serve_speedup first);
      m "peak_rss_mb" "MB" n (per_pass (fun p -> p.daemon_rss));
      m "warm_p50_us" "us" (int_of_float (per_pass warm_count))
        (per_pass (fun p -> 1e6 *. percentile 0.5 p.warm_lat));
      m "warm_p99_us" "us" (int_of_float (per_pass warm_count))
        (per_pass (fun p -> 1e6 *. percentile 0.99 p.warm_lat));
      m "warm_p999_us" "us" (int_of_float (per_pass warm_count))
        (per_pass (fun p -> 1e6 *. percentile 0.999 p.warm_lat));
      m "warm_req_per_s" "1/s" n (per_pass (fun p -> warm_count p /. p.cold_wall));
      m "cold_p50_ms" "ms" (Array.length order)
        (per_pass (fun p -> 1e3 *. percentile 0.5 p.cold_lat));
      m "cold_p90_ms" "ms" (Array.length order)
        (per_pass (fun p -> 1e3 *. percentile 0.9 p.cold_lat));
    ]
  end
  else begin
    let (p, wl), untraced_wall =
      around_traced (run_id "serve") ~wall:(fun (p, _) -> p.cold_wall)
        (fun i -> (serve_pass ~seed ~parent:0 ~order i).cold_wall)
        (fun i ->
          Tracer.with_span "workload.serve" (fun wl ->
              (serve_pass ~seed ~parent:wl ~order i, wl)))
    in
    let winners =
      List.map
        (fun dep ->
          let ti = dep.dpair.pti in
          { L.kernel = dep.dpair.pk.label; entry = dep.dpair.pk; ti; caps = ti.caps;
            root = dep.dpair.pk.build (); moves = dep.dmoves; time_s = dep.dtime })
        p.deposits
    in
    let replay =
      L.run ~parent:0 ~work:!work_dir ~kernels:(Libgen.default_kernels ())
        ~states:[] ~winners
    in
    let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name p.counters)) in
    let g name = Option.value ~default:0. (List.assoc_opt name p.gauges) in
    let hits = c "cache.hits" and misses = c "cache.misses" in
    let evals_by_family =
      (* cold evaluations are reported per request; spread them over the
         target families in proportion to the pairs *)
      let per_pair = float_of_int p.cold_evals /. float_of_int (max 1 (List.length p.deposits)) in
      List.map (fun dep -> (L.family dep.dpair.pti.target, int_of_float per_pair)) p.deposits
    in
    layer_report ~wl ~replay ~samples:1
      [
        ("search.steps", c "search.steps");
        ("canon.unique", c "canon.unique");
        ("canon.total", c "canon.total");
        ("search.unique_ratio", ratio (c "canon.unique") (c "canon.total"));
        ("machine.evaluations", float_of_int p.cold_evals);
        ("machine.evaluate_share", evaluate_share replay evals_by_family p.cold_wall);
        ("surrogate.scored", c "surrogate.scored");
        ("surrogate.kept_ratio", ratio (c "surrogate.kept") (c "surrogate.scored"));
        ("tuning.cache_hit_ratio", ratio hits (hits +. misses));
        ("tuning.cache_lookups", hits +. misses);
        ("serve.cold_server_ms", 1e3 *. g "serve.latency_cold_s.p50");
        ("parallel.utilization", g "pool.utilization");
        ("parallel.tasks", g "pool.tasks");
        ("obs.trace_overhead", ratio p.cold_wall untraced_wall);
      ]
  end

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--probe" ] then exit 0;
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ ->
        prerr_endline ("perfbench: unexpected argument " ^ a);
        exit 2
  in
  let opts = parse [] args in
  let get k =
    match List.assoc_opt k opts with
    | Some v -> v
    | None ->
        prerr_endline ("perfbench: missing --" ^ k);
        exit 2
  in
  let workload = get "workload" in
  let seed = int_of_string (get "seed") in
  seed_arg := seed;
  let seconds = float_of_string (get "seconds") in
  let traced = get "trace" = "1" in
  perfdojo_exe := get "perfdojo";
  work_dir := get "work";
  trace_file := Option.value ~default:"" (List.assoc_opt "trace-file" opts);
  rm_rf !work_dir;
  mkdir_p !work_dir;
  let ms =
    match workload with
    | "exhaustive" -> exhaustive ~seconds ~traced
    | "libgen" -> libgen ~seed ~seconds ~traced
    | "serve" -> serve ~seed ~seconds ~traced
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  let ms =
    if traced then ms
    else
      ms
      @ [
          m "failed_ratio" "ratio" !attempted
            (ratio (float_of_int !failed) (float_of_int (max 1 !attempted)));
        ]
  in
  report ms (if traced then List.map fst layer_units else end_to_end)
