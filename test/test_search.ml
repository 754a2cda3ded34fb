(* Tests for the optimization passes and stochastic search. *)

open Machine

let sn = Desc.snitch_cluster
let target_sn = Desc.Snitch sn
let caps_sn = Desc.caps_of target_sn
let avx = Desc.avx512_cpu
let target_cpu = Desc.Cpu avx
let caps_cpu = Desc.caps_of target_cpu

let equivalent_to label reference prog =
  (* passes must preserve semantics like single moves do; check on the
     small variant of the same kernel builder *)
  match Interp.equivalent ~tol:1e-4 reference prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

let pass_semantic_tests =
  let passes =
    [
      ("naive", fun caps p -> Search.Passes.naive caps p);
      ("greedy", fun caps p -> Search.Passes.greedy caps p);
      ("heuristic", fun caps p -> Search.Passes.heuristic caps p);
      ("cpu_heuristic", fun caps p -> Search.Passes.cpu_heuristic caps p);
      ("tile_sink_unroll", fun caps p -> Search.Passes.tile_sink_unroll caps 4 p);
    ]
  in
  List.concat_map
    (fun (pname, pass) ->
      List.map
        (fun (e : Kernels.entry) ->
          Alcotest.test_case
            (Printf.sprintf "%s preserves %s" pname e.label)
            `Quick
            (fun () ->
              let p = e.build_small () in
              let caps = if pname = "cpu_heuristic" then caps_cpu else caps_sn in
              let p' = pass caps p in
              (match Ir.Validate.check p' with
              | [] -> ()
              | errs ->
                  Alcotest.failf "%s/%s invalid: %s" pname e.label
                    (String.concat "; "
                       (List.map Ir.Validate.error_to_string errs)));
              equivalent_to (pname ^ "/" ^ e.label) p p'))
        (Kernels.snitch_micro @ [ List.nth Kernels.table3 14 (* softmax *) ]))
    passes

let gpu_pass_tests =
  let gh = Desc.gh200 in
  let caps_gpu = Desc.caps_of (Desc.Gpu gh) in
  List.map
    (fun (e : Kernels.entry) ->
      Alcotest.test_case ("gpu_heuristic preserves " ^ e.label) `Quick
        (fun () ->
          let p = e.build_small () in
          let p' = Search.Passes.gpu_heuristic caps_gpu p in
          Ir.Validate.check_exn p';
          equivalent_to ("gpu/" ^ e.label) p p'))
    Kernels.table3

let improvement_tests =
  [
    Alcotest.test_case "snitch heuristic never loses to naive" `Quick
      (fun () ->
        List.iter
          (fun (e : Kernels.entry) ->
            let p = e.build () in
            let tn = Snitch_sim.time sn (Search.Passes.naive caps_sn p) in
            let th = Snitch_sim.time sn (Search.Passes.heuristic caps_sn p) in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.3e <= %.3e" e.label th tn)
              true
              (th <= tn *. 1.001))
          Kernels.snitch_micro);
    Alcotest.test_case "cpu heuristic helps large elementwise" `Quick
      (fun () ->
        let p = Kernels.relu ~n:4096 ~m:4096 in
        let h = Search.Passes.cpu_heuristic caps_cpu p in
        Alcotest.(check bool) "faster" true
          (Cpu_model.time avx h < Cpu_model.time avx p));
  ]

let objective target p = Machine.time target p

let stochastic_tests =
  [
    Alcotest.test_case "sampling improves over the root" `Quick (fun () ->
        let p = Kernels.softmax ~n:64 ~m:64 in
        let r =
          Search.Stochastic.random_sampling ~seed:3
            ~space:Search.Stochastic.Edges ~budget:60 caps_cpu
            (objective target_cpu) p
        in
        Alcotest.(check bool) "improved" true
          (r.best_time <= objective target_cpu p);
        Alcotest.(check int) "budget respected" 60 r.evals);
    Alcotest.test_case "annealing improves over the root" `Quick (fun () ->
        let p = Kernels.gemv ~m:64 ~n:64 in
        let r =
          Search.Stochastic.simulated_annealing ~seed:3
            ~space:Search.Stochastic.Heuristic ~budget:60 caps_sn
            (objective target_sn) p
        in
        Alcotest.(check bool) "improved" true
          (r.best_time <= objective target_sn p));
    Alcotest.test_case "curves are monotonically non-increasing" `Quick
      (fun () ->
        let p = Kernels.scale ~n:256 in
        let r =
          Search.Stochastic.random_sampling ~seed:5
            ~space:Search.Stochastic.Heuristic ~budget:40 caps_sn
            (objective target_sn) p
        in
        let ok = ref true in
        for i = 1 to Array.length r.curve - 1 do
          if r.curve.(i) > r.curve.(i - 1) +. 1e-15 then ok := false
        done;
        Alcotest.(check bool) "monotone" true !ok);
    Alcotest.test_case "a negative budget is a typed error" `Quick
      (fun () ->
        let p = Kernels.scale ~n:16 in
        let expected = Invalid_argument "Stochastic: budget must be >= 0" in
        List.iter
          (fun batch ->
            Alcotest.check_raises
              (Printf.sprintf "sampling, batch %d" batch)
              expected
              (fun () ->
                ignore
                  (Search.Stochastic.random_sampling ~batch
                     ~space:Search.Stochastic.Heuristic ~budget:(-1) caps_sn
                     (objective target_sn) p));
            Alcotest.check_raises
              (Printf.sprintf "annealing, batch %d" batch)
              expected
              (fun () ->
                ignore
                  (Search.Stochastic.simulated_annealing ~batch
                     ~space:Search.Stochastic.Heuristic ~budget:(-1) caps_sn
                     (objective target_sn) p)))
          [ 1; 8 ]);
    Alcotest.test_case "best_moves replays to best program" `Quick (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let r =
          Search.Stochastic.simulated_annealing ~seed:9
            ~space:Search.Stochastic.Edges ~budget:50 caps_sn
            (objective target_sn) p
        in
        let replayed, applied =
          Search.Stochastic.replay_skipping caps_sn p r.best_moves
        in
        Alcotest.(check int) "all moves applied" (List.length r.best_moves)
          (List.length applied);
        Alcotest.(check bool) "same program" true (replayed = r.best);
        equivalent_to "search result" p r.best);
    Alcotest.test_case "search results preserve semantics" `Quick (fun () ->
        let p = Kernels.softmax ~n:8 ~m:16 in
        List.iter
          (fun space ->
            let r =
              Search.Stochastic.random_sampling ~seed:2 ~space ~budget:40
                caps_cpu (objective target_cpu) p
            in
            equivalent_to "sampled best" p r.best)
          [ Search.Stochastic.Edges; Search.Stochastic.Heuristic ]);
    Alcotest.test_case "filter restricts the move set" `Quick (fun () ->
        let p = Kernels.softmax ~n:16 ~m:16 in
        let filter (i : Transform.Xforms.instance) =
          i.xname = "split_scope"
        in
        let r =
          Search.Stochastic.random_sampling ~seed:4 ~filter
            ~space:Search.Stochastic.Edges ~budget:30 caps_cpu
            (objective target_cpu) p
        in
        List.iter
          (fun m ->
            Alcotest.(check bool)
              (m ^ " is a split")
              true
              (String.length m >= 11 && String.sub m 0 11 = "split_scope"))
          r.best_moves);
    Alcotest.test_case "deterministic under the same seed" `Quick (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let run () =
          (Search.Stochastic.simulated_annealing ~seed:42
             ~space:Search.Stochastic.Heuristic ~budget:40 caps_sn
             (objective target_sn) p)
            .best_time
        in
        Alcotest.(check (float 0.0)) "same result" (run ()) (run ()));
  ]

let mutation_tests =
  [
    Alcotest.test_case "replay_skipping skips stale moves" `Quick (fun () ->
        let p = Kernels.relu ~n:8 ~m:8 in
        let final, applied =
          Search.Stochastic.replay_skipping caps_cpu p
            [
              "split_scope([0] factor 2)";
              "split_scope([0] factor 2)" (* now size 4: still divisible *);
              "bogus(move)";
            ]
        in
        Alcotest.(check int) "two applied" 2 (List.length applied);
        Ir.Validate.check_exn final);
  ]

(* search_golden.txt (written by gen_search_golden.exe) pins every
   engine's trajectory: best time bits, accounting, curve digest and
   best moves must reproduce byte for byte. *)
let golden_tests =
  [
    Alcotest.test_case "trajectories match the golden file" `Quick (fun () ->
        let recorded =
          In_channel.with_open_text "search_golden.txt" In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        in
        let fresh = List.map snd (Search_golden.cases ()) in
        Alcotest.(check int)
          "case count" (List.length recorded) (List.length fresh);
        List.iter2 (Alcotest.(check string) "trajectory") recorded fresh);
  ]

(* Batched-parallel search: the contract is that the trajectory depends
   on (seed, batch) but never on how many domains evaluate it. *)
let parallel_search_tests =
  let check_result_equal label (a : Search.Stochastic.result)
      (b : Search.Stochastic.result) =
    Alcotest.(check (float 0.0)) (label ^ ": best_time") a.best_time b.best_time;
    Alcotest.(check (list string))
      (label ^ ": best_moves") a.best_moves b.best_moves;
    Alcotest.(check (array (float 0.0))) (label ^ ": curve") a.curve b.curve;
    Alcotest.(check int) (label ^ ": evals") a.evals b.evals
  in
  [
    Alcotest.test_case "annealing: jobs=1 and jobs=4 agree exactly" `Quick
      (fun () ->
        let p = Kernels.softmax ~n:16 ~m:16 in
        let run jobs =
          Parallel.Pool.with_pool ~jobs (fun pool ->
              Search.Stochastic.simulated_annealing ~batch:8 ~seed:7 ~pool
                ~space:Search.Stochastic.Heuristic ~budget:40 caps_cpu
                (objective target_cpu) p)
        in
        check_result_equal "annealing" (run 1) (run 4));
    Alcotest.test_case "sampling: jobs=1 and jobs=4 agree exactly" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let run jobs =
          Parallel.Pool.with_pool ~jobs (fun pool ->
              Search.Stochastic.random_sampling ~batch:8 ~seed:5 ~pool
                ~space:Search.Stochastic.Edges ~budget:40 caps_sn
                (objective target_sn) p)
        in
        check_result_equal "sampling" (run 1) (run 4));
    Alcotest.test_case "parallel runs are repeatable under one pool" `Quick
      (fun () ->
        let p = Kernels.relu ~n:16 ~m:16 in
        Parallel.Pool.with_pool ~jobs:3 (fun pool ->
            let run () =
              Search.Stochastic.simulated_annealing ~batch:8 ~seed:9 ~pool
                ~space:Search.Stochastic.Heuristic ~budget:30 caps_cpu
                (objective target_cpu) p
            in
            check_result_equal "repeat" (run ()) (run ())));
    Alcotest.test_case "parallel best preserves semantics" `Quick (fun () ->
        let p = Kernels.softmax ~n:8 ~m:8 in
        let r =
          Parallel.Pool.with_pool ~jobs:4 (fun pool ->
              Search.Stochastic.simulated_annealing ~batch:8 ~seed:3 ~pool
                ~space:Search.Stochastic.Heuristic ~budget:30 caps_cpu
                (objective target_cpu) p)
        in
        Ir.Validate.check_exn r.best;
        equivalent_to "parallel annealed best" p r.best);
    Alcotest.test_case "parallel curve is best-so-far monotone" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let r =
          Parallel.Pool.with_pool ~jobs:2 (fun pool ->
              Search.Stochastic.random_sampling ~batch:8 ~seed:2 ~pool
                ~space:Search.Stochastic.Heuristic ~budget:35 caps_sn
                (objective target_sn) p)
        in
        Alcotest.(check int) "curve length" 35 (Array.length r.curve);
        Array.iteri
          (fun i v ->
            if i > 0 then
              Alcotest.(check bool) "non-increasing" true (v <= r.curve.(i - 1)))
          r.curve;
        Alcotest.(check (float 0.0)) "last point is the best"
          r.best_time
          r.curve.(Array.length r.curve - 1));
  ]

let exhaustive_tests =
  let run_ex ?obs ~depth caps target p =
    Search.Exhaustive.run ?obs ~depth caps (objective target) p
  in
  [
    Alcotest.test_case "certifies the within-depth optimum on scale" `Quick
      (fun () ->
        let p = Kernels.scale ~n:16 in
        let r = run_ex ~depth:3 caps_sn target_sn p in
        Alcotest.(check bool) "certified" true r.certified;
        Alcotest.(check bool) "dedup found duplicates" true
          (r.unique < r.total);
        Alcotest.(check bool) "beats the root" true
          (r.best_time <= objective target_sn p);
        (* no random walk of <= depth moves may beat the certificate *)
        let rng = Util.Rng.create 42 in
        for _ = 1 to 200 do
          let q = ref p in
          for _ = 1 to 3 do
            let insts = Transform.Xforms.all caps_sn !q in
            if insts <> [] then
              let i =
                List.nth insts (Util.Rng.int rng (List.length insts))
              in
              q := i.Transform.Xforms.apply !q
          done;
          Alcotest.(check bool) "certificate holds" true
            (objective target_sn !q >= r.best_time -. 1e-12)
        done);
    Alcotest.test_case "stochastic never beats the certified optimum" `Quick
      (fun () ->
        (* on these kernels the depth-3 optimum is also the empirical
           global one (depth 5 and budget-300 runs agree), so the
           certificate bounds any stochastic run *)
        List.iter
          (fun (label, p, caps, target) ->
            let ex = run_ex ~depth:3 caps target p in
            List.iter
              (fun seed ->
                let s =
                  Search.Stochastic.simulated_annealing ~seed
                    ~space:Search.Stochastic.Heuristic ~budget:60 caps
                    (objective target) p
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s seed %d: %.3e >= %.3e" label seed
                     s.best_time ex.best_time)
                  true
                  (s.best_time >= ex.best_time -. 1e-15))
              [ 1; 2; 3 ])
          [
            ("scale", Kernels.scale ~n:16, caps_sn, target_sn);
            ("relu", Kernels.relu ~n:8 ~m:8, caps_cpu, target_cpu);
          ]);
    Alcotest.test_case "optimum improves monotonically with depth" `Quick
      (fun () ->
        let p = Kernels.relu ~n:4 ~m:4 in
        let t1 = (run_ex ~depth:1 caps_cpu target_cpu p).best_time in
        let t2 = (run_ex ~depth:2 caps_cpu target_cpu p).best_time in
        let t3 = (run_ex ~depth:3 caps_cpu target_cpu p).best_time in
        Alcotest.(check bool) "d2 <= d1" true (t2 <= t1);
        Alcotest.(check bool) "d3 <= d2" true (t3 <= t2));
    Alcotest.test_case "best_moves replay to the reported best" `Quick
      (fun () ->
        let p = Kernels.scale ~n:16 in
        let r = run_ex ~depth:3 caps_sn target_sn p in
        let q, applied =
          Search.Stochastic.replay_skipping caps_sn p r.best_moves
        in
        Alcotest.(check int) "every move applies"
          (List.length r.best_moves)
          (List.length applied);
        Alcotest.(check (float 1e-12)) "same runtime" r.best_time
          (objective target_sn q);
        equivalent_to "exhaustive best" p r.best);
    Alcotest.test_case "depth 0 returns the root" `Quick (fun () ->
        let p = Kernels.scale ~n:16 in
        let r = run_ex ~depth:0 caps_sn target_sn p in
        Alcotest.(check int) "one state" 1 r.unique;
        Alcotest.(check int) "one eval" 1 r.evals;
        Alcotest.(check bool) "exhausted is false under depth 0" false
          r.exhausted;
        Alcotest.(check (float 0.0)) "root time" (objective target_sn p)
          r.best_time);
    Alcotest.test_case "deterministic across runs" `Quick (fun () ->
        let p = Kernels.relu ~n:4 ~m:4 in
        let a = run_ex ~depth:2 caps_cpu target_cpu p in
        let b = run_ex ~depth:2 caps_cpu target_cpu p in
        Alcotest.(check (float 0.0)) "time" a.best_time b.best_time;
        Alcotest.(check (list string)) "moves" a.best_moves b.best_moves;
        Alcotest.(check int) "unique" a.unique b.unique;
        Alcotest.(check int) "total" a.total b.total);
    Alcotest.test_case "trace reports unique/total and the certificate"
      `Quick (fun () ->
        let p = Kernels.scale ~n:16 in
        let obs = Obs.Trace.make_buffer () in
        let r = run_ex ~obs ~depth:2 caps_sn target_sn p in
        let events = Obs.Trace.events obs in
        let find ev =
          List.find_map
            (fun j ->
              match Util.Json.member "ev" j with
              | Some (Util.Json.Str e) when e = ev -> Some j
              | _ -> None)
            events
        in
        (match find "search.exhaustive" with
        | None -> Alcotest.fail "no search.exhaustive event"
        | Some j ->
            Alcotest.(check (option bool))
              "certified in trace" (Some r.certified)
              (match Util.Json.member "certified" j with
              | Some (Util.Json.Bool b) -> Some b
              | _ -> None);
            Alcotest.(check bool) "unique field" true
              (Util.Json.member "unique" j <> None));
        Alcotest.(check bool) "per-level events" true
          (find "search.exhaustive_level" <> None));
    Alcotest.test_case "memo hits are repeated encounters" `Quick (fun () ->
        (* a memo hit is a raw program the walk already fingerprinted,
           so it can never be a new state *)
        let ms = Obs.Metrics.create () in
        let r =
          Search.Exhaustive.run ~metrics:ms ~depth:3 caps_sn
            (objective target_sn) (Kernels.scale ~n:16)
        in
        let hits = Obs.Metrics.counter ms "canon.memo_hits" in
        Alcotest.(check bool)
          (Printf.sprintf "0 < hits %d <= total %d - unique %d" hits r.total
             r.unique)
          true
          (hits > 0 && hits <= r.total - r.unique));
  ]

let visited_dedup_tests =
  let strip obs = List.map Obs.Trace.strip_timing (Obs.Trace.events obs) in
  [
    Alcotest.test_case "visited: jobs=1 and jobs=4 agree with traces" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let run jobs =
          let obs = Obs.Trace.make_buffer () in
          let r =
            Parallel.Pool.with_pool ~jobs (fun pool ->
                Search.Stochastic.simulated_annealing ~batch:8 ~seed:11
                  ~obs ~visited_dedup:true ~pool
                  ~space:Search.Stochastic.Heuristic ~budget:48 caps_sn
                  (objective target_sn) p)
          in
          (r, strip obs)
        in
        let r1, t1 = run 1 and r4, t4 = run 4 in
        Alcotest.(check (float 0.0)) "best" r1.best_time r4.best_time;
        Alcotest.(check int) "evals" r1.evals r4.evals;
        Alcotest.(check int) "visited" r1.visited r4.visited;
        Alcotest.(check (array (float 0.0))) "curve" r1.curve r4.curve;
        Alcotest.(check bool) "stripped traces identical" true (t1 = t4));
    Alcotest.test_case "every budget slot accounted exactly once" `Quick
      (fun () ->
        List.iter
          (fun (label, p, caps, target) ->
            let r =
              Parallel.Pool.with_pool ~jobs:2 (fun pool ->
                  Search.Stochastic.random_sampling ~batch:8 ~seed:3
                    ~visited_dedup:true ~pool
                    ~space:Search.Stochastic.Heuristic ~budget:60 caps
                    (objective target) p)
            in
            Alcotest.(check int)
              (label ^ ": evals+skipped+deduped+visited+failures")
              60
              (r.evals + r.skipped + r.deduped + r.visited + r.failures);
            Alcotest.(check bool) (label ^ ": something was visited") true
              (r.visited > 0))
          [
            ("scale", Kernels.scale ~n:16, caps_sn, target_sn);
            ("relu", Kernels.relu ~n:8 ~m:8, caps_cpu, target_cpu);
          ]);
    Alcotest.test_case "visited-dedup spends strictly fewer evals" `Quick
      (fun () ->
        List.iter
          (fun (label, p, caps, target) ->
            let run visited_dedup =
              Parallel.Pool.with_pool ~jobs:2 (fun pool ->
                  Search.Stochastic.simulated_annealing ~batch:8 ~seed:5
                    ~visited_dedup ~pool
                    ~space:Search.Stochastic.Heuristic ~budget:60 caps
                    (objective target) p)
            in
            let plain = run false and dd = run true in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d < %d" label dd.evals plain.evals)
              true (dd.evals < plain.evals))
          [
            ("scale", Kernels.scale ~n:16, caps_sn, target_sn);
            ("relu", Kernels.relu ~n:8 ~m:8, caps_cpu, target_cpu);
          ]);
    Alcotest.test_case "canon metrics and visited_skip events appear" `Quick
      (fun () ->
        let p = Kernels.scale ~n:16 in
        let obs = Obs.Trace.make_buffer () in
        let ms = Obs.Metrics.create () in
        let r =
          Parallel.Pool.with_pool ~jobs:1 (fun pool ->
              Search.Stochastic.simulated_annealing ~batch:8 ~seed:5 ~obs
                ~metrics:ms ~visited_dedup:true ~pool
                ~space:Search.Stochastic.Heuristic ~budget:40 caps_sn
                (objective target_sn) p)
        in
        let skips =
          List.filter
            (fun j ->
              match Util.Json.member "ev" j with
              | Some (Util.Json.Str e) -> e = "search.visited_skip"
              | _ -> false)
            (Obs.Trace.events obs)
        in
        Alcotest.(check int) "one event per visited slot" r.visited
          (List.length skips);
        let unique = Obs.Metrics.counter ms "canon.unique"
        and total = Obs.Metrics.counter ms "canon.total" in
        Alcotest.(check bool)
          (Printf.sprintf "canon.unique %d <= canon.total %d" unique total)
          true
          (unique <= total && total > 0));
  ]

let () =
  Alcotest.run "search"
    [
      ("pass-semantics", pass_semantic_tests);
      ("gpu-pass-semantics", gpu_pass_tests);
      ("improvements", improvement_tests);
      ("stochastic", stochastic_tests);
      ("mutation", mutation_tests);
      ("golden", golden_tests);
      ("parallel-search", parallel_search_tests);
      ("exhaustive", exhaustive_tests);
      ("visited-dedup", visited_dedup_tests);
    ]
