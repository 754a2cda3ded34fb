(* Benchmark / experiment driver.

   `dune exec bench/main.exe`                runs every experiment
   `dune exec bench/main.exe -- fig7 fig8`   runs a subset
   `dune exec bench/main.exe -- framework`   Bechamel micro-benchmarks of
                                             the framework itself
   `dune exec bench/main.exe -- tuning --db tune.jsonl`
                                             tuning-database trajectory
                                             against a persistent store

   The tuning experiment writes a machine-readable BENCH_tuning.json
   (cache hit rates, evals saved, best runtimes).

   Environment: PERFDOJO_BUDGET (search evaluations per kernel, default
   300; the paper uses 1000), PERFDOJO_RL_EPISODES (default 14). *)

let run_framework_microbench () =
  Report.header
    "Framework micro-benchmarks (Bechamel): the tooling itself";
  let open Bechamel in
  let open Toolkit in
  let caps = Machine.caps (Machine.Desc.Cpu Machine.Desc.avx512_cpu) in
  let softmax = Kernels.softmax ~n:64 ~m:64 in
  let softmax_small = Kernels.softmax ~n:4 ~m:8 in
  let text = Ir.Printer.program softmax in
  (* a tiled state: the row loop and two inner loops split, so the
     canonicalizer sees nested sibling lists *)
  let softmax_tiled =
    match
      Transform.Engine.replay_compat caps softmax
        [
          "split_scope([0,5] factor 16)";
          "split_scope([0,3] factor 16)";
          "split_scope([0] factor 8)";
        ]
    with
    | Ok p -> p
    | Error e -> failwith ("framework: tiled softmax: " ^ e)
  in
  (* fixed 6-move heuristic paths, replayed from the root as a search
     candidate is *)
  let softmax_path =
    [
      "split_scope([0,5] factor 16)"; "vectorize([0,5,0])";
      "split_scope([0,3] factor 16)"; "vectorize([0,3,0])";
      "set_storage(s -> register)"; "parallelize([0])";
    ]
  in
  let snitch = Machine.caps (Machine.Desc.Snitch Machine.Desc.snitch_cluster) in
  let gemv = Kernels.gemv ~m:64 ~n:64 in
  let gemv_path =
    [
      "fission([0] at 1)"; "split_reduction([1,0] into 4)";
      "unroll([1,1,0])"; "set_storage(z__part -> register)";
      "enable_ssr([0])"; "enable_frep([0])";
    ]
  in
  let split_reduce_unroll =
    match Transfo.Composites.find "split_reduce_unroll" with
    | None -> failwith "framework: split_reduce_unroll missing"
    | Some c -> (
        match c.make [ ("into", "4") ] with
        | Ok t -> t
        | Error e -> failwith ("framework: split_reduce_unroll: " ^ e))
  in
  (* a fixed-seed heuristic annealing run: every child is one draw at
     a trail state plus a suffix replay, so the draw path is timed *)
  let x86 = List.assoc "x86" Machine.Desc.known_targets in
  let softmax_root =
    (Kernels.find_entry Kernels.table3 "softmax").build_small ()
  in
  let tests =
    [
      Test.make ~name:"printer.softmax" (Staged.stage (fun () ->
          ignore (Ir.Printer.program softmax)));
      Test.make ~name:"parser.softmax" (Staged.stage (fun () ->
          ignore (Ir.Parser.program text)));
      Test.make ~name:"validate.softmax" (Staged.stage (fun () ->
          ignore (Ir.Validate.check softmax)));
      Test.make ~name:"xforms.discovery.softmax" (Staged.stage (fun () ->
          ignore (Transform.Xforms.all caps softmax)));
      Test.make ~name:"transform.replay.heuristic.softmax"
        (Staged.stage (fun () ->
             ignore
               (Search.Stochastic.replay_skipping caps softmax softmax_path)));
      Test.make ~name:"transform.replay.heuristic.gemv"
        (Staged.stage (fun () ->
             ignore (Search.Stochastic.replay_skipping snitch gemv gemv_path)));
      Test.make ~name:"transfo.expand.gemv"
        (Staged.stage (fun () ->
             ignore
               (split_reduce_unroll.Transform.Engine.expand snitch gemv
                  ~anchor:[ 0; 1 ])));
      Test.make ~name:"canon.fingerprint.softmax" (Staged.stage (fun () ->
          ignore (Canon.fingerprint softmax)));
      Test.make ~name:"canon.fingerprint.softmax.tiled"
        (Staged.stage (fun () -> ignore (Canon.fingerprint softmax_tiled)));
      Test.make ~name:"interp.softmax.4x8" (Staged.stage (fun () ->
          let t = Interp.alloc_tensors softmax_small in
          Interp.run softmax_small t));
      Test.make ~name:"cpu_model.softmax" (Staged.stage (fun () ->
          ignore (Machine.Cpu_model.time Machine.Desc.avx512_cpu softmax)));
      Test.make ~name:"snitch_sim.gemv" (Staged.stage (fun () ->
          ignore
            (Machine.Snitch_sim.time Machine.Desc.snitch_cluster
               (Kernels.gemv ~m:64 ~n:64))));
      Test.make ~name:"embed.softmax" (Staged.stage (fun () ->
          ignore (Rl.Embed.embed softmax)));
      Test.make ~name:"surrogate.features.softmax" (Staged.stage (fun () ->
          ignore (Surrogate.Features.extract softmax)));
      Test.make ~name:"search.anneal.heuristic.softmax"
        (Staged.stage (fun () ->
             ignore
               (Search.Stochastic.simulated_annealing ~seed:1
                  ~space:Search.Stochastic.Heuristic ~budget:40
                  (Machine.caps x86) (Machine.time x86) softmax_root)));
      Test.make ~name:"gpu_model.mul" (Staged.stage (fun () ->
          ignore
            (Machine.Gpu_model.time Machine.Desc.gh200
               (Kernels.mul ~n:6 ~m:14336))));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:Measure.[| run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  let test = Test.make_grouped ~name:"perfdojo" ~fmt:"%s %s" tests in
  let results = benchmark test in
  let results = analyze results in
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-44s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-44s (no estimate)\n" name)
    results

(* Strip `--db FILE` and `--fault-rate R` from the argument list,
   routing them to the tuning / fault-tolerance experiments. *)
let rec extract_db = function
  | [] -> []
  | "--db" :: file :: rest ->
      Experiments.tuning_db_file := Some file;
      extract_db rest
  | "--fault-rate" :: rate :: rest ->
      (match float_of_string_opt rate with
      | Some r when r >= 0. && r <= 1. -> Experiments.fault_rate := r
      | _ ->
          Printf.eprintf "ignoring --fault-rate %S (want a float in [0,1])\n"
            rate);
      extract_db rest
  | arg :: rest -> arg :: extract_db rest

let () =
  let args = Array.to_list Sys.argv |> List.tl |> extract_db in
  let t0 = Sys.time () in
  (* Per-experiment wall-clock spans, written as a JSONL sidecar so a
     bench run leaves a machine-readable account of where its time
     went. *)
  let trace = Obs.Trace.make_buffer () in
  let timed name f = Obs.Span.run ~trace ("experiment." ^ name) f in
  (match args with
  | [] ->
      List.iter (fun (name, f) -> timed name f) Experiments.all;
      timed "framework" run_framework_microbench
  | [ "framework" ] -> timed "framework" run_framework_microbench
  | names ->
      List.iter
        (fun name ->
          if name = "framework" then timed "framework" run_framework_microbench
          else
            match List.assoc_opt name Experiments.all with
            | Some f -> timed name f
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" name
                  (String.concat ", "
                     ("framework" :: List.map fst Experiments.all)))
        names);
  let oc = open_out "BENCH_trace.jsonl" in
  List.iter
    (fun ev ->
      output_string oc (Util.Json.to_string ev);
      output_char oc '\n')
    (Obs.Trace.events trace);
  close_out oc;
  print_endline "wrote BENCH_trace.jsonl";
  Printf.printf "\n[bench completed in %.1f s CPU]\n" (Sys.time () -. t0)
