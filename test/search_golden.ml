(* The search trajectories pinned by search_golden.txt.

   Each stochastic case runs one engine on a kernel's small root and
   renders its result as one line: the best runtime's IEEE-754 bits, the
   exact accounting, the MD5 of the best-so-far curve's bits and the
   winning move sequence.  Each exhaustive case renders a bounded walk's
   partition (unique / total states), evaluations, failures, reached
   depth, certificates, best-time bits and best moves.  Any change to a trajectory — an RNG draw, an
   instance order, a replayed program — changes some line, so the file
   holds the search engines to byte-identical behaviour across internal
   rewrites.  gen_search_golden.exe writes the file; test_search checks
   every line against a fresh run. *)

module S = Search.Stochastic

let budget = 40
let target name = List.assoc name Machine.Desc.known_targets

(* One root per hardware family, each under its target's caps. *)
let roots =
  [
    ("x86", Kernels.find_entry Kernels.table3 "softmax");
    ("snitch", Kernels.find_entry Kernels.snitch_micro "gemv");
    ("gh200", Kernels.find_entry Kernels.table3 "rmsnorm");
  ]

type meth = Sampling | Annealing

type engine =
  | Sequential  (** batch 1, no pool: the default search *)
  | Batched of int  (** batch 8 on a pool of this many jobs *)
  | Filtered
      (** batch 8 at jobs 1 with a surrogate at filter 0.25 and the
          canonical visited set *)

let engine_name = function
  | Sequential -> "seq"
  | Batched j -> Printf.sprintf "batched-j%d" j
  | Filtered -> "surrogate-visited"

let run ?(init = []) ?filter ~engine ~meth ~space ~seed caps tname root =
  let objective = Machine.time (target tname) in
  let search ?pool ?prerank ?(dedup = false) batch =
    match meth with
    | Sampling ->
        S.random_sampling ~seed ~init ?filter ?pool ~batch ?prerank ~dedup
          ~visited_dedup:dedup ~space ~budget caps objective root
    | Annealing ->
        S.simulated_annealing ~seed ~init ?filter ?pool ~batch ?prerank
          ~dedup ~visited_dedup:dedup ~space ~budget caps objective root
  in
  let pooled ?prerank ?dedup jobs =
    Parallel.Pool.with_pool ~jobs (fun pool -> search ~pool ?prerank ?dedup 8)
  in
  match engine with
  | Sequential -> search 1
  | Batched jobs -> pooled jobs
  | Filtered ->
      let prerank =
        Surrogate.Model.prerank ~filter_ratio:0.25 ~group:"golden"
          (Surrogate.Model.create ())
      in
      pooled ~prerank ~dedup:true 1

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let render label (r : S.result) =
  let curve =
    Array.to_list (Array.map bits r.curve)
    |> String.concat "," |> Digest.string |> Digest.to_hex
  in
  Printf.sprintf
    "%s | time=%s evals=%d skipped=%d deduped=%d visited=%d failures=%d \
     curve=%s | %s"
    label (bits r.best_time) r.evals r.skipped r.deduped r.visited r.failures
    curve
    (String.concat "; " r.best_moves)

let render_exhaustive label (r : Search.Exhaustive.result) =
  Printf.sprintf
    "%s | unique=%d total=%d evals=%d failures=%d reached_depth=%d \
     certified=%b exhausted=%b time=%s | %s"
    label r.unique r.total r.evals r.failures r.reached_depth r.certified
    r.exhausted (bits r.best_time)
    (String.concat "; " r.best_moves)

(* Bounded exhaustive walks: the canonical dedup decides which states
   are expanded, so a fingerprint that merged or split states would
   move a partition here. *)
let exhaustive_cases () =
  let x86 = Machine.caps (target "x86") in
  List.map
    (fun (label, tname, caps, depth, root) ->
      let r =
        Search.Exhaustive.run ~depth caps (Machine.time (target tname)) root
      in
      (label, render_exhaustive label r))
    [
      ( "scale 16 snitch exhaustive d3",
        "snitch",
        Machine.caps (target "snitch"),
        3,
        Kernels.scale ~n:16 );
      ("relu 8x8 x86 exhaustive d3", "x86", x86, 3, Kernels.relu ~n:8 ~m:8);
      ( "gemv 16x16 x86+composites exhaustive d2",
        "x86",
        Transfo.Composites.enable ~names:[ "all" ] x86,
        2,
        Kernels.gemv ~m:16 ~n:16 );
      ( "softmax x86 exhaustive d2",
        "x86",
        x86,
        2,
        (Kernels.find_entry Kernels.table3 "softmax").build_small () );
    ]

(* Every case as (label, rendered line), in file order. *)
let cases () =
  let seed = ref 0 in
  let matrix =
    List.concat_map
      (fun (tname, (e : Kernels.entry)) ->
        let caps = Machine.caps (target tname) in
        let root = e.build_small () in
        List.concat_map
          (fun (space, sname) ->
            List.concat_map
              (fun (meth, mname) ->
                (* one seed per group: batched-j1 and batched-j4 lines
                   must agree on everything but their label *)
                incr seed;
                List.map
                  (fun engine ->
                    let label =
                      Printf.sprintf "%s %s %s %s %s seed%d" e.label tname
                        sname mname (engine_name engine) !seed
                    in
                    let r =
                      run ~engine ~meth ~space ~seed:!seed caps tname root
                    in
                    (label, render label r))
                  [ Sequential; Batched 1; Batched 4; Filtered ])
              [ (Sampling, "sampling"); (Annealing, "annealing") ])
          [ (S.Edges, "edges"); (S.Heuristic, "heuristic") ])
      roots
  in
  let softmax = (Kernels.find_entry Kernels.table3 "softmax").build_small () in
  let x86 = Machine.caps (target "x86") in
  (* warm start: resume from an earlier case's winner *)
  let warm =
    let init =
      (run ~engine:Sequential ~meth:Annealing ~space:S.Heuristic ~seed:7 x86
         "x86" softmax)
        .best_moves
    in
    let label = "softmax x86 heuristic annealing batched-j1 warm-start seed8" in
    ( label,
      render label
        (run ~init ~engine:(Batched 1) ~meth:Annealing ~space:S.Heuristic
           ~seed:8 x86 "x86" softmax) )
  in
  (* composite macro-moves in the action set *)
  let composites =
    let caps = Transfo.Composites.enable ~names:[ "all" ] x86 in
    let label = "softmax x86+composites heuristic annealing seq seed9" in
    ( label,
      render label
        (run ~engine:Sequential ~meth:Annealing ~space:S.Heuristic ~seed:9 caps
           "x86" softmax) )
  in
  (* an instance filter that rejects every unroll: the offers a draw
     picks from are the filtered ones *)
  let no_unroll =
    let filter (i : Transform.Xforms.instance) =
      not (String.starts_with ~prefix:"unroll(" (Transform.Xforms.describe i))
    in
    List.concat_map
      (fun (space, sname, meth, mname, seed) ->
        List.map
          (fun engine ->
            let label =
              Printf.sprintf "softmax x86 no-unroll %s %s %s seed%d" sname
                mname (engine_name engine) seed
            in
            ( label,
              render label
                (run ~filter ~engine ~meth ~space ~seed x86 "x86" softmax) ))
          [ Sequential; Batched 4 ])
      [
        (S.Edges, "edges", Sampling, "sampling", 10);
        (S.Heuristic, "heuristic", Annealing, "annealing", 11);
      ]
  in
  matrix @ [ warm; composites ] @ no_unroll @ exhaustive_cases ()

let header =
  "# Golden search trajectories.\n\
   # One line per case: label | best-time bits, accounting, MD5 of the\n\
   # curve's bits | best moves; exhaustive walks record their partition,\n\
   # depth and certificates instead of a curve.  Written by\n\
   # test/gen_search_golden.exe.\n"
