(* Stochastic schedule search (§4.2).

   Two search-space structures:
     - [`Edges]: the search graph mirrors the transformation graph; a
       candidate is grown by appending one applicable move to a parent.
     - [`Heuristic]: a candidate is a complete transformation *sequence*;
       neighbors are produced by modifying the sequence at an arbitrary
       point (replace / delete / insert a move) and replaying the rest,
       skipping moves that became inapplicable — the paper's
       "iteratively refined at arbitrary points" structure.  Each
       candidate keeps the state after every prefix of its moves (its
       trail), so a child replays only the suffix after the mutation
       point.

   Two methods:
     - weighted random sampling over all previously encountered
       candidates, with selection probability based on the *parent's*
       runtime (so children of weak candidates rarely get budget);
     - simulated annealing, whose cost is the candidate's own runtime.

   Every candidate evaluation increments the budget; the best-so-far
   curve is recorded for the convergence comparison (Figure 12). *)

open Transform

type objective = Ir.Prog.t -> float

type space = Edges | Heuristic

(* A surrogate pre-ranking stage for the batched variants: [score] is a
   cheap learned predictor (higher = predicted faster) used to rank the
   distinct candidates of a round so only the top [filter_ratio]
   fraction pays for a real (simulator) evaluation; [observe] feeds
   every real measurement back as online training signal.  The search
   layer treats both as abstract closures — the concrete model lives in
   [lib/surrogate], which depends on this library, not the reverse. *)
type prerank = {
  score : Ir.Prog.t -> float;  (** higher = predicted faster *)
  observe : Ir.Prog.t -> float -> unit;
      (** called with every real measurement, in slot order *)
  filter_ratio : float;  (** fraction of distinct candidates kept, (0, 1] *)
}

type result = {
  best : Ir.Prog.t;
  best_time : float;
  best_moves : string list;
  curve : float array; (* best-so-far runtime after each evaluation *)
  evals : int; (* simulator evaluations actually performed *)
  skipped : int; (* slots filtered out by the surrogate (no evaluation) *)
  deduped : int; (* duplicate slots answered by a shared evaluation *)
  visited : int; (* slots whose canonical state was already evaluated *)
  failures : int; (* evaluations quarantined by the guard *)
}

(* Replay a sequence of move names from [prog], skipping moves that are
   not applicable at their point.  Returns the final program, the names
   that actually applied and the state after each of them, both most
   recent first.  Each step resolves its name through [Xforms.resolve],
   which runs only the named transformation's finder. *)
let replay_states ?(filter = fun (_ : Xforms.instance) -> true) caps prog
    names =
  List.fold_left
    (fun ((p, applied, states) as acc) name ->
      match Xforms.resolve ~filter caps p name with
      | Some (inst : Xforms.instance) ->
          let q = inst.apply p in
          (q, name :: applied, q :: states)
      | None -> acc)
    (prog, [], []) names

let replay_skipping ?filter caps prog names =
  let p, applied, _ = replay_states ?filter caps prog names in
  (p, List.rev applied)

(* One state along a candidate's trail, with the moves a draw picks
   from there: [offers] is [Xforms.all] under the search's filter, as an
   array, filled on the first draw at this state and read by every later
   one.  A child's trail shares its parent's prefix nodes, so every
   mutation at a shared state — annealing branches a whole round of
   proposals off one current candidate — reuses one enumeration.  An
   [Atomic], not a [Lazy]: the batched build phase reads parents from
   several domains, and forcing one [Lazy] from two domains raises,
   while two domains filling the same slot compute equal arrays, so a
   race only wastes work. *)
type node = {
  state : Ir.Prog.t;
  offers : Xforms.instance array option Atomic.t;
}

let node state = { state; offers = Atomic.make None }

let offers ?(filter = fun (_ : Xforms.instance) -> true) caps n =
  match Atomic.get n.offers with
  | Some insts -> insts
  | None ->
      let insts =
        Array.of_list (List.filter filter (Xforms.all caps n.state))
      in
      Atomic.set n.offers (Some insts);
      insts

type candidate = {
  moves : string list;
  prog : Ir.Prog.t;
  trail : node array;
      (* the state after each prefix of [moves], root first:
         [trail.(i)] is the program after the first [i] moves, so
         [trail.(0)] is the root and the last entry is [prog].  A
         heuristic mutation reads its mutation point and that point's
         offers here instead of replaying the prefix, and the child's
         replay resumes from it.  Never serialized — resume rebuilds
         it by replay, like [prog], with empty offers. *)
  runtime : float;
  parent_runtime : float;
}

let root_candidate root runtime =
  { moves = []; prog = root; trail = [| node root |]; runtime;
    parent_runtime = runtime }

(* The first [pos] of [moves] followed by [suffix] replayed from
   [trail.(pos)], the state after those [pos] moves, as (applied moves,
   final program, trail).  A replay of the whole sequence from the root
   would rebuild exactly the same prefix states, since [moves] holds
   only names that applied. *)
let extend ?filter caps (moves, trail) pos suffix =
  let p, applied, states =
    replay_states ?filter caps trail.(pos).state suffix
  in
  ( List.filteri (fun i _ -> i < pos) moves @ List.rev applied,
    p,
    Array.append (Array.sub trail 0 (pos + 1))
      (Array.of_list (List.rev_map node states)) )

let from_root ?filter caps root names =
  extend ?filter caps ([], [| node root |]) 0 names

(* One structural mutation of [parent]'s move sequence (replace / delete
   / insert a move at a random point [pos]), as [pos] and the moves that
   follow the parent's first [pos] in the child.  The state at [pos]
   and the moves offered there are read from the parent's trail. *)
let mutate ?filter caps rng (parent : candidate) : int * string list =
  let n = List.length parent.moves in
  let from k = List.filteri (fun i _ -> i >= k) parent.moves in
  (* a random move applicable at [pos], in front of [rest]; with none
     applicable the sequence stays as it was *)
  let draw pos rest =
    match offers ?filter caps parent.trail.(pos) with
    | [||] -> (pos, from pos)
    | insts ->
        let inst = insts.(Util.Rng.int rng (Array.length insts)) in
        (pos, Xforms.describe inst :: rest)
  in
  let choice = Util.Rng.int rng 3 in
  if n = 0 || choice = 2 then begin
    (* insert *)
    let pos = if n = 0 then 0 else Util.Rng.int rng (n + 1) in
    draw pos (from pos)
  end
  else if choice = 0 then begin
    (* delete *)
    let pos = Util.Rng.int rng n in
    (pos, from (pos + 1))
  end
  else begin
    (* replace *)
    let pos = Util.Rng.int rng n in
    draw pos (from (pos + 1))
  end

(* ------------------------------------------------------------------ *)
(* Guarded evaluation and quarantine                                   *)
(* ------------------------------------------------------------------ *)

(* A failed evaluation is quarantined instead of aborting the run: the
   candidate keeps its slot in the trajectory with runtime +inf, so it
   is never the best, never accepted by annealing, and (pushed with
   weight 0) never selected as a sampling parent.  [prog] is reset to
   the root so a quarantined entry carries no partially-transformed
   program. *)
let quarantined root parent_runtime =
  { (root_candidate root infinity) with parent_runtime }

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* Every emission site is guarded with [Obs.Trace.enabled] so an
   untraced run allocates neither events nor field-thunk closures.  All
   traced values (step indices, runtimes, move counts, temperature) are
   deterministic functions of (seed, batch) — wall-clock only ever
   enters through [dur_s] fields, which [Obs.Trace.strip_timing]
   removes; this is what makes --jobs 1 / --jobs N traces comparable. *)

let space_name = function Edges -> "edges" | Heuristic -> "heuristic"

let emit_start obs ~meth ~space ~budget ~seed ~root_time =
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs "search.start" (fun () ->
        Obs.Trace.
          [
            str "method" meth;
            str "space" (space_name space);
            int "budget" budget;
            int "seed" seed;
            num "root_time" root_time;
          ])

let emit_step obs ~i ~runtime ~best extra =
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs "search.step" (fun () ->
        Obs.Trace.int "i" i
        :: Obs.Trace.num "runtime" runtime
        :: Obs.Trace.num "best" best
        :: extra ())

let emit_best obs ~i (c : candidate) =
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs "search.best" (fun () ->
        Obs.Trace.
          [
            int "i" i;
            num "runtime" c.runtime;
            int "n_moves" (List.length c.moves);
          ])

(* Counter/gauge updates per evaluated step.  [accepted = None] for the
   sampling methods (no acceptance notion): then only the step counter
   and the runtime histogram move.  The annealing methods pass
   [Some bool] and additionally maintain [search.accepted],
   [search.acceptance_rate] and [search.temperature]. *)
let note_step ?metrics ?accepted ?temp ~runtime () =
  match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.incr m "search.steps";
      Obs.Metrics.observe m "search.runtime" runtime;
      (match accepted with
      | None -> ()
      | Some acc ->
          if acc then Obs.Metrics.incr m "search.accepted";
          let steps = Obs.Metrics.counter m "search.steps" in
          Obs.Metrics.set m "search.acceptance_rate"
            (float_of_int (Obs.Metrics.counter m "search.accepted")
            /. float_of_int (max steps 1)));
      match temp with
      | None -> ()
      | Some t -> Obs.Metrics.set m "search.temperature" t

(* How a child grows from its parent.  In the edges-structured space
   expansion appends and applies one move itself ([Grown], no replay).
   In the heuristic space the child is the parent's first [pos] moves
   followed by [suffix] ([Resume]); [grow] replays the suffix from the
   parent's trail, inside the guard. *)
type growth =
  | Grown of string list * Ir.Prog.t * node array
  | Resume of int * string list

let expand ?filter space caps rng (parent : candidate) : growth =
  match space with
  | Edges -> (
      (* append one move offered at the parent's last state, [prog] *)
      let last = parent.trail.(Array.length parent.trail - 1) in
      match offers ?filter caps last with
      | [||] -> Grown (parent.moves, parent.prog, parent.trail)
      | insts ->
          let inst = insts.(Util.Rng.int rng (Array.length insts)) in
          let p = inst.apply parent.prog in
          Grown
            ( parent.moves @ [ Xforms.describe inst ],
              p,
              Array.append parent.trail [| node p |] ))
  | Heuristic ->
      let pos, suffix = mutate ?filter caps rng parent in
      Resume (pos, suffix)

let grow ?filter caps (parent : candidate) = function
  | Grown (moves, prog, trail) -> (moves, prog, trail)
  | Resume (pos, suffix) ->
      extend ?filter caps (parent.moves, parent.trail) pos suffix

let measured objective (moves, prog, trail) parent_runtime =
  { moves; prog; trail; runtime = objective prog; parent_runtime }

(* Expansion runs outside the guard — it consumes the search RNG, so a
   transient retry must not re-draw — but is still protected: a
   transform raising during [expand] quarantines the candidate exactly
   like an objective raising during evaluation. *)
let expand_checked ?filter space caps rng parent =
  match expand ?filter space caps rng parent with
  | v -> Ok v
  | exception e -> Error (Robust.Guard.rejected_of_exn e)

(* Grow and evaluate one child under the guard, to a
   (candidate, failure option) pair.  The guard wraps replay and
   evaluation together, so a transient failure re-runs both — replay
   draws no randomness, so the retry is deterministic. *)
let guarded_child ~guard ?filter space caps rng root objective
    (parent : candidate) : candidate * Robust.Guard.failure option =
  let outcome =
    match expand_checked ?filter space caps rng parent with
    | Error f -> Error f
    | Ok g ->
        Robust.Guard.run ~cfg:guard
          ~cost:(fun c -> c.runtime)
          (fun () ->
            measured objective (grow ?filter caps parent g) parent.runtime)
          ()
  in
  match outcome with
  | Ok c -> (c, None)
  | Error f -> (quarantined root parent.runtime, Some f)

let run_curve budget f =
  let curve = Array.make budget infinity in
  let best = ref infinity in
  for i = 0 to budget - 1 do
    let t = f i in
    if t < !best then best := t;
    curve.(i) <- !best
  done;
  curve

(* ------------------------------------------------------------------ *)
(* Weighted random sampling                                            *)
(* ------------------------------------------------------------------ *)

(* Warm-start: replay a recorded move sequence from the root and return
   it as a candidate to seed the search with — tuning resumes from the
   database's best instead of restarting cold.  Guarded like every
   other evaluation: a database sequence recorded by an older build may
   no longer replay, and that must degrade to a cold start, not a
   crash. *)
let warm_candidate ~guard ?filter caps objective root (init : string list) :
    (candidate option, Robust.Guard.failure) Stdlib.result =
  if init = [] then Ok None
  else
    Result.map Option.some
      (Robust.Guard.run ~cfg:guard
         ~cost:(fun c -> c.runtime)
         (fun () ->
           measured objective (from_root ?filter caps root init) infinity)
         ())

(* The candidate pool and its selection weights live in growable buffers
   (amortized O(1) push) — the previous per-evaluation [Array.append]
   made pool growth O(budget^2).  The weight of a candidate depends only
   on its parent's runtime, so it is computed once at push time;
   [weighted_index_n] samples over the live prefix without copying.
   Quarantined candidates are pushed with weight 0: they keep their
   trajectory slot but are never drawn as parents. *)
let make_pool root_cand warm =
  let pool = Util.Dynarray.create ~capacity:64 root_cand in
  let weights = Util.Dynarray.create ~capacity:64 0.0 in
  let push_weighted w c =
    Util.Dynarray.push pool c;
    Util.Dynarray.push weights w
  in
  let push c = push_weighted (1.0 /. Float.max c.parent_runtime 1e-12) c in
  let push_quarantined c = push_weighted 0.0 c in
  push root_cand;
  (match warm with None -> () | Some w -> push w);
  let best =
    Util.Dynarray.fold_left
      (fun acc c -> if c.runtime < acc.runtime then c else acc)
      root_cand pool
  in
  (pool, weights, push, push_quarantined, best)

let pick_parent rng pool weights =
  Util.Dynarray.get pool
    (Util.Rng.weighted_index_n rng
       (Util.Dynarray.unsafe_data weights)
       (Util.Dynarray.length weights))

(* A failure counter plus its recorder.  Every quarantined evaluation
   becomes one [search.eval_error] event (the [i] field is -1 for the
   root evaluation, -2 for the warm-start replay, the step index
   otherwise) and bumps the robust.* counters — so [result.failures]
   always equals the number of eval_error events the run traced. *)
let make_noter ?metrics obs =
  let failures = ref 0 in
  let note ~i f =
    incr failures;
    Robust.Guard.note ~obs ?metrics ~fields:[ Obs.Trace.int "i" i ] f
  in
  (failures, note)

(* Root failure degrades to an infinite root score: search still runs,
   any finite candidate immediately becomes best. *)
let guarded_root ~guard ~note objective root =
  match Robust.Guard.eval ~cfg:guard objective root with
  | Ok t -> t
  | Error f ->
      note ~i:(-1) f;
      infinity

let guarded_warm ~guard ~note ?filter caps objective root ~root_time init =
  match warm_candidate ~guard ?filter caps objective root init with
  | Ok None -> None
  | Ok (Some w) -> Some { w with parent_runtime = root_time }
  | Error f ->
      note ~i:(-2) f;
      None

let random_sampling ?(seed = 1) ?filter ?(init = [])
    ?(obs = Obs.Trace.null) ?metrics ?(guard = Robust.Guard.default)
    ~(space : space) ~(budget : int) caps (objective : objective)
    (root : Ir.Prog.t) : result =
  let guard = Robust.Guard.instrument ?metrics guard in
  let rng = Util.Rng.create seed in
  let failures, note = make_noter ?metrics obs in
  let root_time = guarded_root ~guard ~note objective root in
  let root_cand = root_candidate root root_time in
  emit_start obs ~meth:"random-sampling" ~space ~budget ~seed ~root_time;
  let warm =
    guarded_warm ~guard ~note ?filter caps objective root ~root_time init
  in
  let pool, weights, push, push_quarantined, best0 =
    make_pool root_cand warm
  in
  let best = ref best0 in
  let curve =
    run_curve budget (fun i ->
        let parent = pick_parent rng pool weights in
        let child, failed =
          guarded_child ~guard ?filter space caps rng root objective parent
        in
        (match failed with
        | Some f ->
            note ~i f;
            push_quarantined child
        | None ->
            push child;
            if child.runtime < !best.runtime then begin
              best := child;
              emit_best obs ~i child
            end;
            emit_step obs ~i ~runtime:child.runtime ~best:!best.runtime
              (fun () -> []);
            note_step ?metrics ~runtime:child.runtime ());
        child.runtime)
  in
  {
    best = !best.prog;
    best_time = !best.runtime;
    best_moves = !best.moves;
    curve;
    evals = budget;
    skipped = 0;
    deduped = 0;
    visited = 0;
    failures = !failures;
  }

(* ------------------------------------------------------------------ *)
(* Batched-synchronous-parallel variants                               *)
(* ------------------------------------------------------------------ *)

(* Parallelization follows AutoTVM's batched measurement loop: each
   round deterministically prepares B candidate tasks on the submitting
   thread (parent selection and one split-off RNG stream per task, in
   slot order), fans the expensive part — growing the child and
   replaying/evaluating it — across the pool, then folds the results
   back in slot order.  Because every task is a pure function of its
   (parent, RNG stream) inputs and both preparation and folding are
   sequential, the trajectory is a function of (seed, batch) only: jobs
   = 1 and jobs = N are identical, which the determinism tests pin.

   Note the batched algorithms differ from the sequential ones for
   batch > 1 (candidates within a round cannot see each other), so the
   sequential entry points above remain the default path. *)

let default_batch = 8

(* Grow a child from [parent] with the task's own RNG stream and
   evaluate it under the guard — the unit of parallel work.  [obs] is
   the task's private buffer sink (or [null]); a successful evaluation
   emits a [search.eval] event carrying the deterministic batch slot
   plus a wall-clock [dur_s], a quarantined one emits the
   [search.eval_error] event (and bumps robust.* counters) right here
   on the worker — the fold only counts it, so each failure is recorded
   exactly once.  Whether a candidate fails is deterministic (see
   {!Robust.Faults}), so the merged event stream stays a pure function
   of (seed, batch). *)
let child_task ?filter ?metrics ~guard ~obs ~slot space caps root objective
    parent task_rng () : candidate * Robust.Guard.failure option =
  let t0 = if Obs.Trace.enabled obs then Obs.Span.now () else 0. in
  let child, failed =
    guarded_child ~guard ?filter space caps task_rng root objective parent
  in
  (match failed with
  | Some f ->
      Robust.Guard.note ~obs ?metrics
        ~fields:[ Obs.Trace.int "slot" slot ]
        f
  | None ->
      if Obs.Trace.enabled obs then
        Obs.Trace.emit obs "search.eval" (fun () ->
            Obs.Trace.
              [
                int "slot" slot;
                int "n_moves" (List.length child.moves);
                num "runtime" child.runtime;
                num "dur_s" (Float.max 0. (Obs.Span.now () -. t0));
              ]));
  (child, failed)

(* [prepare sink ~slot] builds one task thunk writing its events into
   [sink]; [fold i child] consumes results in slot order.  When tracing
   is on, each task gets its own buffer sink and the buffers are folded
   into [obs] in slot order just before the corresponding [fold] — so
   the merged event stream is a pure function of (seed, batch),
   independent of which pool domain ran which task.

   [start]/[curve_init] resume the loop from a checkpointed round
   boundary (the curve prefix is the crashed run's); [round_end] fires
   after each round with the filled count, the curve, and the
   (evals, skipped, deduped, visited) accounting so far — the
   checkpoint writer's hook.  All three default to no-ops, keeping the
   cold path byte-identical to earlier releases. *)
let no_round_end ~filled:_ ~curve:_ ~stats:_ = ()

let run_batched ?(start = 0) ?(curve_init = [||]) ?(round_end = no_round_end)
    ~obs ~batch ~pool ~budget ~prepare ~fold () =
  if batch < 1 then invalid_arg "Stochastic: batch must be >= 1";
  if start < 0 || start > budget then
    invalid_arg "Stochastic: resume offset out of range";
  let traced = Obs.Trace.enabled obs in
  let curve = Array.make budget infinity in
  Array.blit curve_init 0 curve 0 (min start (Array.length curve_init));
  let filled = ref start in
  while !filled < budget do
    let b = min batch (budget - !filled) in
    let sinks =
      if traced then Array.init b (fun _ -> Obs.Trace.make_buffer ())
      else [||]
    in
    let tasks = Array.make b (fun () -> assert false) in
    for i = 0 to b - 1 do
      (* explicit loop: slot order fixes the RNG draw order *)
      let sink = if traced then sinks.(i) else Obs.Trace.null in
      tasks.(i) <- prepare sink ~slot:(!filled + i)
    done;
    let children = Parallel.Pool.map pool (fun task -> task ()) tasks in
    Array.iteri
      (fun i child ->
        if traced then Obs.Trace.append ~into:obs sinks.(i);
        curve.(!filled + i) <- fold (!filled + i) child)
      children;
    filled := !filled + b;
    round_end ~filled:!filled ~curve ~stats:(!filled, 0, 0, 0)
  done;
  curve

(* ------------------------------------------------------------------ *)
(* Surrogate pre-ranking and intra-batch dedup                         *)
(* ------------------------------------------------------------------ *)

(* [run_batched_filtered] is the opt-in sibling of [run_batched]: the
   same batched-synchronous discipline (deterministic preparation and
   folding on the submitting thread, expensive work on the pool), but
   each round is split into a build phase and an evaluation phase so two
   evaluation-saving stages can sit between them:

     1. intra-batch dedup ([dedup]): candidates are hashed by their
        printed program; each distinct program is evaluated once per
        round and duplicates share the measurement
        ([search.batch_dedup] carries unique/total counts);
     2. surrogate pre-ranking ([prerank]): a cheap learned score ranks
        the distinct candidates and only the top-k
        ([prerank.filter_ratio]) reach the guarded simulator; the rest
        are skipped outright ([search.prerank]).

   Everything that consumes randomness (parent selection, RNG splits,
   acceptance draws) still happens on the submitting thread in slot
   order, and which slots are skipped / deduplicated is a deterministic
   function of (seed, batch, model state) — the model itself is only
   ever scored and trained from the submitting thread, in slot order —
   so jobs-invariance holds exactly as for [run_batched].  The default
   path never comes here: [run_batched] is untouched when neither
   feature is enabled.

   Moving replay out of the guard (the build phase) preserves the guard
   semantics: replay is pure and draws no randomness, so an exception
   during build is classified with the same [rejected_of_exn] a guarded
   replay would have produced, and {!Robust.Faults} only ever wraps the
   objective, whose attempt counter is untouched by the split. *)

(* What one budget slot amounted to, folded in slot order. *)
type slot_outcome =
  | Evaluated of candidate  (** fresh measurement or shared duplicate *)
  | Failed of Robust.Guard.failure
      (** build or evaluation failure — quarantine *)
  | Skipped  (** surrogate-filtered: no measurement, not a failure *)
  | Visited
      (** canonical state already evaluated in an earlier round: no
          measurement, the visited set answered *)

(* Grow one child without measuring it: the (moves, program) pair ready
   for dedup/ranking.  Exceptions from a transform or replay classify
   exactly like they did under the guard. *)
let build_child ?filter space caps (parent : candidate) task_rng :
    (string list * Ir.Prog.t * node array, Robust.Guard.failure)
    Stdlib.result =
  match
    grow ?filter caps parent (expand ?filter space caps task_rng parent)
  with
  | v -> Ok v
  | exception e -> Error (Robust.Guard.rejected_of_exn e)

let check_prerank = function
  | Some p when not (p.filter_ratio > 0. && p.filter_ratio <= 1.) ->
      invalid_arg "Stochastic: prerank filter_ratio must be in (0, 1]"
  | _ -> ()

(* Seed the online model with the measurements the prelude already
   paid for (root, warm-start replay). *)
let observe_seed prerank root ~root_time warm =
  match prerank with
  | None -> ()
  | Some p ->
      if Float.is_finite root_time then p.observe root root_time;
      (match warm with
      | Some w when Float.is_finite w.runtime -> p.observe w.prog w.runtime
      | _ -> ())

(* [prepare_parent ~slot] picks the parent and splits the task RNG on
   the submitting thread; [fold slot parent outcome] consumes one slot.
   [visited], when present, is the cross-round visited set: canonical
   fingerprints of every state already measured; candidates whose
   fingerprint is in the set never reach the simulator again.
   Returns the curve plus (evals, skipped, deduped, visited)
   accounting: budget = evals + skipped + deduped + visited +
   build-failures. *)
let run_batched_filtered ?filter ?metrics ?(start = 0) ?(curve_init = [||])
    ?(counters_init = (0, 0, 0, 0)) ?(round_end = no_round_end) ~obs ~batch
    ~pool ~budget ~guard ~dedup ~prerank ~visited ~space ~caps
    ~objective ~prepare_parent ~fold () =
  if batch < 1 then invalid_arg "Stochastic: batch must be >= 1";
  if start < 0 || start > budget then
    invalid_arg "Stochastic: resume offset out of range";
  let traced = Obs.Trace.enabled obs in
  let bump ?(by = 1) name =
    if by > 0 then
      match metrics with None -> () | Some m -> Obs.Metrics.incr m ~by name
  in
  let ratio = match prerank with None -> 1.0 | Some p -> p.filter_ratio in
  let want_fp = dedup || visited <> None in
  let curve = Array.make budget infinity in
  Array.blit curve_init 0 curve 0 (min start (Array.length curve_init));
  let e0, s0, d0, v0 = counters_init in
  let n_evals = ref e0
  and n_skipped = ref s0
  and n_deduped = ref d0
  and n_visited = ref v0 in
  let filled = ref start in
  while !filled < budget do
    let b = min batch (budget - !filled) in
    (* 1. prepare: parent selection + RNG splits, submit thread, slot
       order — the only draws from the main search stream *)
    let prepared =
      Array.init b (fun i -> prepare_parent ~slot:(!filled + i))
    in
    (* 2. build phase on the pool: grow children (and, when dedup or
       the visited set needs them, their canonical fingerprints — pure,
       so still jobs-invariant), no measurement yet *)
    let built_fp =
      Parallel.Pool.map pool
        (fun (parent, task_rng) ->
          let r = build_child ?filter space caps parent task_rng in
          let fp =
            match r with
            | Ok (_, p, _) when want_fp -> Canon.fingerprint p
            | Ok _ | Error _ -> ""
          in
          (r, fp))
        prepared
    in
    let built = Array.map fst built_fp in
    let fps = Array.map snd built_fp in
    let n_ok =
      Array.fold_left
        (fun acc r -> match r with Ok _ -> acc + 1 | Error _ -> acc)
        0 built
    in
    (* 3. dedup: group slots by canonical fingerprint — alpha-renamed /
       commutatively-reordered spellings of one state share a group;
       the first slot of a group is its representative *)
    let rep_of = Array.init b (fun i -> i) in
    if dedup then begin
      let tbl = Hashtbl.create (2 * b) in
      for i = 0 to b - 1 do
        match built.(i) with
        | Error _ -> ()
        | Ok _ -> (
            match Hashtbl.find_opt tbl fps.(i) with
            | None -> Hashtbl.add tbl fps.(i) i
            | Some r -> rep_of.(i) <- r)
      done
    end;
    let all_reps =
      List.filter
        (fun i -> rep_of.(i) = i && Result.is_ok built.(i))
        (List.init b Fun.id)
    in
    (* 3b. visited filter: a representative whose canonical state was
       measured in an earlier round never reaches pre-ranking or the
       simulator; membership is checked on the submitting thread, so
       the decision is a pure function of the trajectory so far *)
    let visited_rep = Array.make b false in
    (match visited with
    | None -> ()
    | Some set ->
        List.iter
          (fun i -> if Hashtbl.mem set fps.(i) then visited_rep.(i) <- true)
          all_reps);
    let reps = List.filter (fun i -> not visited_rep.(i)) all_reps in
    let n_reps = List.length reps in
    if want_fp then begin
      bump ~by:n_ok "canon.total";
      bump ~by:n_reps "canon.unique"
    end;
    if dedup then begin
      bump ~by:(n_ok - List.length all_reps) "surrogate.dedup_saved";
      if traced then
        Obs.Trace.emit obs "search.batch_dedup" (fun () ->
            Obs.Trace.
              [
                int "i" !filled;
                int "unique" (List.length all_reps);
                int "total" n_ok;
              ])
    end;
    (* 4. surrogate pre-rank: keep the top-k distinct candidates; ties
       and equal scores resolve by slot order, so selection is
       deterministic *)
    let selected =
      if ratio >= 1.0 then reps
      else begin
        let p = Option.get prerank in
        let scored =
          List.map
            (fun i ->
              match built.(i) with
              | Ok (_, prog, _) -> (i, p.score prog)
              | Error _ -> assert false)
            reps
        in
        let k = min n_reps (max 1 (int_of_float (ceil (ratio *. float_of_int n_reps)))) in
        let order =
          List.stable_sort
            (fun (i1, s1) (i2, s2) ->
              match compare (s2 : float) s1 with
              | 0 -> compare (i1 : int) i2
              | c -> c)
            scored
        in
        let kept =
          List.filteri (fun idx _ -> idx < k) order
          |> List.map fst
          |> List.sort compare
        in
        bump ~by:n_reps "surrogate.scored";
        bump ~by:k "surrogate.kept";
        bump ~by:(n_reps - k) "surrogate.filtered";
        if traced then
          Obs.Trace.emit obs "search.prerank" (fun () ->
              Obs.Trace.[ int "i" !filled; int "scored" n_reps; int "kept" k ]);
        kept
      end
    in
    (* 5. evaluation phase on the pool: only the selected
       representatives hit the guarded simulator *)
    let selected_arr = Array.of_list selected in
    let measured =
      Parallel.Pool.map pool
        (fun i ->
          match built.(i) with
          | Error _ -> assert false
          | Ok (_, prog, _) ->
              let t0 = Obs.Span.now () in
              let r = Robust.Guard.eval ~cfg:guard objective prog in
              (r, Float.max 0. (Obs.Span.now () -. t0)))
        selected_arr
    in
    n_evals := !n_evals + Array.length selected_arr;
    bump ~by:(Array.length selected_arr) "surrogate.evals";
    let eval_of = Hashtbl.create (2 * b) in
    Array.iteri (fun j i -> Hashtbl.add eval_of i measured.(j)) selected_arr;
    (* record the states measured this round; quarantined evaluations
       stay unmarked (like the cache, which never stores non-finite
       scores) so they do not poison the set *)
    (match visited with
    | None -> ()
    | Some set ->
        Array.iteri
          (fun j i ->
            match measured.(j) with
            | Ok _, _ -> Hashtbl.replace set fps.(i) ()
            | Error _, _ -> ())
          selected_arr);
    (* 6. fold in slot order on the submitting thread; all trace events
       of the round are emitted here, so the stream is a pure function
       of (seed, batch, model state) *)
    for i = 0 to b - 1 do
      let slot = !filled + i in
      let parent, _ = prepared.(i) in
      let outcome =
        match built.(i) with
        | Error f -> Failed f
        | Ok (moves, prog, trail) -> (
            if visited_rep.(rep_of.(i)) then begin
              incr n_visited;
              if traced then
                Obs.Trace.emit obs "search.visited_skip" (fun () ->
                    Obs.Trace.[ int "slot" slot ]);
              Visited
            end
            else
            match Hashtbl.find_opt eval_of rep_of.(i) with
            | None ->
                incr n_skipped;
                Skipped
            | Some (Error f, _) ->
                if i <> rep_of.(i) then incr n_deduped;
                Failed f
            | Some (Ok runtime, dur) ->
                if i = rep_of.(i) then begin
                  (match prerank with
                  | Some p -> p.observe prog runtime
                  | None -> ());
                  if traced then
                    Obs.Trace.emit obs "search.eval" (fun () ->
                        Obs.Trace.
                          [
                            int "slot" slot;
                            int "n_moves" (List.length moves);
                            num "runtime" runtime;
                            num "dur_s" dur;
                          ])
                end
                else incr n_deduped;
                Evaluated
                  { moves; prog; trail; runtime;
                    parent_runtime = parent.runtime })
      in
      curve.(slot) <- fold slot parent outcome
    done;
    filled := !filled + b;
    round_end ~filled:!filled ~curve
      ~stats:(!n_evals, !n_skipped, !n_deduped, !n_visited)
  done;
  (curve, !n_evals, !n_skipped, !n_deduped, !n_visited)

(* Seed a fresh visited set with the states the prelude already
   measured (root, warm-start replay): children that land back on them
   must not pay a second simulation. *)
let make_visited ~visited_dedup root warm =
  if not visited_dedup then None
  else begin
    let set = Hashtbl.create 64 in
    Hashtbl.replace set (Canon.fingerprint root) ();
    (match warm with
    | Some w -> Hashtbl.replace set (Canon.fingerprint w.prog) ()
    | None -> ());
    Some set
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume (crash safety)                                  *)
(* ------------------------------------------------------------------ *)

(* The batched engines checkpoint at round boundaries: after each round
   the whole search state — main RNG quadruple, candidate pool with
   selection weights, best-so-far, the annealing chain state, the
   best-so-far curve prefix, exact accounting, the visited fingerprint
   set, the surrogate model (via [snapshot_extra]), and the number of
   trace events emitted so far — is written atomically and durably
   through {!Recover.Store}.  Because rounds are the unit of
   determinism (parent selection, RNG splits and acceptance draws all
   happen on the submitting thread between round boundaries), a run
   killed at any point and resumed from its last checkpoint replays the
   exact trajectory of the uninterrupted run: same [result], exact
   accounting across the splice, and — since the checkpoint records the
   event count — a stripped trace that splices byte-identically
   (killed[0..events) ++ resumed == uninterrupted).  This is the house
   jobs-invariance discipline extended to kill-invariance.

   Floats (runtimes can be +inf for quarantined slots) cross the file
   boundary as IEEE-754 bit patterns ({!Recover.Bits}); candidate
   programs and trails are not serialized — they rebuild by replay from
   the root, which costs transform replays but zero simulator
   evaluations. *)

type checkpoint_cfg = { path : string; every : int; resume : bool }

type ckpt_state = {
  st_filled : int;
  st_rng : int64 array;
  st_pool : (string list * float * float * float) array;
      (* moves, runtime, parent_runtime, selection weight *)
  st_best : string list * float * float;
  st_current : (string list * float * float) option;  (* annealing chain *)
  st_temp : float option;
  st_curve : float array;  (* prefix of length st_filled *)
  st_counts : int * int * int * int;  (* evals, skipped, deduped, visited *)
  st_failures : int;
  st_visited : string list;  (* sorted canonical fingerprints *)
  st_events : int;  (* trace events emitted up to this checkpoint *)
  st_extra : Util.Json.t option;  (* surrogate model state *)
}

let ck_corrupt fmt = Recover.Field.corrupt fmt
let ck_member = Recover.Field.member
let ck_int = Recover.Field.int
let ck_list = Recover.Field.list
let ck_float = Recover.Field.float_bits
let str_list = Recover.Field.str_list
let hex64 v = Util.Json.Str (Printf.sprintf "%Lx" v)

let ck_hex64 = function
  | Util.Json.Str s -> (
      match Int64.of_string_opt ("0x" ^ s) with
      | Some v -> v
      | None -> ck_corrupt "bad 64-bit hex word %S" s)
  | _ -> ck_corrupt "RNG state word is not a string"

let triple_json (moves, runtime, parent_runtime) =
  Util.Json.Obj
    [
      ("moves", Util.Json.Arr (List.map (fun m -> Util.Json.Str m) moves));
      ("rt", Recover.Bits.of_float runtime);
      ("prt", Recover.Bits.of_float parent_runtime);
    ]

let triple_of_json json =
  (str_list "moves" json, ck_float "rt" json, ck_float "prt" json)

let encode_stochastic ~meth ~space ~seed ~budget ~batch (st : ckpt_state) =
  let open Util.Json in
  let entry (moves, rt, prt, w) =
    Obj
      [
        ("moves", Arr (List.map (fun m -> Str m) moves));
        ("rt", Recover.Bits.of_float rt);
        ("prt", Recover.Bits.of_float prt);
        ("w", Recover.Bits.of_float w);
      ]
  in
  Obj
    (List.concat
       [
         [
           ("kind", Str "stochastic");
           ("method", Str meth);
           ("space", Str (space_name space));
           ("seed", Num (float_of_int seed));
           ("budget", Num (float_of_int budget));
           ("batch", Num (float_of_int batch));
           ("filled", Num (float_of_int st.st_filled));
           ("rng", Arr (Array.to_list (Array.map hex64 st.st_rng)));
           ("pool", Arr (Array.to_list (Array.map entry st.st_pool)));
           ("best", triple_json st.st_best);
         ];
         (match st.st_current with
         | Some c -> [ ("current", triple_json c) ]
         | None -> []);
         (match st.st_temp with
         | Some t -> [ ("temp", Recover.Bits.of_float t) ]
         | None -> []);
         [
           ( "curve",
             Arr
               (Array.to_list (Array.map Recover.Bits.of_float st.st_curve))
           );
           ( "counts",
             let e, s, d, v = st.st_counts in
             Arr (List.map (fun x -> Num (float_of_int x)) [ e; s; d; v ]) );
           ("failures", Num (float_of_int st.st_failures));
           ("visited", Arr (List.map (fun f -> Str f) st.st_visited));
           ("events", Num (float_of_int st.st_events));
         ];
         (match st.st_extra with Some j -> [ ("model", j) ] | None -> []);
       ])

let ck_check_identity ~kind ~meth ~space ~seed ~budget ~batch json =
  Recover.Field.check_str json "kind" kind;
  Recover.Field.check_str json "method" meth;
  Recover.Field.check_str json "space" (space_name space);
  Recover.Field.check_int json "seed" seed;
  Recover.Field.check_int json "budget" budget;
  Recover.Field.check_int json "batch" batch

let decode_stochastic ~meth ~space ~seed ~budget ~batch json : ckpt_state =
  ck_check_identity ~kind:"stochastic" ~meth ~space ~seed ~budget ~batch json;
  let filled = ck_int "filled" json in
  let curve =
    ck_list "curve" json
    |> List.map (fun v ->
           match Recover.Bits.to_float v with
           | Some f -> f
           | None -> ck_corrupt "curve entry is not a float bit pattern")
    |> Array.of_list
  in
  if Array.length curve <> filled then
    ck_corrupt "curve length %d does not match filled %d" (Array.length curve)
      filled;
  let rng =
    match ck_list "rng" json with
    | [ _; _; _; _ ] as words -> Array.of_list (List.map ck_hex64 words)
    | l -> ck_corrupt "RNG state has %d words, expected 4" (List.length l)
  in
  let pool =
    ck_list "pool" json
    |> List.map (fun e ->
           let moves, rt, prt = triple_of_json e in
           (moves, rt, prt, ck_float "w" e))
    |> Array.of_list
  in
  let counts =
    match ck_list "counts" json |> List.map Util.Json.to_int with
    | [ Some e; Some s; Some d; Some v ] -> (e, s, d, v)
    | _ -> ck_corrupt "malformed accounting counts"
  in
  {
    st_filled = filled;
    st_rng = rng;
    st_pool = pool;
    st_best = triple_of_json (ck_member "best" json);
    st_current =
      Option.map triple_of_json (Util.Json.member "current" json);
    st_temp = Option.bind (Util.Json.member "temp" json) Recover.Bits.to_float;
    st_curve = curve;
    st_counts = counts;
    st_failures = ck_int "failures" json;
    st_visited = str_list "visited" json;
    st_events = ck_int "events" json;
    st_extra = Util.Json.member "model" json;
  }

(* Load the resume state, if resuming was requested and a checkpoint
   exists.  [--resume] with no checkpoint file yet is a cold start (the
   first run of a campaign), not an error; a corrupt or mismatched file
   is a typed {!Recover.Error} — never garbage state. *)
let load_stochastic_resume checkpoint ~meth ~space ~seed ~budget ~batch =
  match checkpoint with
  | Some { resume = true; path; _ } when Sys.file_exists path -> (
      match Recover.Store.load ~path with
      | Ok payload ->
          Some (decode_stochastic ~meth ~space ~seed ~budget ~batch payload)
      | Error e -> raise (Recover.Error e))
  | _ -> None

(* Rebuild a candidate from its serialized (moves, runtime,
   parent_runtime): the program and its trail replay from the root
   through the same [filter] the original run used — transform replays
   only, no simulator evaluations (this is what makes resume strictly
   cheaper than a cold restart). *)
let cand_of_triple ?filter caps root (moves, runtime, parent_runtime) =
  let _, prog, trail = from_root ?filter caps root moves in
  { moves; prog; trail; runtime; parent_runtime }

(* Rebuild the candidate pool with its exact selection weights (a
   quarantined entry keeps weight 0, the root its 1/root_time, etc.) so
   the first resumed parent draw matches the uninterrupted run's. *)
let pool_of_state ?filter caps root entries =
  let pool = Util.Dynarray.create ~capacity:64 (root_candidate root infinity) in
  let weights = Util.Dynarray.create ~capacity:64 0.0 in
  let push_weighted w c =
    Util.Dynarray.push pool c;
    Util.Dynarray.push weights w
  in
  Array.iter
    (fun (moves, rt, prt, w) ->
      push_weighted w (cand_of_triple ?filter caps root (moves, rt, prt)))
    entries;
  let push c = push_weighted (1.0 /. Float.max c.parent_runtime 1e-12) c in
  let push_quarantined c = push_weighted 0.0 c in
  (pool, weights, push, push_quarantined)

let snapshot_pool pool weights =
  Array.init (Util.Dynarray.length pool) (fun i ->
      let c = Util.Dynarray.get pool i in
      (c.moves, c.runtime, c.parent_runtime, Util.Dynarray.get weights i))

let snapshot_triple (c : candidate) = (c.moves, c.runtime, c.parent_runtime)

let visited_to_list = function
  | None -> []
  | Some set ->
      Hashtbl.fold (fun k () acc -> k :: acc) set [] |> List.sort compare

let visited_of_list fps =
  let set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace set f ()) fps;
  set

(* The per-round hook: write a checkpoint when the cadence is due
   (every [every] filled slots, and always at the end of the run), and
   honor a pending SIGINT/SIGTERM by checkpointing and raising
   {!Recover.Interrupt.Interrupted} at this safe point (the pool is
   idle between rounds).  The [checkpoint.write] trace event is emitted
   *before* the event counter is read, so the recorded count includes
   it and the trace splice stays exact. *)
let make_round_hook ?metrics ~obs ~counted ~events_base ~checkpoint ~start
    ~budget ~snapshot () =
  let last = ref start in
  let write ~filled ~curve ~stats =
    match checkpoint with
    | None -> None
    | Some ck ->
        Obs.Trace.emit obs "checkpoint.write" (fun () ->
            let e, s, d, v = stats in
            Obs.Trace.
              [
                int "filled" filled;
                int "evals" e;
                int "skipped" s;
                int "deduped" d;
                int "visited" v;
              ]);
        (match metrics with
        | Some m -> Obs.Metrics.incr m "checkpoint.writes"
        | None -> ());
        Recover.Store.save ~path:ck.path
          (snapshot ~filled ~curve ~stats ~events:(events_base + counted ()));
        last := filled;
        Some ck.path
  in
  fun ~filled ~curve ~stats ->
    let due =
      match checkpoint with
      | Some ck ->
          filled > !last && (filled - !last >= ck.every || filled >= budget)
      | None -> false
    in
    let written = if due then write ~filled ~curve ~stats else None in
    if Recover.Interrupt.requested () && filled < budget then begin
      let path =
        match written with
        | Some _ as p -> p
        | None ->
            if filled > !last then write ~filled ~curve ~stats
            else Option.map (fun ck -> ck.path) checkpoint
      in
      raise (Recover.Interrupt.Interrupted path)
    end

(* Wrap [obs] so every emitted event is counted (checkpoints record the
   count for trace splicing) — only when checkpointing, so the default
   path allocates nothing new. *)
let maybe_counting checkpoint obs =
  match checkpoint with
  | None -> (obs, fun () -> 0)
  | Some _ -> Obs.Trace.counting obs

let restore_model restore_extra extra =
  match (restore_extra, extra) with Some f, Some j -> f j | _ -> ()

let random_sampling_parallel ?(seed = 1) ?filter ?(init = [])
    ?(obs = Obs.Trace.null) ?metrics ?(guard = Robust.Guard.default)
    ?(batch = default_batch) ?prerank ?(dedup = false)
    ?(visited_dedup = false) ?checkpoint ?snapshot_extra ?restore_extra
    ~(pool : Parallel.Pool.t) ~(space : space)
    ~(budget : int) caps (objective : objective) (root : Ir.Prog.t) : result =
  check_prerank prerank;
  let guard = Robust.Guard.instrument ?metrics guard in
  let meth = "random-sampling-parallel" in
  let obs, counted = maybe_counting checkpoint obs in
  let resumed =
    load_stochastic_resume checkpoint ~meth ~space ~seed ~budget ~batch
  in
  let failures, note = make_noter ?metrics obs in
  let ( rng,
        cands,
        weights,
        push,
        push_quarantined,
        best,
        visited,
        start,
        curve_init,
        counters_init,
        events_base ) =
    match resumed with
    | None ->
        (* cold start: the prelude (root evaluation, warm-start replay,
           model seeding) runs exactly as in earlier releases *)
        let rng = Util.Rng.create seed in
        let root_time = guarded_root ~guard ~note objective root in
        let root_cand = root_candidate root root_time in
        emit_start obs ~meth ~space ~budget ~seed ~root_time;
        let warm =
          guarded_warm ~guard ~note ?filter caps objective root ~root_time
            init
        in
        observe_seed prerank root ~root_time warm;
        let cands, weights, push, push_quarantined, best0 =
          make_pool root_cand warm
        in
        let visited = make_visited ~visited_dedup root warm in
        ( rng, cands, weights, push, push_quarantined, ref best0, visited, 0,
          [||], (0, 0, 0, 0), 0 )
    | Some st ->
        (* resume: the entire prelude is skipped — its effects (root
           evaluation, warm replay, start event, model seeding) are all
           inside the restored state; re-running it would re-pay
           evaluations and duplicate trace events *)
        (match metrics with
        | Some m -> Obs.Metrics.incr m "checkpoint.resumes"
        | None -> ());
        failures := st.st_failures;
        let cands, weights, push, push_quarantined =
          pool_of_state ?filter caps root st.st_pool
        in
        restore_model restore_extra st.st_extra;
        let visited =
          if visited_dedup then Some (visited_of_list st.st_visited) else None
        in
        ( Util.Rng.of_state st.st_rng, cands, weights, push,
          push_quarantined, ref (cand_of_triple ?filter caps root st.st_best),
          visited, st.st_filled, st.st_curve, st.st_counts, st.st_events )
  in
  let snapshot ~filled ~curve ~stats ~events =
    encode_stochastic ~meth ~space ~seed ~budget ~batch
      {
        st_filled = filled;
        st_rng = Util.Rng.state rng;
        st_pool = snapshot_pool cands weights;
        st_best = snapshot_triple !best;
        st_current = None;
        st_temp = None;
        st_curve = Array.sub curve 0 filled;
        st_counts = stats;
        st_failures = !failures;
        st_visited = visited_to_list visited;
        st_events = events;
        st_extra = Option.map (fun f -> f ()) snapshot_extra;
      }
  in
  let round_end =
    make_round_hook ?metrics ~obs ~counted ~events_base ~checkpoint ~start
      ~budget ~snapshot ()
  in
  match (prerank, dedup, visited_dedup) with
  | None, false, false ->
      (* the default engine, byte-identical to earlier releases *)
      let prepare sink ~slot =
        let parent = pick_parent rng cands weights in
        let task_rng = Util.Rng.split rng in
        child_task ?filter ?metrics ~guard ~obs:sink ~slot space caps root
          objective parent task_rng
      in
      let fold i (child, failed) =
        (match failed with
        | Some _ ->
            (* the worker already recorded the event and counters *)
            incr failures;
            push_quarantined child
        | None ->
            push child;
            if child.runtime < !best.runtime then begin
              best := child;
              emit_best obs ~i child
            end;
            emit_step obs ~i ~runtime:child.runtime ~best:!best.runtime
              (fun () -> []);
            note_step ?metrics ~runtime:child.runtime ());
        !best.runtime
      in
      let curve =
        run_batched ~start ~curve_init ~round_end ~obs ~batch ~pool ~budget
          ~prepare ~fold ()
      in
      {
        best = !best.prog;
        best_time = !best.runtime;
        best_moves = !best.moves;
        curve;
        evals = budget;
        skipped = 0;
        deduped = 0;
        visited = 0;
        failures = !failures;
      }
  | _ ->
      let note_slot ~slot f =
        incr failures;
        Robust.Guard.note ~obs ?metrics
          ~fields:[ Obs.Trace.int "slot" slot ]
          f
      in
      let prepare_parent ~slot:_ =
        let parent = pick_parent rng cands weights in
        (parent, Util.Rng.split rng)
      in
      let fold slot parent = function
        | Failed f ->
            note_slot ~slot f;
            push_quarantined (quarantined root parent.runtime);
            !best.runtime
        | Skipped | Visited -> !best.runtime
        | Evaluated child ->
            push child;
            if child.runtime < !best.runtime then begin
              best := child;
              emit_best obs ~i:slot child
            end;
            emit_step obs ~i:slot ~runtime:child.runtime ~best:!best.runtime
              (fun () -> []);
            note_step ?metrics ~runtime:child.runtime ();
            !best.runtime
      in
      let curve, evals, skipped, deduped, visited =
        run_batched_filtered ?filter ?metrics ~start ~curve_init
          ~counters_init ~round_end ~obs ~batch ~pool ~budget ~guard ~dedup
          ~prerank ~visited ~space ~caps ~objective ~prepare_parent
          ~fold ()
      in
      {
        best = !best.prog;
        best_time = !best.runtime;
        best_moves = !best.moves;
        curve;
        evals;
        skipped;
        deduped;
        visited;
        failures = !failures;
      }

let simulated_annealing_parallel ?(seed = 1) ?filter ?(init = [])
    ?(obs = Obs.Trace.null) ?metrics ?(guard = Robust.Guard.default)
    ?(t0 = 0.5) ?(cooling = 0.995) ?(batch = default_batch) ?prerank
    ?(dedup = false) ?(visited_dedup = false) ?checkpoint ?snapshot_extra
    ?restore_extra ~(pool : Parallel.Pool.t)
    ~(space : space) ~(budget : int) caps (objective : objective)
    (root : Ir.Prog.t) : result =
  check_prerank prerank;
  let guard = Robust.Guard.instrument ?metrics guard in
  let meth = "simulated-annealing-parallel" in
  let obs, counted = maybe_counting checkpoint obs in
  let resumed =
    load_stochastic_resume checkpoint ~meth ~space ~seed ~budget ~batch
  in
  let failures, note = make_noter ?metrics obs in
  let ( rng,
        current,
        best,
        temp,
        visited,
        start,
        curve_init,
        counters_init,
        events_base ) =
    match resumed with
    | None ->
        let rng = Util.Rng.create seed in
        let root_time = guarded_root ~guard ~note objective root in
        let root_cand = root_candidate root root_time in
        emit_start obs ~meth ~space ~budget ~seed ~root_time;
        let warm =
          guarded_warm ~guard ~note ?filter caps objective root ~root_time
            init
        in
        observe_seed prerank root ~root_time warm;
        let current =
          ref
            (match warm with
            | Some w when w.runtime <= root_time -> w
            | Some _ | None -> root_cand)
        in
        let visited = make_visited ~visited_dedup root warm in
        (rng, current, ref !current, ref t0, visited, 0, [||], (0, 0, 0, 0), 0)
    | Some st ->
        (* resume: prelude skipped — see random_sampling_parallel *)
        (match metrics with
        | Some m -> Obs.Metrics.incr m "checkpoint.resumes"
        | None -> ());
        failures := st.st_failures;
        restore_model restore_extra st.st_extra;
        let current =
          match st.st_current with
          | Some c -> ref (cand_of_triple ?filter caps root c)
          | None -> ck_corrupt "annealing checkpoint missing chain state"
        in
        let temp =
          match st.st_temp with
          | Some t -> ref t
          | None -> ck_corrupt "annealing checkpoint missing temperature"
        in
        let visited =
          if visited_dedup then Some (visited_of_list st.st_visited) else None
        in
        ( Util.Rng.of_state st.st_rng, current,
          ref (cand_of_triple ?filter caps root st.st_best), temp, visited,
          st.st_filled, st.st_curve, st.st_counts, st.st_events )
  in
  let snapshot ~filled ~curve ~stats ~events =
    encode_stochastic ~meth ~space ~seed ~budget ~batch
      {
        st_filled = filled;
        st_rng = Util.Rng.state rng;
        st_pool = [||];
        st_best = snapshot_triple !best;
        st_current = Some (snapshot_triple !current);
        st_temp = Some !temp;
        st_curve = Array.sub curve 0 filled;
        st_counts = stats;
        st_failures = !failures;
        st_visited = visited_to_list visited;
        st_events = events;
        st_extra = Option.map (fun f -> f ()) snapshot_extra;
      }
  in
  let round_end =
    make_round_hook ?metrics ~obs ~counted ~events_base ~checkpoint ~start
      ~budget ~snapshot ()
  in
  match (prerank, dedup, visited_dedup) with
  | None, false, false ->
      (* the default engine, byte-identical to earlier releases *)
      let prepare sink ~slot =
        (* all proposals of a round branch off the round-start state *)
        let parent = !current in
        let task_rng = Util.Rng.split rng in
        child_task ?filter ?metrics ~guard ~obs:sink ~slot space caps root
          objective parent task_rng
      in
      let fold i (child, failed) =
        (match failed with
        | Some _ ->
            (* quarantined: never accepted, never best; the cooling
               schedule still advances so temperature stays a function
               of the step index alone.  No acceptance RNG draw happens
               — the failure is deterministic, so the draw sequence is
               too. *)
            incr failures
        | None ->
            let accept =
              child.runtime <= !current.runtime
              ||
              let delta =
                (child.runtime -. !current.runtime)
                /. Float.max !current.runtime 1e-12
              in
              Util.Rng.float rng < exp (-.delta /. Float.max !temp 1e-6)
            in
            if accept then current := child;
            if child.runtime < !best.runtime then begin
              best := child;
              emit_best obs ~i child
            end;
            emit_step obs ~i ~runtime:child.runtime ~best:!best.runtime
              (fun () ->
                [
                  Obs.Trace.bool "accepted" accept; Obs.Trace.num "temp" !temp;
                ]);
            note_step ?metrics ~accepted:accept ~temp:!temp
              ~runtime:child.runtime ());
        temp := !temp *. cooling;
        !best.runtime
      in
      let curve =
        run_batched ~start ~curve_init ~round_end ~obs ~batch ~pool ~budget
          ~prepare ~fold ()
      in
      {
        best = !best.prog;
        best_time = !best.runtime;
        best_moves = !best.moves;
        curve;
        evals = budget;
        skipped = 0;
        deduped = 0;
        visited = 0;
        failures = !failures;
      }
  | _ ->
      let note_slot ~slot f =
        incr failures;
        Robust.Guard.note ~obs ?metrics
          ~fields:[ Obs.Trace.int "slot" slot ]
          f
      in
      let prepare_parent ~slot:_ =
        (* all proposals of a round branch off the round-start state *)
        (!current, Util.Rng.split rng)
      in
      let fold slot _parent outcome =
        (match outcome with
        | Failed f ->
            (* quarantined: never accepted, never best; cooling still
               advances so temperature stays a function of the step
               index alone *)
            note_slot ~slot f
        | Skipped | Visited ->
            (* filtered out (surrogate) or already measured (visited
               set) before measurement: no acceptance draw (the skip is
               deterministic), cooling still advances *)
            ()
        | Evaluated child ->
            let accept =
              child.runtime <= !current.runtime
              ||
              let delta =
                (child.runtime -. !current.runtime)
                /. Float.max !current.runtime 1e-12
              in
              Util.Rng.float rng < exp (-.delta /. Float.max !temp 1e-6)
            in
            if accept then current := child;
            if child.runtime < !best.runtime then begin
              best := child;
              emit_best obs ~i:slot child
            end;
            emit_step obs ~i:slot ~runtime:child.runtime ~best:!best.runtime
              (fun () ->
                [
                  Obs.Trace.bool "accepted" accept; Obs.Trace.num "temp" !temp;
                ]);
            note_step ?metrics ~accepted:accept ~temp:!temp
              ~runtime:child.runtime ());
        temp := !temp *. cooling;
        !best.runtime
      in
      let curve, evals, skipped, deduped, visited =
        run_batched_filtered ?filter ?metrics ~start ~curve_init
          ~counters_init ~round_end ~obs ~batch ~pool ~budget ~guard ~dedup
          ~prerank ~visited ~space ~caps ~objective ~prepare_parent
          ~fold ()
      in
      {
        best = !best.prog;
        best_time = !best.runtime;
        best_moves = !best.moves;
        curve;
        evals;
        skipped;
        deduped;
        visited;
        failures = !failures;
      }

(* ------------------------------------------------------------------ *)
(* Simulated annealing                                                 *)
(* ------------------------------------------------------------------ *)

let simulated_annealing ?(seed = 1) ?filter ?(init = [])
    ?(obs = Obs.Trace.null) ?metrics ?(guard = Robust.Guard.default)
    ?(t0 = 0.5) ?(cooling = 0.995) ~(space : space) ~(budget : int) caps
    (objective : objective) (root : Ir.Prog.t) : result =
  let guard = Robust.Guard.instrument ?metrics guard in
  let rng = Util.Rng.create seed in
  let failures, note = make_noter ?metrics obs in
  let root_time = guarded_root ~guard ~note objective root in
  let root_cand = root_candidate root root_time in
  emit_start obs ~meth:"simulated-annealing" ~space ~budget ~seed
    ~root_time;
  let current =
    ref
      (match
         guarded_warm ~guard ~note ?filter caps objective root ~root_time
           init
       with
      | Some w when w.runtime <= root_time -> w
      | Some _ | None -> root_cand)
  in
  let best = ref !current in
  let temp = ref t0 in
  let curve =
    run_curve budget (fun i ->
        let child, failed =
          guarded_child ~guard ?filter space caps rng root objective
            !current
        in
        (match failed with
        | Some f ->
            (* quarantined: never accepted, never best; cooling still
               advances so temperature stays a function of the step
               index alone *)
            note ~i f
        | None ->
            let accept =
              child.runtime <= !current.runtime
              ||
              let delta =
                (child.runtime -. !current.runtime)
                /. Float.max !current.runtime 1e-12
              in
              Util.Rng.float rng < exp (-.delta /. Float.max !temp 1e-6)
            in
            if accept then current := child;
            if child.runtime < !best.runtime then begin
              best := child;
              emit_best obs ~i child
            end;
            emit_step obs ~i ~runtime:child.runtime ~best:!best.runtime
              (fun () ->
                [
                  Obs.Trace.bool "accepted" accept; Obs.Trace.num "temp" !temp;
                ]);
            note_step ?metrics ~accepted:accept ~temp:!temp
              ~runtime:child.runtime ());
        temp := !temp *. cooling;
        child.runtime)
  in
  {
    best = !best.prog;
    best_time = !best.runtime;
    best_moves = !best.moves;
    curve;
    evals = budget;
    skipped = 0;
    deduped = 0;
    visited = 0;
    failures = !failures;
  }
