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

   Both methods are policies of one round engine ([run_rounds]), which
   follows AutoTVM's batched measurement loop: a round picks [batch]
   parents on the calling thread, grows and measures their children on
   a worker pool, and folds the outcomes back in slot order.  At
   [batch = 1] a round is one step of the classic sequential loop.

   Every budget slot fills one point of the best-so-far curve, which
   starts from the root (or warm-start) runtime; the curve is what the
   convergence comparison (Figure 12) plots. *)

open Transform

type objective = Ir.Prog.t -> float

type space = Edges | Heuristic

(* A surrogate pre-ranking stage: [score] is a cheap learned predictor
   (higher = predicted faster) used to rank the distinct candidates of
   a round so only the top [filter_ratio] fraction pays for a real
   (simulator) evaluation; [observe] feeds every real measurement back
   as online training signal.  The search layer treats both as abstract
   closures — the concrete model lives in [lib/surrogate], which
   depends on this library, not the reverse. *)
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
  curve : float array; (* best-so-far runtime after each budget slot *)
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
   [Atomic], not a [Lazy]: the build phase reads parents from several
   domains, and forcing one [Lazy] from two domains raises, while two
   domains filling the same slot compute equal arrays, so a race only
   wastes work. *)
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

(* Grow one child of [parent] without measuring it, as (moves, program,
   trail).  In the edges-structured space the child appends one move
   offered at the parent's last state and applies it; in the heuristic
   space it is the parent's first [pos] moves followed by the mutated
   suffix, replayed from the parent's trail. *)
let expand ?filter space caps rng (parent : candidate) =
  match space with
  | Edges -> (
      let last = parent.trail.(Array.length parent.trail - 1) in
      match offers ?filter caps last with
      | [||] -> (parent.moves, parent.prog, parent.trail)
      | insts ->
          let inst = insts.(Util.Rng.int rng (Array.length insts)) in
          let p = inst.apply parent.prog in
          ( parent.moves @ [ Xforms.describe inst ],
            p,
            Array.append parent.trail [| node p |] ))
  | Heuristic ->
      let pos, suffix = mutate ?filter caps rng parent in
      extend ?filter caps (parent.moves, parent.trail) pos suffix

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
           let moves, prog, trail = from_root ?filter caps root init in
           { moves; prog; trail; runtime = objective prog;
             parent_runtime = infinity })
         ())

(* A failure counter plus its recorder for the prelude.  Every
   quarantined evaluation becomes one [search.eval_error] event (here
   the [i] field is -1 for the root evaluation, -2 for the warm-start
   replay; a budget slot's failure carries [slot] instead) and bumps
   the robust.* counters — so [result.failures] always equals the
   number of eval_error events the run traced. *)
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

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* Every emission site is guarded with [Obs.Trace.enabled] so an
   untraced run allocates neither events nor field-thunk closures, and
   reads no clock.  All traced values (slot indices, runtimes, move
   counts, temperature) are deterministic functions of (seed, batch) —
   wall-clock only ever enters through [dur_s] fields, which
   [Obs.Trace.strip_timing] removes; this is what makes --jobs 1 /
   --jobs N traces comparable. *)

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

(* Counter/gauge updates per evaluated step.  [accepted = None] for
   sampling (no acceptance notion): then only the step counter and the
   runtime histogram move.  Annealing passes [Some bool] and
   additionally maintains [search.accepted], [search.acceptance_rate]
   and [search.temperature]. *)
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

(* ------------------------------------------------------------------ *)
(* The round engine                                                    *)
(* ------------------------------------------------------------------ *)

(* [run_rounds] is the one search loop.  Each round fills [batch]
   budget slots in phases:

     1. prepare, on the calling thread in slot order: each slot's
        parent (the method's choice) and its task RNG stream;
     2. build, on the pool: grow each child (and, when dedup or the
        visited set needs it, its canonical fingerprint through the
        search's [Canon.Memo], so a program met before skips the
        canonicalizer), no measurement yet;
     3. intra-batch dedup ([dedup]): slots are grouped by canonical
        fingerprint; each distinct state is evaluated once per round
        and duplicates share the measurement ([search.batch_dedup]
        carries unique/total counts);
     4. visited filter ([visited]): a state measured in an earlier
        round is never measured again ([search.visited_skip]);
     5. surrogate pre-ranking ([prerank]): a cheap learned score ranks
        the distinct candidates and only the top-k
        ([prerank.filter_ratio]) reach the guarded simulator; the rest
        are skipped outright ([search.prerank]);
     6. evaluate the selected representatives on the pool, then fold
        every slot's outcome in slot order on the calling thread.

   Everything that consumes the main RNG stream (parent choice, task
   streams, acceptance draws) or a model (scoring, training) happens on
   the calling thread in slot order, and only pure work runs on the
   pool, so the trajectory is a function of (seed, batch, model state):
   [jobs = 1] and [jobs = N] are identical, which the determinism tests
   pin.  For [batch > 1] candidates within a round cannot see each
   other, so the trajectory also depends on [batch].

   Each slot's task stream is split off the main stream, except at
   [batch = 1], where it is the main stream itself: [Parallel.Pool.map]
   runs a one-element batch inline on the calling thread, so the draws
   keep the sequential order — parent choice, expansion, then the
   fold's acceptance draw.

   Building outside the guard preserves the guard semantics: replay is
   pure and draws no randomness, so an exception during build is
   classified with the same [rejected_of_exn] a guarded replay would
   have produced, and {!Robust.Faults} only ever wraps the objective. *)

(* What one budget slot amounted to, folded in slot order. *)
type slot_outcome =
  | Evaluated of candidate  (** fresh measurement or shared duplicate *)
  | Failed of Robust.Guard.failure
      (** build or evaluation failure — quarantine *)
  | Skipped  (** surrogate-filtered: no measurement, not a failure *)
  | Visited
      (** canonical state already evaluated in an earlier round: no
          measurement, the visited set answered *)

(* Exceptions from a transform or replay classify exactly like they
   would under the guard. *)
let build_child ?filter space caps (parent : candidate) task_rng :
    (string list * Ir.Prog.t * node array, Robust.Guard.failure)
    Stdlib.result =
  match expand ?filter space caps task_rng parent with
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

(* [parent ()] is the method's parent choice for the next slot;
   [fold slot parent outcome] consumes one slot and returns the
   best-so-far runtime.  [visited], when present, is the cross-round
   visited set: canonical fingerprints of every state already measured.
   [memo] is the search's fingerprint memo, shared by the pool tasks.
   [start]/[curve_init]/[counters] resume the loop from a checkpointed
   round boundary, and [round_end] fires after each round with the
   filled count, the curve and the (evals, skipped, deduped, visited)
   accounting so far — the checkpoint writer's hook.  Returns the curve
   plus that accounting: budget = evals + skipped + deduped + visited +
   build-failures. *)
let run_rounds ?filter ?metrics ~obs ~pool ~batch ~budget ~guard ~dedup
    ~prerank ~visited ~memo ~space ~caps ~objective ~rng ~parent ~fold
    ~start ~curve_init ~counters ~round_end () =
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
  let e0, s0, d0, v0 = counters in
  let n_evals = ref e0
  and n_skipped = ref s0
  and n_deduped = ref d0
  and n_visited = ref v0 in
  let filled = ref start in
  while !filled < budget do
    let b = min batch (budget - !filled) in
    (* 1. prepare — the only draws from the main stream before the
       fold (see above for batch = 1) *)
    let prepared =
      Array.init b (fun _ ->
          let p = parent () in
          (p, if batch = 1 then rng else Util.Rng.split rng))
    in
    (* 2. build on the pool; fingerprints are pure, so still
       jobs-invariant *)
    let built_fp =
      Parallel.Pool.map pool
        (fun (parent, task_rng) ->
          let r = build_child ?filter space caps parent task_rng in
          let fp =
            match r with
            | Ok (_, p, _) when want_fp -> Canon.Memo.fingerprint memo p
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
    (* 3. dedup: alpha-renamed / commutatively-reordered spellings of
       one state share a group; the first slot of a group is its
       representative *)
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
    (* 4. visited filter: membership is checked on the calling thread,
       so the decision is a pure function of the trajectory so far *)
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
    (* 5. surrogate pre-rank: keep the top-k distinct candidates; ties
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
    (* 6. evaluation on the pool: only the selected representatives hit
       the guarded simulator *)
    let selected_arr = Array.of_list selected in
    let measured =
      Parallel.Pool.map pool
        (fun i ->
          match built.(i) with
          | Error _ -> assert false
          | Ok (_, prog, _) ->
              let eval () = Robust.Guard.eval ~cfg:guard objective prog in
              if not traced then (eval (), 0.)
              else begin
                let t0 = Obs.Span.now () in
                let r = eval () in
                (r, Float.max 0. (Obs.Span.now () -. t0))
              end)
        selected_arr
    in
    n_evals := !n_evals + Array.length selected_arr;
    if prerank <> None then
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
    (* fold in slot order on the calling thread; all trace events of
       the round are emitted here, so the stream is a pure function of
       (seed, batch, model state) *)
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
   must not pay a second simulation.  The seeds go through the search's
   memo, so a child that rebuilds the root is a memo hit. *)
let make_visited ~visited_dedup ~memo root warm =
  if not visited_dedup then None
  else begin
    let set = Hashtbl.create 64 in
    Hashtbl.replace set (Canon.Memo.fingerprint memo root) ();
    (match warm with
    | Some w -> Hashtbl.replace set (Canon.Memo.fingerprint memo w.prog) ()
    | None -> ());
    Some set
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume (crash safety)                                  *)
(* ------------------------------------------------------------------ *)

(* The engine checkpoints at round boundaries: after each round the
   whole search state — main RNG quadruple, candidate pool with
   selection weights, best-so-far, the annealing chain state, the
   best-so-far curve prefix, exact accounting, the visited fingerprint
   set, the surrogate model (via [snapshot_extra]), and the number of
   trace events emitted so far — is written atomically and durably
   through {!Recover.Store}.  Because rounds are the unit of
   determinism (parent selection, RNG splits and acceptance draws all
   happen on the calling thread between round boundaries), a run
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

(* ------------------------------------------------------------------ *)
(* The two methods, as policies of the round engine                    *)
(* ------------------------------------------------------------------ *)

(* Where a method's state comes from: the root and the warm-start
   candidate of a cold start, or a checkpoint. *)
type start = Cold of candidate * candidate option | Resumed of ckpt_state

(* A method as the engine drives it: [parent] picks the next slot's
   parent on the calling thread; [settle parent outcome] folds one
   slot into the method's own state, returning the acceptance decision
   and the temperature it was taken at (annealing only); [save] adds
   that state to a checkpoint. *)
type policy = {
  parent : unit -> candidate;
  settle : candidate -> slot_outcome -> (bool * float) option;
  save : ckpt_state -> ckpt_state;
}

(* Weighted random sampling: every candidate so far can be the parent,
   weighted by the inverse of its own parent's runtime.  The pool and
   its weights live in growable buffers (amortized O(1) push, sampled
   in place by [weighted_index_n]); a quarantined slot is pushed with
   weight 0, so it keeps its place but is never drawn.  Returns the
   policy and the starting best. *)
let sampling ~root ~rng ~rebuild start =
  let cands =
    Util.Dynarray.create ~capacity:64 (root_candidate root infinity)
  in
  let weights = Util.Dynarray.create ~capacity:64 0.0 in
  let push w c =
    Util.Dynarray.push cands c;
    Util.Dynarray.push weights w
  in
  let push_measured c = push (1.0 /. Float.max c.parent_runtime 1e-12) c in
  let best =
    match start with
    | Cold (r, warm) ->
        push_measured r;
        Option.iter push_measured warm;
        (match warm with Some w when w.runtime < r.runtime -> w | _ -> r)
    | Resumed st ->
        Array.iter
          (fun (moves, rt, prt, w) -> push w (rebuild (moves, rt, prt)))
          st.st_pool;
        rebuild st.st_best
  in
  let parent () =
    Util.Dynarray.get cands
      (Util.Rng.weighted_index_n rng
         (Util.Dynarray.unsafe_data weights)
         (Util.Dynarray.length weights))
  in
  let settle parent outcome =
    (match outcome with
    | Evaluated c -> push_measured c
    | Failed _ -> push 0.0 (quarantined root parent.runtime)
    | Skipped | Visited -> ());
    None
  in
  let save st =
    let entry i =
      let c = Util.Dynarray.get cands i in
      (c.moves, c.runtime, c.parent_runtime, Util.Dynarray.get weights i)
    in
    { st with st_pool = Array.init (Util.Dynarray.length cands) entry }
  in
  ({ parent; settle; save }, best)

(* Simulated annealing: every slot's parent is the chain's current
   state, so a whole round branches off the round-start state.  A
   measured child is accepted when it is no slower, else with
   probability exp(-relative slowdown / temperature).  The temperature
   cools once per slot whatever the outcome, so it stays a function of
   the slot index alone; a slot that was not measured (quarantined,
   skipped, visited) draws no acceptance number. *)
let annealing ~t0 ~cooling ~rng ~rebuild start =
  let current, temp, best =
    match start with
    | Cold (r, warm) ->
        let c =
          match warm with Some w when w.runtime <= r.runtime -> w | _ -> r
        in
        (c, t0, c)
    | Resumed st -> (
        match (st.st_current, st.st_temp) with
        | Some c, Some t -> (rebuild c, t, rebuild st.st_best)
        | None, _ -> ck_corrupt "annealing checkpoint missing chain state"
        | _, None -> ck_corrupt "annealing checkpoint missing temperature")
  in
  let current = ref current and temp = ref temp in
  let settle _ outcome =
    let t = !temp in
    temp := t *. cooling;
    match outcome with
    | Evaluated c ->
        let accept =
          c.runtime <= !current.runtime
          ||
          let delta =
            (c.runtime -. !current.runtime) /. Float.max !current.runtime 1e-12
          in
          Util.Rng.float rng < exp (-.delta /. Float.max t 1e-6)
        in
        if accept then current := c;
        Some (accept, t)
    | Failed _ | Skipped | Visited -> None
  in
  let save st =
    { st with st_current = Some (snapshot_triple !current);
              st_temp = Some !temp }
  in
  ({ parent = (fun () -> !current); settle; save }, best)

(* The driver shared by both public entry points: the prelude (root
   evaluation, warm-start replay, model and visited-set seeding) or a
   checkpoint restore, then [run_rounds] with the method's policy. *)
let search ~meth ~policy ?(seed = 1) ?filter ?(init = [])
    ?(obs = Obs.Trace.null) ?metrics ?(guard = Robust.Guard.default) ?pool
    ?(batch = 1) ?prerank ?(dedup = false) ?(visited_dedup = false)
    ?checkpoint ?snapshot_extra ?restore_extra ~(space : space)
    ~(budget : int) caps (objective : objective) (root : Ir.Prog.t) : result
    =
  if budget < 0 then invalid_arg "Stochastic: budget must be >= 0";
  if batch < 1 then invalid_arg "Stochastic: batch must be >= 1";
  check_prerank prerank;
  let guard = Robust.Guard.instrument ?metrics guard in
  let obs, counted = maybe_counting checkpoint obs in
  let resumed =
    load_stochastic_resume checkpoint ~meth ~space ~seed ~budget ~batch
  in
  let failures, note = make_noter ?metrics obs in
  let memo = Canon.Memo.create () in
  let rng, start, visited =
    match resumed with
    | None ->
        let rng = Util.Rng.create seed in
        let root_time = guarded_root ~guard ~note objective root in
        emit_start obs ~meth ~space ~budget ~seed ~root_time;
        let warm =
          guarded_warm ~guard ~note ?filter caps objective root ~root_time
            init
        in
        observe_seed prerank root ~root_time warm;
        ( rng,
          Cold (root_candidate root root_time, warm),
          make_visited ~visited_dedup ~memo root warm )
    | Some st ->
        (* resume: the entire prelude is skipped — its effects (root
           evaluation, warm replay, start event, model seeding) are all
           inside the restored state; re-running it would re-pay
           evaluations and duplicate trace events *)
        (match metrics with
        | Some m -> Obs.Metrics.incr m "checkpoint.resumes"
        | None -> ());
        failures := st.st_failures;
        restore_model restore_extra st.st_extra;
        ( Util.Rng.of_state st.st_rng,
          Resumed st,
          if visited_dedup then Some (visited_of_list st.st_visited)
          else None )
  in
  let pol, best0 =
    policy ~rng ~rebuild:(cand_of_triple ?filter caps root) start
  in
  let best = ref best0 in
  let snapshot ~filled ~curve ~stats ~events =
    encode_stochastic ~meth ~space ~seed ~budget ~batch
      (pol.save
         {
           st_filled = filled;
           st_rng = Util.Rng.state rng;
           st_pool = [||];
           st_best = snapshot_triple !best;
           st_current = None;
           st_temp = None;
           st_curve = Array.sub curve 0 filled;
           st_counts = stats;
           st_failures = !failures;
           st_visited = visited_to_list visited;
           st_events = events;
           st_extra = Option.map (fun f -> f ()) snapshot_extra;
         })
  in
  let start_at, curve_init, counters, events_base =
    match start with
    | Cold _ -> (0, [||], (0, 0, 0, 0), 0)
    | Resumed st -> (st.st_filled, st.st_curve, st.st_counts, st.st_events)
  in
  let round_end =
    make_round_hook ?metrics ~obs ~counted ~events_base ~checkpoint
      ~start:start_at ~budget ~snapshot ()
  in
  let fold slot parent outcome =
    let step = pol.settle parent outcome in
    (match outcome with
    | Failed f ->
        incr failures;
        Robust.Guard.note ~obs ?metrics ~fields:[ Obs.Trace.int "slot" slot ] f
    | Skipped | Visited -> ()
    | Evaluated child ->
        if child.runtime < !best.runtime then begin
          best := child;
          emit_best obs ~i:slot child
        end;
        emit_step obs ~i:slot ~runtime:child.runtime ~best:!best.runtime
          (fun () ->
            match step with
            | None -> []
            | Some (accept, t) ->
                [ Obs.Trace.bool "accepted" accept; Obs.Trace.num "temp" t ]);
        note_step ?metrics
          ?accepted:(Option.map fst step)
          ?temp:(Option.map snd step) ~runtime:child.runtime ());
    !best.runtime
  in
  let pool =
    match pool with Some p -> p | None -> Parallel.Pool.create ~jobs:1 ()
  in
  let curve, evals, skipped, deduped, visited =
    run_rounds ?filter ?metrics ~obs ~pool ~batch ~budget ~guard ~dedup
      ~prerank ~visited ~memo ~space ~caps ~objective ~rng ~parent:pol.parent
      ~fold ~start:start_at ~curve_init ~counters ~round_end ()
  in
  (match metrics with
  | Some m when dedup || visited_dedup ->
      Obs.Metrics.incr m ~by:(Canon.Memo.hits memo) "canon.memo_hits"
  | _ -> ());
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

let random_sampling ?seed ?filter ?init ?obs ?metrics ?guard ?pool ?batch
    ?prerank ?dedup ?visited_dedup ?checkpoint ?snapshot_extra ?restore_extra
    ~space ~budget caps objective root =
  search ~meth:"random-sampling" ~policy:(sampling ~root) ?seed ?filter ?init
    ?obs ?metrics ?guard ?pool ?batch ?prerank ?dedup ?visited_dedup
    ?checkpoint ?snapshot_extra ?restore_extra ~space ~budget caps objective
    root

let simulated_annealing ?seed ?filter ?init ?obs ?metrics ?guard ?(t0 = 0.5)
    ?(cooling = 0.995) ?pool ?batch ?prerank ?dedup ?visited_dedup ?checkpoint
    ?snapshot_extra ?restore_extra ~space ~budget caps objective root =
  search ~meth:"simulated-annealing" ~policy:(annealing ~t0 ~cooling) ?seed
    ?filter ?init ?obs ?metrics ?guard ?pool ?batch ?prerank ?dedup
    ?visited_dedup ?checkpoint ?snapshot_extra ?restore_extra ~space ~budget
    caps objective root
