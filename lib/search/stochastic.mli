(** Stochastic schedule search (§4.2).

    Search space structures:
    - {!Edges}: the search graph mirrors the transformation graph; a
      candidate grows by appending one applicable move to a parent.
    - {!Heuristic}: a candidate is a complete move {e sequence}; a
      neighbor modifies it at an arbitrary point (replace / delete /
      insert) and replays the rest, skipping moves that became
      inapplicable — the structure the paper derives from expert
      hand-tuning.

    Methods: weighted random sampling (selection probability from the
    {e parent}'s runtime) and simulated annealing (cost is the
    candidate's own runtime).  Both record the best-so-far curve for the
    Figure-12 convergence comparison. *)

type objective = Ir.Prog.t -> float
(** Modelled runtime in seconds; lower is better. *)

type space = Edges | Heuristic

type prerank = {
  score : Ir.Prog.t -> float;  (** higher = predicted faster *)
  observe : Ir.Prog.t -> float -> unit;
      (** fed every real measurement, in slot order *)
  filter_ratio : float;
      (** fraction of distinct candidates per round sent to the real
          objective, in (0, 1]; [1.0] keeps all (training only) *)
}
(** A surrogate pre-ranking stage for the batched variants (see
    {!random_sampling_parallel}): [score] cheaply ranks the distinct
    candidates of a round and only the top [filter_ratio] fraction pays
    for a real evaluation; [observe] receives every real measurement as
    online training signal.  Both are abstract closures — the concrete
    learned model lives in [lib/surrogate], which depends on this
    library, not the reverse.  Scoring and observation happen only on
    the submitting thread, in slot order, so a deterministic model keeps
    the search jobs-invariant. *)

type checkpoint_cfg = { path : string; every : int; resume : bool }
(** Crash-safe checkpointing for the batched engines (and, via
    {!Exhaustive}, the BFS engine).  A checkpoint is written through
    {!Recover.Store} — atomically and durably — at every round boundary
    where at least [every] budget slots completed since the last write,
    and always at the end of the run.  With [resume = true] and an
    existing checkpoint file, the run restores the full search state
    (RNG streams, candidate pool with weights, best-so-far, annealing
    chain and temperature, curve prefix, exact accounting, visited
    fingerprint set, surrogate model, trace-event count) and continues
    the {e exact} trajectory of the uninterrupted run: same [result],
    exact accounting across the splice, and stripped traces that splice
    byte-identically (killed[0..events) ++ resumed == uninterrupted) —
    kill-invariance, the jobs-invariance discipline extended across
    process death.  A corrupt, truncated, or mismatched (different
    method / space / seed / budget / batch) checkpoint raises
    {!Recover.Error}; [resume] with no file yet is a cold start.

    Checkpointed runs additionally honor {!Recover.Interrupt}: a
    pending SIGINT/SIGTERM checkpoints at the next round boundary and
    raises [Interrupted] with the checkpoint path. *)

type result = {
  best : Ir.Prog.t;
  best_time : float;
  best_moves : string list;  (** replayable via {!replay_skipping} *)
  curve : float array;  (** best-so-far runtime after each evaluation *)
  evals : int;
      (** objective (simulator) evaluations actually performed: equal to
          the budget on the default paths; with
          [prerank]/[dedup]/[visited_dedup] enabled, the budget minus
          the skipped, deduplicated, visited and build-failed slots —
          [evals + skipped + deduped + visited + failures = budget]
          exactly whenever no evaluation is quarantined (a quarantined
          evaluation consumed its simulator call, so it counts in both
          [evals] and [failures]) *)
  skipped : int;
      (** budget slots filtered out by the surrogate — never measured *)
  deduped : int;
      (** budget slots answered by a round-mate's shared measurement *)
  visited : int;
      (** budget slots whose canonical state ({!Canon.fingerprint}) was
          already measured in an earlier round — never re-measured *)
  failures : int;
      (** evaluations quarantined by the guard — equal to the number of
          [search.eval_error] events the run traced *)
}

val replay_skipping :
  ?filter:(Transform.Xforms.instance -> bool) ->
  Transform.Xforms.caps ->
  Ir.Prog.t ->
  string list ->
  Ir.Prog.t * string list
(** Replay a sequence of {!Transform.Xforms.describe} strings from a
    root, skipping entries not applicable at their point; returns the
    final program and the names that actually applied.  Each step
    resolves its name with {!Transform.Xforms.resolve}, so it runs one
    finder, not the whole action set. *)

(** {2 Fault tolerance}

    Every evaluation — root, warm-start replay, and each candidate —
    runs through {!Robust.Guard.run} under [guard] (default
    {!Robust.Guard.default}).  A failed evaluation is {e quarantined}
    rather than fatal: its trajectory slot scores +∞, it is never the
    best, never accepted by annealing, never drawn as a sampling parent,
    and (being non-finite) never enters a memoization cache.  Each
    quarantine is one [search.eval_error] trace event plus [robust.*]
    counter bumps, and [result.failures] counts them.

    Failures are part of the jobs-invariance guarantee: the guard and
    the {!Robust.Faults} harness are deterministic per candidate, so
    [jobs = 1] and [jobs = N] agree on {e which} candidates failed. *)

val random_sampling :
  ?seed:int ->
  ?filter:(Transform.Xforms.instance -> bool) ->
  ?init:string list ->
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?guard:Robust.Guard.config ->
  space:space ->
  budget:int ->
  Transform.Xforms.caps ->
  objective ->
  Ir.Prog.t ->
  result
(** Global weighted sampling over all previously encountered candidates;
    [filter] restricts the move set (used by the TVM-template baseline).
    [init] warm-starts the pool with a recorded move sequence (replayed
    through {!replay_skipping}), so search resumes from a tuning
    database's best instead of restarting cold.

    [obs] receives [search.start] / [search.step] / [search.best]
    events; [metrics] accumulates [search.steps] and the
    [search.runtime] histogram.  Both default to off and then cost
    nothing (see {!Obs.Trace.enabled}). *)

val simulated_annealing :
  ?seed:int ->
  ?filter:(Transform.Xforms.instance -> bool) ->
  ?init:string list ->
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?guard:Robust.Guard.config ->
  ?t0:float ->
  ?cooling:float ->
  space:space ->
  budget:int ->
  Transform.Xforms.caps ->
  objective ->
  Ir.Prog.t ->
  result
(** [init] seeds the annealing chain (and best-so-far) with a recorded
    sequence; with [budget = 0] the result is exactly the replayed
    schedule — replay fidelity the tuning tests rely on.

    In addition to the sampling events, annealing [search.step] events
    carry [accepted] and [temp] fields, and [metrics] gains the
    [search.accepted] counter plus [search.acceptance_rate] /
    [search.temperature] gauges. *)

(** {1 Batched-synchronous-parallel variants}

    AutoTVM-style batched candidate measurement: each round prepares
    [batch] candidate tasks deterministically on the submitting thread
    (parent selection and one split-off RNG stream per slot, in slot
    order), evaluates them across the pool's domains, and folds the
    results back in slot order.  The trajectory is a function of
    [(seed, batch)] only — [jobs = 1] and [jobs = N] pools return
    bit-identical results, and the recorded [curve] keeps its
    best-so-far-per-evaluation meaning.

    For [batch > 1] the algorithm differs from the sequential one
    (candidates within a round cannot see each other), so the
    sequential entry points above remain the default path.

    The [objective] runs concurrently on several domains: it must be
    pure or internally synchronized (the analytic machine models are
    pure; {!Tuning.Cache.memoize} is domain-safe). *)

val random_sampling_parallel :
  ?seed:int ->
  ?filter:(Transform.Xforms.instance -> bool) ->
  ?init:string list ->
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?guard:Robust.Guard.config ->
  ?batch:int ->
  ?prerank:prerank ->
  ?dedup:bool ->
  ?visited_dedup:bool ->
  ?checkpoint:checkpoint_cfg ->
  ?snapshot_extra:(unit -> Util.Json.t) ->
  ?restore_extra:(Util.Json.t -> unit) ->
  pool:Parallel.Pool.t ->
  space:space ->
  budget:int ->
  Transform.Xforms.caps ->
  objective ->
  Ir.Prog.t ->
  result
(** Batched {!random_sampling}: parents for a whole round are drawn
    from the pool as of the round start.  [batch] defaults to 8.

    [checkpoint] enables crash-safe round-boundary snapshots (see
    {!checkpoint_cfg}); [snapshot_extra]/[restore_extra] let the caller
    piggy-back opaque state — the surrogate model — on the checkpoint
    payload.

    Tracing stays jobs-invariant: each task writes [search.eval] events
    into a private buffer sink, and the buffers are folded into [obs]
    in slot order — the merged stream is a function of (seed, batch)
    modulo {!Obs.Trace.strip_timing}.

    {b Evaluation saving} (opt-in; the default path is byte-identical to
    earlier releases when all are off):
    - [dedup] (default [false]) hashes each round's candidates by their
      canonical fingerprint ({!Canon.fingerprint}) and evaluates each
      distinct state once; the duplicates — including alpha-renamed or
      commutatively-reordered spellings — share the measurement.
      Traced per round as [search.batch_dedup] with unique/total
      counts, and counted in [result.deduped] / the
      [surrogate.dedup_saved] metric.
    - [visited_dedup] (default [false]) additionally remembers the
      canonical fingerprint of every state measured so far (seeded with
      the root and warm-start states) and never re-measures one: the
      slot folds as visited — no measurement, no acceptance draw, not a
      failure ([result.visited], [search.visited_skip] events, and the
      [canon.unique] / [canon.total] metrics counting distinct-new vs
      built candidates).  Membership is checked on the submitting
      thread in slot order, so jobs-invariance is preserved.
    - [prerank] scores the distinct candidates with a cheap learned
      model and sends only the top [filter_ratio] fraction to the real
      objective; the rest are skipped (not failures — [result.skipped],
      [search.prerank] events, [surrogate.scored/kept/filtered]
      metrics).  Every real measurement is fed back through
      [prerank.observe] in slot order, so search and online training
      stay jobs-invariant.  Raises [Invalid_argument] unless
      [filter_ratio] is in (0, 1]. *)

val simulated_annealing_parallel :
  ?seed:int ->
  ?filter:(Transform.Xforms.instance -> bool) ->
  ?init:string list ->
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?guard:Robust.Guard.config ->
  ?t0:float ->
  ?cooling:float ->
  ?batch:int ->
  ?prerank:prerank ->
  ?dedup:bool ->
  ?visited_dedup:bool ->
  ?checkpoint:checkpoint_cfg ->
  ?snapshot_extra:(unit -> Util.Json.t) ->
  ?restore_extra:(Util.Json.t -> unit) ->
  pool:Parallel.Pool.t ->
  space:space ->
  budget:int ->
  Transform.Xforms.caps ->
  objective ->
  Ir.Prog.t ->
  result
(** Batched {!simulated_annealing}: every proposal of a round branches
    off the round-start chain state; acceptance, cooling and best-so-far
    fold sequentially in slot order.  [batch] defaults to 8.  Tracing
    follows the same per-slot-buffer discipline as
    {!random_sampling_parallel}, and [prerank] / [dedup] /
    [visited_dedup] behave identically (a surrogate-skipped or
    visited-skipped slot draws no acceptance RNG and still advances the
    cooling schedule, so the temperature remains a function of the step
    index alone). *)
