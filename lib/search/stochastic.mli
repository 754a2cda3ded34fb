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
    Figure-12 convergence comparison.

    {b One engine.}  Both methods run on one AutoTVM-style batched
    measurement loop: each round prepares [batch] candidates on the
    calling thread (parent choice and one RNG stream per slot, in slot
    order), grows and measures them on [pool], and folds the outcomes
    back in slot order.  The trajectory is a function of
    [(seed, batch)] only — pools of 1 and N domains return
    bit-identical results and, modulo {!Obs.Trace.strip_timing},
    identical traces.  [batch] defaults to 1, the classic sequential
    search: each slot's parent sees every earlier slot's outcome.  For
    [batch > 1] candidates within a round cannot see each other, so the
    trajectory differs from the sequential one.  Without [pool] the
    engine runs on the calling thread.

    The [objective] runs concurrently on several domains when [pool]
    has more than one: it must then be pure or internally synchronized
    (the analytic machine models are pure; {!Tuning.Cache.memoize} is
    domain-safe). *)

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
(** A surrogate pre-ranking stage: [score] cheaply ranks the distinct
    candidates of a round and only the top [filter_ratio] fraction pays
    for a real evaluation; [observe] receives every real measurement as
    online training signal.  Both are abstract closures — the concrete
    learned model lives in [lib/surrogate], which depends on this
    library, not the reverse.  Scoring and observation happen only on
    the calling thread, in slot order, so a deterministic model keeps
    the search jobs-invariant. *)

type checkpoint_cfg = { path : string; every : int; resume : bool }
(** Crash-safe checkpointing for the stochastic engine (and, via
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
  curve : float array;
      (** best-so-far runtime after each budget slot, starting from the
          root (or warm-start) runtime *)
  evals : int;
      (** objective (simulator) evaluations actually performed: the
          budget minus the skipped, deduplicated, visited and
          build-failed slots — [evals + skipped + deduped + visited +
          failures = budget] exactly whenever no evaluation is
          quarantined (a quarantined evaluation consumed its simulator
          call, so it counts in both [evals] and [failures]) *)
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
    pools of 1 and N domains agree on {e which} candidates failed. *)

(** {2 Entry points}

    Arguments shared by both methods:
    - [filter] restricts the move set (used by the TVM-template
      baseline).
    - [init] warm-starts the search with a recorded move sequence
      (replayed through {!replay_skipping}), so search resumes from a
      tuning database's best instead of restarting cold.
    - [obs] receives [search.start] / [search.eval] / [search.step] /
      [search.best] events; [metrics] accumulates [search.steps] and
      the [search.runtime] histogram.  Both default to off and then
      cost nothing — an untraced run reads no clock (see
      {!Obs.Trace.enabled}).
    - [pool] and [batch] (default 1) set the round shape, see above.
    - [checkpoint] enables crash-safe round-boundary snapshots (see
      {!checkpoint_cfg}); [snapshot_extra]/[restore_extra] let the
      caller piggy-back opaque state — the surrogate model — on the
      checkpoint payload.

    {b Evaluation saving} (opt-in; all off by default):
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
      built candidates).  Membership is checked on the calling thread
      in slot order, so jobs-invariance is preserved.
    - With [dedup] or [visited_dedup], the search fingerprints through
      one {!Canon.Memo} that lives as long as the call: a candidate
      structurally equal to one this search already fingerprinted skips
      the canonicalizer, and [canon.memo_hits] counts those calls.  Results are the same
      as with {!Canon.fingerprint}.
    - [prerank] scores the distinct candidates with a cheap learned
      model and sends only the top [filter_ratio] fraction to the real
      objective; the rest are skipped (not failures — [result.skipped],
      [search.prerank] events, [surrogate.scored/kept/filtered/evals]
      metrics).  Every real measurement is fed back through
      [prerank.observe] in slot order, so search and online training
      stay jobs-invariant.

    Raises [Invalid_argument] when [budget < 0], when [batch < 1], or
    unless [prerank.filter_ratio] is in (0, 1]. *)

val random_sampling :
  ?seed:int ->
  ?filter:(Transform.Xforms.instance -> bool) ->
  ?init:string list ->
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?guard:Robust.Guard.config ->
  ?pool:Parallel.Pool.t ->
  ?batch:int ->
  ?prerank:prerank ->
  ?dedup:bool ->
  ?visited_dedup:bool ->
  ?checkpoint:checkpoint_cfg ->
  ?snapshot_extra:(unit -> Util.Json.t) ->
  ?restore_extra:(Util.Json.t -> unit) ->
  space:space ->
  budget:int ->
  Transform.Xforms.caps ->
  objective ->
  Ir.Prog.t ->
  result
(** Global weighted sampling over all previously encountered
    candidates: a round's parents are drawn from the pool as of the
    round start. *)

val simulated_annealing :
  ?seed:int ->
  ?filter:(Transform.Xforms.instance -> bool) ->
  ?init:string list ->
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?guard:Robust.Guard.config ->
  ?t0:float ->
  ?cooling:float ->
  ?pool:Parallel.Pool.t ->
  ?batch:int ->
  ?prerank:prerank ->
  ?dedup:bool ->
  ?visited_dedup:bool ->
  ?checkpoint:checkpoint_cfg ->
  ?snapshot_extra:(unit -> Util.Json.t) ->
  ?restore_extra:(Util.Json.t -> unit) ->
  space:space ->
  budget:int ->
  Transform.Xforms.caps ->
  objective ->
  Ir.Prog.t ->
  result
(** Every proposal of a round branches off the round-start chain state;
    acceptance, cooling and best-so-far fold in slot order.  [init]
    seeds the chain (and best-so-far) with a recorded sequence; with
    [budget = 0] the result is exactly the replayed schedule — replay
    fidelity the tuning tests rely on.

    Annealing [search.step] events also carry [accepted] and [temp]
    fields, and [metrics] gains the [search.accepted] counter plus
    [search.acceptance_rate] / [search.temperature] gauges.  A slot
    that was not measured (quarantined, surrogate-skipped or visited)
    draws no acceptance number and still advances the cooling schedule,
    so the temperature remains a function of the slot index alone. *)
