(** Canonical forms and fingerprints for scheduled programs.

    PerfDojo's transformation graph reaches semantically identical
    schedules through many different move sequences: temporaries pick up
    history-dependent names ([split_reduction]'s [x__part] buffers),
    independent siblings end up in whichever order the moves happened to
    leave them, and commutative operands get swapped by rewrites.  The
    stochastic engines and the tuning database would otherwise pay a
    simulator evaluation for each spelling of the same state — the
    redundancy TransForm's canonicalizer collapses (222 generated
    instances, 8 unique).

    [canonicalize] maps a program to a normal form that is invariant
    under those incidental differences while preserving semantics:

    - commutative binary operands ([+], [*], [max], [min]) are sorted by
      a name-erased printed key;
    - adjacent siblings that are {e provably} independent (exactly the
      [reorder] move's safety condition, {!Transform.Dep}) are bubble-
      sorted into a canonical order — every swap performed is a legal
      [reorder], so the result is reachable from the input and
      semantically equal to it;
    - non-interface buffers and arrays are alpha-renamed to [_c0], [_c1],
      … ordered by a structural occurrence signature (name-erased
      contexts), with first use in the canonical body as tie-break;
      interface (input/output) arrays are never renamed — they are part
      of the program's meaning;
    - buffer declarations are sorted by canonical name.

    The construction is {e sound} for deduplication: it never merges two
    programs that differ in anything but the incidental choices above.
    It is deliberately not a decision procedure for semantic equivalence
    — adversarially symmetric programs can still print differently — so
    a visited set keyed on [fingerprint] may occasionally evaluate an
    equivalent state twice, but never skips a genuinely new one.

    Cost: each pass prints every subtree at most once.  A node's
    sibling-sort key is assembled bottom-up from its children's printed
    texts, and is forced only for sibling lists of two or more (or when
    an ancestor's key needs it); the last pass's texts are reused as the
    body of the digested text.  A search meets the same raw program many
    times (about half of the exhaustive benchmark's encounters repeat
    one the walk already fingerprinted), so searches fingerprint through
    a {!Memo} that pays the canonicalizer once per distinct program. *)

val version : int
(** Bumped whenever the canonical form changes; folded into
    {!fingerprint} so persisted fingerprints from different canon
    versions never collide silently. *)

val canonicalize : Ir.Prog.t -> Ir.Prog.t
(** Canonical representative of the program's equivalence class.
    Semantics-preserving and idempotent. *)

val fingerprint : Ir.Prog.t -> string
(** Hex digest of the canonical printed form (prefixed with
    {!version}).  Equal for alpha-renamed and commutatively-reordered
    spellings of the same schedule; programs with different canonical
    forms get different fingerprints (modulo digest collision). *)

val equal : Ir.Prog.t -> Ir.Prog.t -> bool
(** [fingerprint a = fingerprint b]. *)

(** A fingerprint memo owned by one search run.

    [Memo.fingerprint m p] is exactly [fingerprint p]: the memo only
    skips recomputing a pure function, so it never changes a result.
    It runs the canonicalizer for a raw program it has not seen before
    (structural equality with floats compared by their bits, so
    [Const 0.0] and [Const (-0.0)] stay apart) and, inside it, reuses
    each statement's pass-1 text (kept per interface array set) and
    pass-3 text (keyed on the renamed statement).

    A memo holds no global, domain-local or environment state: a run
    creates one and drops it when it ends.  It is domain-safe — one
    mutex guards its tables — so pool tasks may share it. *)
module Memo : sig
  type t

  val create : unit -> t

  val fingerprint : t -> Ir.Prog.t -> string
  (** [fingerprint p], computed at most once per distinct raw program. *)

  val hits : t -> int
  (** Calls answered from the memo without canonicalizing.  When pool
      tasks meet the same new program at once, each may miss and
      canonicalize it, so under concurrency the count (never the
      fingerprints) depends on scheduling. *)
end
