(** Continuous randomized soak runs against a corpus.

    Where [Svm.Explore.sweep_faults] enumerates a bounded fault box
    exhaustively, the soak driver samples an {e unbounded} one: schedule
    after schedule, each a seeded random scheduler plus a seeded random
    fault plan, derived deterministically from [(seed, schedule index)]
    — so any schedule can be re-derived, re-run and shrunk long after
    the soak that first executed it.

    Schedules are built, judged and filed through the sweep's own
    primitives: {!Svm.Explore.fault_adversary} turns a schedule into an
    adversary, {!Svm.Explore.judge} gives its run a verdict, and
    {!Svm.Explore.finding} re-runs a violating one traced, shrinks it
    and serializes its replay artifact — so a schedule the soak calls
    violating is one a sweep cell would call violating, and its
    artifact is the one a sweep would write.

    Findings (shrunk monitor violations, and whole-system deadlocks
    filed as their schedule) are written to a {!Corpus.Store} and
    deduplicated by content address: re-finding a
    known counterexample — in this run, a previous run, or a resumed
    run — is counted but not re-reported. Each batch ends with a
    cement, so a crash loses at most the current batch, and a [State]
    checkpoint record, so [resume] continues at the next unexecuted
    schedule index.

    Throughput posture: for explorable scenarios one journaled
    environment arena serves every schedule of a chunk
    ({!Svm.Env.with_rollback} — no per-run allocation of the store),
    programs are reused (they are immutable values), batches bound the
    working set, and each batch is dealt out in fixed-size chunks of
    schedules to [jobs] domains through {!Svm.Par.run} (whose farm is
    spawned once per process, not per batch), with results merged in
    index order. *)

type config = {
  seed : int;
  schedules : int option;  (** stop after this many (this invocation) *)
  until : int option;
      (** stop at this absolute schedule index — a resumed run stops
          where the interrupted one would have, making the two corpora
          content-identical *)
  duration : float option;  (** stop after this many wall seconds *)
  batch : int;  (** schedules per batch; a cement per batch *)
  jobs : int;  (** domains; chunks merge index-deterministically *)
  kinds : Svm.Adversary.fault_kind list;  (** fault tiers to sample *)
  max_faults : int;  (** faults per schedule drawn from [0..max] *)
  within : int;  (** local-step window faults land in *)
  budget : int;  (** step budget per schedule *)
  resume : bool;  (** continue from the corpus's last checkpoint *)
  chaos : Corpus.Store.chaos option;
      (** store-level crash/corruption injection *)
  log : Svm.Log.t;
      (** leveled diagnostics: batch and finding progress at [Info] *)
  metrics : Svm.Metrics.t option;
}

val default_config : config
(** seed 1, unbounded schedules, batch 256, 1 job, crash-stop tier,
    up to 2 faults within 30 local steps, budget 20_000, no resume, no
    chaos. *)

type outcome = {
  o_executed : int;  (** schedules run by this invocation *)
  o_first_index : int;  (** first schedule index of this invocation *)
  o_next_index : int;  (** where a resume would continue *)
  o_clean : int;
  o_deadlocks : int;  (** deadlocked schedules (deduped into findings) *)
  o_new_findings : string list;  (** content addresses, discovery order *)
  o_dup_findings : int;  (** findings already in the corpus *)
  o_batches : int;
  o_heap_growth_words : int;
      (** major-heap words grown after the first batch — the unbounded-
          memory detector: batch-independent work must not accumulate *)
  o_corpus_records : int;  (** valid records in the corpus afterwards *)
  o_stop : [ `Schedules | `Duration | `Sigterm ];
}

val run :
  config -> corpus_dir:string -> Scenario.t -> (outcome, string) result
(** Soak one scenario. Installs a SIGTERM handler for the duration of
    the call (restored on exit): on SIGTERM the current batch finishes,
    cements, checkpoints, and the run returns [`Sigterm] — the caller
    exits 0 and a later [resume] continues. [Error] for a non-explorable
    scenario, an unopenable corpus, or a bad configuration. Leaves the
    GC settings as it found them. *)

val durable_next : lo:int -> (int * int * int) list -> int
(** [durable_next ~lo chunks] is where a resume must continue after a
    batch starting at [lo], given its chunks in index order as
    [(a, b, ran)]: the chunk of schedules [a .. b-1] ran its first
    [ran] of them. It is
    the end of the longest run of schedules from [lo] with no gap —
    a SIGTERM can stop chunks at different points, and the resume
    index must never skip an unexecuted schedule. *)
