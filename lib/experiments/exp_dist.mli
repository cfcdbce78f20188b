(** Experiment DIST — a private worker fleet changes nothing.

    Distribution is an implementation detail, so the report's rows are
    identity claims: a sweep or exploration dealt out to 1, 2 or 4
    forked worker processes produces the outcome, replay artifact and
    metrics of the in-process run, byte for byte — including while
    workers are being SIGKILLed mid-shard (the degradation rows show
    kills cost only respawns and reassignments), with a hostile shard
    reported as a typed error instead of an unbounded retry loop, and
    across a stop/resume through the job journal. *)

val run : unit -> Report.t
