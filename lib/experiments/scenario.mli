(** Named fault-injection scenarios: what [asmsim sweep] sweeps and what
    a replay artifact rebuilds.

    A scenario binds a system under test — fresh environment + programs —
    to the online safety monitors that define "broken" for it. The
    registry includes the healthy agreement objects (the sweeper proving
    their safety over the whole fault box), deliberately seeded bugs
    (the sweeper finding, shrinking and replaying the violation — the
    regression harness for the sweeper itself), the abortable
    x_safe_agreement variant ([x_safe_agreement_abortable], graceful
    degradation against hung ports), and the paper's simulations run
    whole under fault injection ([bg_sec3], [bg_sec4] — the §3 and §4
    BG simulations of a 2-set-agreement task; their monitors check
    k-agreement, decided-value integrity, and the per-instance
    [stall_bound] blocking account, which is sound for sweeps with at
    most one injected fault).

    The record is {!Sdl.Compile.t}, re-exported: a compiled DSL source
    and a builtin are the same type. The builtins are one ordered table
    in [scenario.ml] — name, doc, size, [x], depth, flags, system and
    {!Sdl.Compile.prop} list per entry — and each property yields both
    its monitors and its exhaustive check.

    Replay artifacts produced by sweeps and soaks via
    {!sweep_meta} carry the scenario name and size, so
    [asmsim replay file] can rebuild the exact system and re-drive the
    recorded schedule against it. *)

type origin = Sdl.Compile.origin =
  | Builtin  (** hand-written in this module *)
  | Sdl_source of { source : string; path : string option }
      (** compiled from DSL source text (the [path] is the .sdl file it
          was loaded from, when there is one) *)

type t = Sdl.Compile.t = {
  name : string;
  doc : string;
  seeded_bug : bool;  (** a violation is expected to exist *)
  nprocs : int;
  x : int;  (** the model's consensus-object arity *)
  make : unit -> Svm.Env.t * Svm.Univ.t Svm.Prog.t array;
  monitors : unit -> Svm.Univ.t Svm.Monitor.t list;
  explorable : bool;
      (** whether {!Svm.Explore.exhaustive} applies: the programs must be
          closed (state in the environment and continuations only) — the
          BG simulations keep simulator state in refs and are not *)
  explore_steps : int;
      (** default depth bound for exhaustive exploration of this
          scenario (0 when not [explorable]) *)
  exhaustive_property :
    Svm.Univ.t Svm.Explore.run -> (unit, string) Stdlib.result;
      (** the scenario's safety property as a pure function of the run
          record (never of [schedule]), safe on truncated runs — the
          contract {!Svm.Explore.exhaustive}'s prunings require *)
  origin : origin;
}

val all : unit -> t list
(** Every scenario at its default size. *)

val names : unit -> string list

val find : ?nprocs:int -> string -> (t, string) result
(** Look up by name, optionally resized to [nprocs] processes —
    registered DSL scenarios first (recompiled at the requested size),
    then the builtins. An out-of-range [nprocs] error names the valid
    range (a fixed-size builtin accepts only its own size); an unknown
    name lists the known names. *)

(** {1 DSL scenarios}

    Compiled from {!Sdl} source text. [names ()] stays builtins-only
    (the network registry fingerprint folds it); DSL jobs carry their
    source over the wire in {!Dist.Proto.job.source} instead. *)

val of_source : ?nprocs:int -> ?path:string -> string -> (t, string) result
(** Parse + validate + compile DSL source text (size-capped). *)

val register_source : ?path:string -> string -> (t, string) result
(** [of_source] at the default size, then remember the source under its
    declared name so {!find} resolves it (shadowing a builtin of the
    same name — the twin-file case). *)

val unregister : string -> unit
(** Forget a registered name: {!find} resolves its builtin again. *)

val listing : unit -> t list
(** Every scenario {!find} resolves by name, at its default size and
    sorted by name: a registered DSL scenario replaces its builtin
    twin. *)

val sweep_meta : t -> (string * string) list
(** Replay-artifact metadata identifying the scenario ([scenario],
    [nprocs], [x]) — pass as {!Svm.Explore.sweep_faults}'s or
    {!Svm.Explore.finding}'s [meta]. *)

val of_replay_meta : (string * string) list -> (t, string) result
(** Rebuild the scenario a replay artifact was recorded against. *)
