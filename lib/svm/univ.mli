(** Universal values.

    Shared-memory cells hold values of many different OCaml types (plain
    task inputs, arrays of stamped values inside the BG simulation, whole
    memory views inside agreement objects). [Univ.t] is a type-safe
    dynamic value built on extensible variants; {!Codec} layers typed
    encoders on top. *)

type t

exception Mismatch
(** Raised by [prj] on a value another embedding injected. *)

type 'a embedding = { inj : 'a -> t; prj : t -> 'a }
(** [prj] raises rather than return an option: it runs on every decode
    of a simulated step, and a [Some] per decode is measurable there. *)

val embed : unit -> 'a embedding
(** [embed ()] creates a fresh embedding. Two distinct calls give
    incompatible embeddings, so embeddings meant to be shared must be
    created once (see {!Codec}). *)
