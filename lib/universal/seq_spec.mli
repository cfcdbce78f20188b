(** Sequential object specifications.

    The paper's Section 1.1 recalls Herlihy's theorem: consensus objects
    make it possible to wait-free implement {e any} concurrent object
    that has a sequential specification. A [spec] is such a
    specification: a deterministic state machine with typed operations
    and results (plus codecs so operations can travel through the shared
    memory). *)

type ('s, 'op, 'res) t = {
  name : string;
  init : 's;
  apply : 's -> 'op -> 's * 'res;
  op_codec : 'op Svm.Codec.t;
  res_codec : 'res Svm.Codec.t;
  pp_op : Format.formatter -> 'op -> unit;
  pp_res : Format.formatter -> 'res -> unit;
}

(** {1 Classic instances} *)

type queue_op = Enqueue of int | Dequeue
type stack_op = Push of int | Pop
type counter_op = Add of int | Get
type rmw_op = Read | Write of int | Compare_and_swap of int * int

val fifo_queue : (int list, queue_op, int option) t
val lifo_stack : (int list, stack_op, int option) t
val counter : (int, counter_op, int) t
(** [Add d] returns the {e previous} value (fetch&add); [Get] returns
    the current value. *)

val rmw_register : (int option, rmw_op, int option) t
(** [Compare_and_swap (e, d)] returns the previous content and installs
    [d] if the content was [Some e]; [Read]/[Write] as usual. *)
