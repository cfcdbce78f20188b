(** Socket plumbing for the network service: addresses, listening, dialing
    with a deadline, the connecting side of the {!Proto.hello}
    handshake, and the network chaos harness used to prove the service
    fault-tolerant. *)

(** {1 Addresses} *)

val parse_addr : string -> (Unix.sockaddr, string) result
(** Parse ["HOST:PORT"]. An empty host or ["*"] means any interface;
    otherwise a dotted quad or a resolvable name. Port [0] is allowed
    for listening (the kernel picks; {!listen} reports it). A string
    containing ['/'] is the path of a Unix-domain socket. *)

val string_of_sockaddr : Unix.sockaddr -> string

(** {1 Listening and dialing} *)

val listen : ?backlog:int -> Unix.sockaddr -> Unix.file_descr * int
(** Bind + listen with [SO_REUSEADDR]; returns the socket and the
    {e actual} bound port (meaningful when asked for port 0; [0] for a
    Unix-domain socket). Raises [Unix.Unix_error] if the address is
    taken or not bindable. *)

val listen_private : unit -> Unix.file_descr * string * (unit -> unit)
(** A listener only this user's processes can dial: a Unix-domain
    socket inside a fresh temporary directory of mode 0700. Returns the
    socket, its path (a {!parse_addr} address) and a function removing
    the path and its directory.

    A run killed before it could call that function leaves its
    directory behind; the next call removes every such sibling — an
    [asmsim-*] directory of this user, mode 0700, whose [queue] socket
    refuses a connect — and leaves every other directory alone. *)

val refused : Unix.sockaddr -> bool
(** Whether a connect to this Unix-domain socket is refused or finds no
    socket: nothing listens there, and a private queue never comes back
    on its path. Never for a TCP address. *)

val dial : ?timeout:float -> Unix.sockaddr -> (Unix.file_descr, string) result
(** Blocking connect bounded by [timeout] (default 10s) — a dead or
    black-holed address fails instead of hanging the caller. A TCP
    socket comes back with {!no_delay} set. *)

val no_delay : Unix.file_descr -> unit
(** Set [TCP_NODELAY]: frames go out as written instead of waiting on
    the peer's delayed ACK. Set on every dialed and accepted socket; a
    no-op on a Unix-domain socket. *)

(** {1 Chaos harness}

    Fault injection on a peer's {e write} path, for proving end-to-end
    results are unaffected by a misbehaving network. Every [every]-th
    write (deterministic counter, no clocks) the chosen fault fires:
    [Drop] cuts the connection; [Delay] stalls 50ms then writes;
    [Truncate] sends half the frame then cuts; [Garbage] sends bytes
    that are not a frame then cuts. Cuts raise {!Chaos_cut}, which the
    reconnecting worker treats exactly like a failed link. *)

type chaos_mode = Drop | Delay | Truncate | Garbage

val chaos_mode_name : chaos_mode -> string

type chaos

val chaos : ?every:int -> chaos_mode -> chaos
(** A fresh injection counter; [every] defaults to 7. *)

exception Chaos_cut

val chaos_write : ?chaos:chaos -> Unix.file_descr -> Svm.Json.t -> unit
(** {!Frame.write} with optional fault injection. *)

(** {1 Handshake} *)

type handshake_error =
  | Hs_rejected of string  (** typed refusal: retrying is pointless *)
  | Hs_link of string  (** the link failed; retrying may succeed *)

val client_handshake :
  ?timeout:float ->
  Unix.file_descr ->
  role:Proto.role ->
  fingerprint:string ->
  (unit, handshake_error) result
(** Introduce ourselves and await the verdict, both bounded by
    [timeout] (default 10s). [Hs_rejected] carries the server's typed
    reason (version skew, fingerprint mismatch, draining). *)
