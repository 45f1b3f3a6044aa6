(** Supervised concurrent serving over a Unix domain socket or TCP.

    The production tier over the {!Server.handle_request} core.  The
    connection work — binding, the accept loop, frame reading under
    idle and partial-frame deadlines, [hello] negotiation, typed
    protocol replies — is {!Conn}'s; this module owns what is
    particular to a replica:

    - a {b bounded admission queue} fed by the accept loop; when it is
      full the client immediately receives the typed
      [{"ok":false,"error":{"kind":"overloaded",...}}] response instead
      of waiting in an unbounded backlog;
    - a fixed pool of workers — OCaml 5 domains, falling back to
      threads when the domain budget is exhausted — that pop
      connections and serve them, each evaluation wrapped in
      {!Linalg.Parallel.with_sequential} so worker domains never race
      on the kernel pool's submission protocol;
    - {b deadlines}: connections follow {!Conn.serve}'s rules
      ([idle_timeout_ms] between frames, [request_timeout_ms] for the
      rest of a started frame), and a request whose evaluation blows
      [request_timeout_ms] gets a ["timeout"] response instead of its
      (discarded) result;
    - a worker whose handler raises is {b restarted} with exponential
      backoff ([backoff_base_ms] doubling up to [backoff_cap_ms],
      reset after a cleanly-finished connection);
    - {!stop} {b drains gracefully}: stop accepting (the socket closes
      immediately so new connects are refused), let in-flight
      connections finish within [drain_ms], then force-close the
      stragglers and join every runner.

    The certification {!Server.admission} policy is inherited from the
    wrapped server: a supervisor over a [Strict] server refuses
    uncertified / failed-certification models with the same typed
    ["validation"] response on every worker, and the refused/warned
    counts surface through the shared ["stats"] op.

    {b Streaming fit sessions} ride the same worker pool.  Routing is
    session-sticky at two levels: a connection is owned by one worker
    for its whole lifetime, and requests that reach one session id
    from {e different} connections serialize on that session's own
    lock inside {!Server} — so a streaming client always observes its
    appends in order, and two clients racing one id apply in some
    serial order instead of corrupting the fit.  Drain semantics:
    initiating a drain (a ["shutdown"] request or {!stop}) flips
    {!Server.set_draining}, refusing new [fit-open] requests
    immediately, while connections already streaming a session keep
    their worker until they finish or the [drain_ms] deadline
    force-closes them — an in-flight [fit-finalize] either lands a
    complete artifact or leaves none (the artifact write is atomic).

    {b Frame negotiation} ({!Conn.serve}): a
    [{"op":"hello","frames":"binary"}] request never reaches the
    server; under binary framing a successful [eval-grid] response
    carries its matrices as raw IEEE-754 instead of JSON text.

    Fault sites (see {!Linalg.Fault}) exercised by the chaos suite:
    ["serve.slow_client"] forces the partial-frame deadline (in
    {!Conn.read_frame}), ["serve.stall"] makes a request overshoot its
    deadline, ["serve.conn_drop"] kills a worker mid-connection
    (restart path).

    Statistics are published through the ordinary ["stats"] op: {!start}
    registers a {!Server.set_stats_hook} adding a ["supervisor"] object
    with queue depth, sheds, timeouts, restarts and per-worker
    latency. *)

type config = {
  workers : int;             (** worker pool size (>= 1) *)
  queue : int;               (** admission queue capacity (>= 1) *)
  request_timeout_ms : int;  (** per-request / partial-frame deadline *)
  idle_timeout_ms : int;     (** keep-alive between frames *)
  drain_ms : int;            (** graceful-drain budget in {!stop} *)
  backoff_base_ms : int;     (** first restart delay *)
  backoff_cap_ms : int;      (** restart delay ceiling *)
  max_line_bytes : int;      (** request frame cap *)
}

(** 2 workers, queue 16, 5 s request / 30 s idle timeouts, 2 s drain,
    10 ms..1 s backoff, 8 MiB frames. *)
val default_config : config

type t

type worker_snapshot = {
  ws_served : int;       (** requests answered *)
  ws_conns : int;        (** connections handled *)
  ws_total_s : float;    (** summed request latency *)
  ws_max_s : float;      (** worst request latency *)
  ws_restarts : int;     (** times this worker was restarted *)
}

type snapshot = {
  sn_workers : int;
  sn_queue_capacity : int;
  accepted : int;          (** connections accepted *)
  dispatched : int;        (** connections handed to a worker *)
  shed : int;              (** connections refused with "overloaded" *)
  idle_timeouts : int;     (** idle keep-alives expired (silent close) *)
  read_timeouts : int;     (** partial frames / unread responses timed out *)
  request_timeouts : int;  (** evaluations that blew the request deadline *)
  restarts : int;          (** worker + accept-loop restarts *)
  queue_depth : int;       (** connections waiting right now *)
  queue_max : int;         (** high-water mark of the queue *)
  in_flight : int;         (** connections being served right now *)
  draining : bool;
  per_worker : worker_snapshot array;
}

(** [start server ~listen] binds the listener ({!Conn.listen}: typed
    error if the address is taken), spawns the accept loop and workers,
    registers the stats hook, and returns immediately.  Raises
    {!Linalg.Mfti_error.Error} ([Validation]) on a nonsensical
    [config]. *)
val start : ?config:config -> Server.t -> listen:Conn.addr -> t

(** The actual TCP port bound, once started ([None] for a Unix
    listener).  Useful with [Tcp (host, 0)]. *)
val bound_port : t -> int option

(** Consistent counter snapshot (also published as the ["supervisor"]
    object in ["stats"] responses). *)
val stats : t -> snapshot

(** Block until a client's [{"op":"shutdown"}] initiates the drain. *)
val wait : t -> unit

(** Graceful drain then forced shutdown; joins every runner and removes
    the socket file (Unix listeners).  Idempotent. *)
val stop : t -> unit

(** [run server ~listen] is {!start}, {!wait}, then {!stop}. *)
val run : ?config:config -> Server.t -> listen:Conn.addr -> unit
