open Linalg

(* Supervised concurrent serving.

   {!Conn}'s accept loop dispatches each connection into a bounded
   admission queue; a fixed set of workers (OCaml 5 domains, falling
   back to threads when the domain budget is exhausted) pops
   connections and serves them through {!Conn.serve}, adding a
   per-request evaluation deadline.  When the queue is full the accept
   loop sheds: the client gets a typed "overloaded" response
   immediately instead of waiting in an unbounded backlog.
   A worker whose connection handler dies is restarted with
   exponential backoff; a shutdown request drains gracefully — stop
   accepting, finish in-flight work under a drain deadline, then
   force-close stragglers and join everything.

   Workers run their evaluations under [Parallel.with_sequential]:
   the domain pool's submission protocol assumes one submitting domain
   at a time, so in the serving tier concurrency comes from the worker
   pool, not from the kernels.  (Thread-fallback workers share the
   spawning domain's sequential flag; they too evaluate inline.) *)

type config = {
  workers : int;
  queue : int;
  request_timeout_ms : int;
  idle_timeout_ms : int;
  drain_ms : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  max_line_bytes : int;
}

let default_config =
  { workers = 2;
    queue = 16;
    request_timeout_ms = 5_000;
    idle_timeout_ms = 30_000;
    drain_ms = 2_000;
    backoff_base_ms = 10;
    backoff_cap_ms = 1_000;
    max_line_bytes = 8 * 1024 * 1024 }

type worker_stat = {
  mutable served : int;
  mutable conns : int;
  mutable w_total_s : float;
  mutable w_max_s : float;
  mutable w_restarts : int;
}

type worker_snapshot = {
  ws_served : int;
  ws_conns : int;
  ws_total_s : float;
  ws_max_s : float;
  ws_restarts : int;
}

type snapshot = {
  sn_workers : int;
  sn_queue_capacity : int;
  accepted : int;
  dispatched : int;
  shed : int;
  idle_timeouts : int;
  read_timeouts : int;
  request_timeouts : int;
  restarts : int;
  queue_depth : int;
  queue_max : int;
  in_flight : int;
  draining : bool;
  per_worker : worker_snapshot array;
}

type runner = Dom of unit Domain.t | Thr of Thread.t

type t = {
  server : Server.t;
  config : config;
  listen : Conn.addr;
  bound : int option;                   (* actual TCP port *)
  listen_fd : Unix.file_descr;
  mu : Mutex.t;
  nonempty : Condition.t;               (* queue gained work, or draining *)
  queue : Unix.file_descr Queue.t;
  active : (int, Unix.file_descr) Hashtbl.t;  (* worker index -> live conn *)
  wstats : worker_stat array;
  mutable s_accepted : int;
  mutable s_dispatched : int;
  mutable s_shed : int;
  mutable s_idle_timeouts : int;
  mutable s_read_timeouts : int;
  mutable s_request_timeouts : int;
  mutable s_restarts : int;
  mutable s_queue_max : int;
  mutable s_in_flight : int;
  mutable stopping : bool;              (* drain initiated *)
  mutable accept_done : bool;
  mutable stopped : bool;               (* joined and cleaned up *)
  mutable runners : runner list;
  mutable accept_runner : runner option;
}

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Drain initiation *)

let request_stop t =
  Mutex.lock t.mu;
  let first = not t.stopping in
  if first then begin
    t.stopping <- true;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.mu;
  (* new fit sessions are refused for the whole drain window; sessions
     already open keep streaming until their connection finishes *)
  if first then Server.set_draining t.server true

(* ------------------------------------------------------------------ *)
(* Connection handler (runs on a worker) *)

(* One request under the evaluation deadline: a request whose handler
   overruns [request_timeout_ms] gets a typed "timeout" instead of its
   (discarded) result. *)
let handle_request t ws ~binary line =
  let req_timeout_s = float_of_int t.config.request_timeout_ms /. 1000. in
  let t0 = now () in
  (* deterministic chaos: a handler that dies mid-connection; the
     worker's supervisor loop catches, counts a restart, and backs off *)
  Fault.check "serve.conn_drop";
  (* deterministic chaos: a request that blows its deadline *)
  if Fault.armed "serve.stall" then Unix.sleepf (2. *. req_timeout_s);
  let reply, stop = Server.handle_request t.server ~binary line in
  let dt = now () -. t0 in
  let reply =
    if dt > req_timeout_s then begin
      Mutex.protect t.mu (fun () ->
          t.s_request_timeouts <- t.s_request_timeouts + 1);
      let op =
        match Sjson.member "op" (Sjson.parse line) with
        | Some (Sjson.Str op) -> Some op
        | _ -> None
        | exception Sjson.Parse_error _ -> None
      in
      Server.Text
        (Sjson.to_string
           (Server.protocol_error ?op ~kind:"timeout"
              ~message:
                (Printf.sprintf "request deadline exceeded (%d ms)"
                   t.config.request_timeout_ms)
              ()))
    end
    else reply
  in
  Mutex.protect t.mu (fun () ->
      ws.served <- ws.served + 1;
      ws.w_total_s <- ws.w_total_s +. dt;
      if dt > ws.w_max_s then ws.w_max_s <- dt);
  (reply, stop)

let handle_conn t i conn =
  Parallel.with_sequential @@ fun () ->
  let cfg = t.config in
  let on_event = function
    | Conn.Idle_timeout ->
      Mutex.protect t.mu (fun () ->
          t.s_idle_timeouts <- t.s_idle_timeouts + 1)
    | Conn.Frame_timeout | Conn.Write_timeout ->
      Mutex.protect t.mu (fun () ->
          t.s_read_timeouts <- t.s_read_timeouts + 1)
    | Conn.Dropped -> Server.note_conn_drop t.server
  in
  match
    Conn.serve ~on_event ~stopping:(fun () -> t.stopping)
      ~request_timeout_ms:cfg.request_timeout_ms
      ~idle_timeout_ms:cfg.idle_timeout_ms ~max_line_bytes:cfg.max_line_bytes
      conn (handle_request t t.wstats.(i))
  with
  | `Stop -> request_stop t
  | `Done -> ()

(* ------------------------------------------------------------------ *)
(* Worker supervision *)

let worker_loop t i clean =
  let rec next () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    if Queue.is_empty t.queue then
      (* stopping and drained *)
      Mutex.unlock t.mu
    else begin
      let conn = Queue.pop t.queue in
      t.s_dispatched <- t.s_dispatched + 1;
      t.s_in_flight <- t.s_in_flight + 1;
      t.wstats.(i).conns <- t.wstats.(i).conns + 1;
      Hashtbl.replace t.active i conn;
      Mutex.unlock t.mu;
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock t.mu;
          Hashtbl.remove t.active i;
          t.s_in_flight <- t.s_in_flight - 1;
          Mutex.unlock t.mu;
          Conn.close conn)
        (fun () -> handle_conn t i conn);
      clean := true;
      next ()
    end
  in
  next ()

(* A worker that dies is restarted with exponential backoff; the
   attempt counter resets after any cleanly-finished connection, so a
   persistent crash loop backs off to the cap while a one-off failure
   recovers at the base delay. *)
let worker_life t i () =
  let rec live attempt =
    let clean = ref false in
    match worker_loop t i clean with
    | () -> ()
    | exception _ ->
      Mutex.lock t.mu;
      t.s_restarts <- t.s_restarts + 1;
      t.wstats.(i).w_restarts <- t.wstats.(i).w_restarts + 1;
      let stop_now = t.stopping && Queue.is_empty t.queue in
      Mutex.unlock t.mu;
      if stop_now then ()
      else begin
        let attempt = if !clean then 0 else attempt + 1 in
        let ms =
          Conn.backoff_ms ~base_ms:t.config.backoff_base_ms
            ~cap_ms:t.config.backoff_cap_ms attempt
        in
        Unix.sleepf (float_of_int ms /. 1000.);
        live attempt
      end
  in
  live (-1)

(* ------------------------------------------------------------------ *)
(* Admission *)

let admit t conn =
  Mutex.lock t.mu;
  t.s_accepted <- t.s_accepted + 1;
  let decision =
    if t.stopping then `Shed "server is draining"
    else if Queue.length t.queue >= t.config.queue then begin
      t.s_shed <- t.s_shed + 1;
      `Shed
        (Printf.sprintf "admission queue full (%d waiting); retry with backoff"
           (Queue.length t.queue))
    end
    else begin
      Queue.push conn t.queue;
      if Queue.length t.queue > t.s_queue_max then
        t.s_queue_max <- Queue.length t.queue;
      Condition.signal t.nonempty;
      `Admitted
    end
  in
  Mutex.unlock t.mu;
  decision

let accept_loop t () =
  Conn.accept_loop
    ~on_restart:(fun () ->
      Mutex.protect t.mu (fun () -> t.s_restarts <- t.s_restarts + 1))
    ~backoff_base_ms:t.config.backoff_base_ms
    ~backoff_cap_ms:t.config.backoff_cap_ms
    ~stopping:(fun () -> t.stopping) ~admit:(admit t) t.listen t.listen_fd;
  Mutex.protect t.mu (fun () -> t.accept_done <- true)

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats t =
  Mutex.protect t.mu (fun () ->
      { sn_workers = t.config.workers;
        sn_queue_capacity = t.config.queue;
        accepted = t.s_accepted;
        dispatched = t.s_dispatched;
        shed = t.s_shed;
        idle_timeouts = t.s_idle_timeouts;
        read_timeouts = t.s_read_timeouts;
        request_timeouts = t.s_request_timeouts;
        restarts = t.s_restarts;
        queue_depth = Queue.length t.queue;
        queue_max = t.s_queue_max;
        in_flight = t.s_in_flight;
        draining = t.stopping;
        per_worker =
          Array.map
            (fun w ->
              { ws_served = w.served; ws_conns = w.conns;
                ws_total_s = w.w_total_s; ws_max_s = w.w_max_s;
                ws_restarts = w.w_restarts })
            t.wstats })

let stats_fields t =
  let s = stats t in
  let n x = Sjson.Num (float_of_int x) in
  [ ( "supervisor",
      Sjson.Obj
        [ ("workers", n s.sn_workers);
          ("queue_capacity", n s.sn_queue_capacity);
          ("accepted", n s.accepted);
          ("dispatched", n s.dispatched);
          ("shed", n s.shed);
          ("idle_timeouts", n s.idle_timeouts);
          ("read_timeouts", n s.read_timeouts);
          ("request_timeouts", n s.request_timeouts);
          ("restarts", n s.restarts);
          ("queue_depth", n s.queue_depth);
          ("queue_max", n s.queue_max);
          ("in_flight", n s.in_flight);
          ("draining", Sjson.Bool s.draining);
          ( "per_worker",
            Sjson.Arr
              (Array.to_list
                 (Array.map
                    (fun w ->
                      Sjson.Obj
                        [ ("served", n w.ws_served);
                          ("conns", n w.ws_conns);
                          ("total_s", Sjson.Num w.ws_total_s);
                          ("max_s", Sjson.Num w.ws_max_s);
                          ("restarts", n w.ws_restarts) ])
                    s.per_worker)) ) ] ) ]

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

(* Workers prefer domains; when the domain budget is exhausted (OCaml
   caps the live-domain count) fall back to systhreads, which share
   the spawning domain. *)
let spawn f =
  match Domain.spawn f with
  | d -> Dom d
  | exception _ -> Thr (Thread.create f ())

let join = function Dom d -> Domain.join d | Thr th -> Thread.join th

let validate_config c =
  let bad what = Mfti_error.raise_error
      (Mfti_error.Validation { context = "supervisor"; message = what }) in
  if c.workers < 1 then bad "workers must be >= 1";
  if c.queue < 1 then bad "queue capacity must be >= 1";
  if c.request_timeout_ms < 1 then bad "request timeout must be >= 1 ms";
  if c.idle_timeout_ms < 1 then bad "idle timeout must be >= 1 ms";
  if c.drain_ms < 0 then bad "drain deadline must be >= 0 ms";
  if c.max_line_bytes < 2 then bad "frame cap must be >= 2 bytes"

let start ?(config = default_config) server ~listen =
  validate_config config;
  let listen_fd, bound = Conn.listen listen in
  let t =
    { server; config; listen; bound; listen_fd;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      active = Hashtbl.create 8;
      wstats =
        Array.init config.workers (fun _ ->
            { served = 0; conns = 0; w_total_s = 0.; w_max_s = 0.;
              w_restarts = 0 });
      s_accepted = 0; s_dispatched = 0; s_shed = 0;
      s_idle_timeouts = 0; s_read_timeouts = 0; s_request_timeouts = 0;
      s_restarts = 0; s_queue_max = 0; s_in_flight = 0;
      stopping = false; accept_done = false; stopped = false;
      runners = []; accept_runner = None }
  in
  Server.set_stats_hook server (fun () -> stats_fields t);
  t.runners <- List.init config.workers (fun i -> spawn (worker_life t i));
  t.accept_runner <- Some (spawn (accept_loop t));
  t

let stop t =
  if t.stopped then ()
  else begin
    request_stop t;
    (* graceful drain: let in-flight connections finish *)
    let deadline = now () +. (float_of_int t.config.drain_ms /. 1000.) in
    let rec wait_drain () =
      let busy =
        Mutex.protect t.mu (fun () ->
            t.s_in_flight > 0 || Queue.length t.queue > 0
            || not t.accept_done)
      in
      if busy && now () < deadline then begin
        Unix.sleepf 0.01;
        wait_drain ()
      end
    in
    wait_drain ();
    (* past the drain deadline: force.  Shut down live connections so
       blocked readers see EOF, and close connections still queued —
       they were admitted but will never be served. *)
    Mutex.lock t.mu;
    Hashtbl.iter
      (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      t.active;
    Queue.iter Conn.close t.queue;
    Queue.clear t.queue;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mu;
    (match t.accept_runner with Some r -> join r | None -> ());
    List.iter join t.runners;
    t.stopped <- true
  end

let bound_port t = t.bound

(* block until a shutdown request initiates the drain *)
let wait t =
  let rec go () =
    let stopping = Mutex.protect t.mu (fun () -> t.stopping) in
    if not stopping then begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let run ?config server ~listen =
  let t = start ?config server ~listen in
  wait t;
  stop t
