(* Protocol-level chaos suite for the supervised server.

   Each test starts a real Supervisor on a Unix domain socket and
   attacks it from raw client sockets: concurrent clients with one
   stalled mid-frame, overload past the admission queue, handler
   crashes, deadline blowers, and graceful drain.  The invariant under
   every fault is the same: the server answers each well-formed
   surviving request with a typed response and never exits
   non-gracefully.  All faults are deterministic ({!Linalg.Fault}
   sites) — no timing roulette beyond the deadlines under test. *)

open Linalg
open Statespace
open Serve

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let spec ports =
  { Random_sys.order = 12; ports; rank_d = ports; freq_lo = 1e2;
    freq_hi = 1e6; damping = 0.12; seed = 23 + ports }

let model_of sys =
  Mfti.Engine.Model.make ~sigma:[| 2.0; 1.0 |] ~timings:[]
    ~rank:(Descriptor.order sys) sys

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mfti_chaos_%d_%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let server_root =
  lazy
    (let dir = fresh_dir () in
     Artifact.save (Filename.concat dir "alpha.mfti")
       (Artifact.v ~name:"alpha" (model_of (Random_sys.generate (spec 2))));
     dir)

let test_config =
  { Supervisor.default_config with
    workers = 2;
    queue = 4;
    request_timeout_ms = 2_000;
    idle_timeout_ms = 5_000;
    drain_ms = 1_000;
    backoff_base_ms = 2;
    backoff_cap_ms = 20 }

(* start a supervisor; run [f sup path]; always stop and clear faults *)
let with_supervisor ?(config = test_config) f =
  let srv = Server.create ~root:(Lazy.force server_root) () in
  let path =
    Filename.concat (fresh_dir ())
      (Printf.sprintf "s%d.sock" (Unix.getpid ()))
  in
  let sup = Supervisor.start ~config srv ~listen:(Conn.Unix_path path) in
  Fun.protect
    ~finally:(fun () ->
      Fault.set_spec None;
      Supervisor.stop sup)
    (fun () -> f sup srv path)

(* ------------------------------------------------------------------ *)
(* Raw socket clients *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e -> Unix.close fd; raise e);
  fd

let send_raw fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let send_line fd line = send_raw fd (line ^ "\n")

(* read one newline-terminated frame with a wall-clock deadline;
   [`Line l | `Eof | `Timeout].  [buf] persists bytes past the first
   newline — pipelined responses can coalesce into a single read, so a
   caller expecting several frames must pass the same buffer each
   time. *)
let recv_line_buf ?(timeout = 10.0) buf fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
      `Line (String.sub s 0 i)
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then `Timeout
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> `Timeout
        | _ ->
          (match Unix.read fd chunk 0 (Bytes.length chunk) with
           | 0 -> `Eof
           | k -> Buffer.add_subbytes buf chunk 0 k; go ()
           | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let recv_line ?timeout fd = recv_line_buf ?timeout (Buffer.create 256) fd

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let expect_line what = function
  | `Line l -> Sjson.parse l
  | `Eof -> Alcotest.failf "%s: connection closed" what
  | `Timeout -> Alcotest.failf "%s: no response" what

let j_mem k j =
  match Sjson.member k j with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S in %s" k (Sjson.to_string j)

let j_bool k j =
  match j_mem k j with
  | Sjson.Bool b -> b
  | _ -> Alcotest.failf "%S is not a bool" k

let j_str k j =
  match j_mem k j with
  | Sjson.Str s -> s
  | _ -> Alcotest.failf "%S is not a string" k

let expect_ok what r =
  let j = expect_line what r in
  Alcotest.(check bool) (what ^ " ok") true (j_bool "ok" j);
  j

let expect_kind what kind r =
  let j = expect_line what r in
  Alcotest.(check bool) (what ^ " not ok") false (j_bool "ok" j);
  Alcotest.(check string) (what ^ " kind") kind
    (j_str "kind" (j_mem "error" j))

let roundtrip ?timeout path line what =
  let fd = connect path in
  Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
  send_line fd line;
  expect_ok what (recv_line ?timeout fd)

(* ------------------------------------------------------------------ *)
(* Baseline: the supervised transport speaks the same protocol *)

let test_supervised_roundtrip () =
  with_supervisor @@ fun sup _srv path ->
  ignore (roundtrip path "{\"op\":\"list-models\"}" "list");
  ignore (roundtrip path "{\"op\":\"model-info\",\"model\":\"alpha\"}" "info");
  (* stats exposes the supervisor block through the ordinary op *)
  let j = roundtrip path "{\"op\":\"stats\"}" "stats" in
  let s = j_mem "supervisor" j in
  (match j_mem "queue_capacity" s with
   | Sjson.Num n -> Alcotest.(check (float 0.)) "capacity" 4. n
   | _ -> Alcotest.fail "queue_capacity not a number");
  (* pipelined frames on one connection *)
  let fd = connect path in
  Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
  send_raw fd "{\"op\":\"stats\"}\n{\"op\":\"stats\"}\n";
  let pbuf = Buffer.create 256 in
  ignore (expect_ok "pipelined 1" (recv_line_buf pbuf fd));
  ignore (expect_ok "pipelined 2" (recv_line_buf pbuf fd));
  let snap = Supervisor.stats sup in
  Alcotest.(check bool) "connections dispatched" true
    (snap.Supervisor.dispatched >= 4)

(* ------------------------------------------------------------------ *)
(* Acceptance scenario: four concurrent clients, one stalled mid-frame.
   The stalled client is timed out per policy; the other three complete
   normally; the stats op reports the timeout. *)

let test_four_clients_one_stalled () =
  let config = { test_config with workers = 4 } in
  with_supervisor ~config @@ fun sup _srv path ->
  let stalled = connect path in
  Fun.protect ~finally:(fun () -> close_quiet stalled) @@ fun () ->
  (* half a frame, then silence: the partial-frame deadline applies *)
  send_raw stalled "{\"op\":\"eval";
  let fast = Array.init 3 (fun _ -> connect path) in
  Fun.protect
    ~finally:(fun () -> Array.iter close_quiet fast)
    (fun () ->
      Array.iteri
        (fun i fd ->
          send_line fd "{\"op\":\"model-info\",\"model\":\"alpha\"}";
          ignore (expect_ok (Printf.sprintf "fast client %d" i)
                    (recv_line fd)))
        fast);
  (* the stalled client gets a typed timeout once its deadline passes *)
  expect_kind "stalled client" "timeout" (recv_line ~timeout:10.0 stalled);
  let snap = Supervisor.stats sup in
  Alcotest.(check bool) "read timeout recorded" true
    (snap.Supervisor.read_timeouts >= 1);
  Alcotest.(check bool) "no worker restarts needed" true
    (snap.Supervisor.restarts = 0)

(* ------------------------------------------------------------------ *)
(* Load shedding: with one worker and a one-slot queue, overload is
   refused with a typed "overloaded" response, never an unbounded
   backlog. *)

let test_load_shedding () =
  let config = { test_config with workers = 1; queue = 1 } in
  with_supervisor ~config @@ fun sup _srv path ->
  (* occupy the only worker: a stalled partial frame pins it until the
     request deadline *)
  let pin = connect path in
  Fun.protect ~finally:(fun () -> close_quiet pin) @@ fun () ->
  send_raw pin "{\"op\":\"sta";
  (* wait until the connection is actually in flight so later connects
     hit the queue, not the worker *)
  let rec wait_busy n =
    if n = 0 then Alcotest.fail "worker never became busy";
    if (Supervisor.stats sup).Supervisor.in_flight < 1 then begin
      Unix.sleepf 0.01; wait_busy (n - 1)
    end
  in
  wait_busy 500;
  (* fill the single queue slot *)
  let queued = connect path in
  Fun.protect ~finally:(fun () -> close_quiet queued) @@ fun () ->
  let rec wait_queued n =
    if n = 0 then Alcotest.fail "connection never queued";
    if (Supervisor.stats sup).Supervisor.queue_depth < 1 then begin
      Unix.sleepf 0.01; wait_queued (n - 1)
    end
  in
  wait_queued 500;
  (* everyone else is shed, immediately and typed *)
  let shed = Array.init 3 (fun _ -> connect path) in
  Fun.protect
    ~finally:(fun () -> Array.iter close_quiet shed)
    (fun () ->
      Array.iteri
        (fun i fd ->
          expect_kind
            (Printf.sprintf "shed client %d" i)
            "overloaded" (recv_line fd))
        shed);
  (* the queued client is eventually served once the pin times out *)
  send_line queued "{\"op\":\"list-models\"}";
  ignore (expect_ok "queued client" (recv_line ~timeout:10.0 queued));
  let snap = Supervisor.stats sup in
  Alcotest.(check bool) "sheds recorded" true (snap.Supervisor.shed >= 3);
  Alcotest.(check bool) "queue high-water mark" true
    (snap.Supervisor.queue_max >= 1)

(* ------------------------------------------------------------------ *)
(* Worker crash (serve.conn_drop): the handler dies mid-connection, the
   worker restarts with backoff, and the next connection is served. *)

let test_conn_drop_restart () =
  with_supervisor @@ fun sup _srv path ->
  Fault.set_spec (Some "serve.conn_drop");
  let fd = connect path in
  send_line fd "{\"op\":\"list-models\"}";
  (* the dying worker closes the connection without an answer *)
  (match recv_line ~timeout:10.0 fd with
   | `Eof -> ()
   | `Line l -> Alcotest.failf "dropped connection answered: %s" l
   | `Timeout -> Alcotest.fail "dropped connection neither closed nor answered");
  close_quiet fd;
  Fault.set_spec None;
  (* restarted worker serves the next client *)
  ignore (roundtrip path "{\"op\":\"list-models\"}" "after restart");
  (* the conn closes (client EOF) slightly before the crashed worker's
     supervisor bumps the restart counter — poll rather than race it *)
  let rec wait_restart n =
    if (Supervisor.stats sup).Supervisor.restarts >= 1 then ()
    else if n = 0 then Alcotest.fail "restart never recorded"
    else begin
      Unix.sleepf 0.01;
      wait_restart (n - 1)
    end
  in
  wait_restart 500

(* ------------------------------------------------------------------ *)
(* Deadline blower (serve.stall): the evaluation overshoots the request
   deadline; the client gets "timeout", not the stale result. *)

let test_stall_timeout () =
  let config = { test_config with request_timeout_ms = 100 } in
  with_supervisor ~config @@ fun sup _srv path ->
  Fault.set_spec (Some "serve.stall");
  let fd = connect path in
  Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
  send_line fd "{\"op\":\"model-info\",\"model\":\"alpha\"}";
  expect_kind "stalled request" "timeout" (recv_line ~timeout:10.0 fd);
  Fault.set_spec None;
  let snap = Supervisor.stats sup in
  Alcotest.(check bool) "request timeout recorded" true
    (snap.Supervisor.request_timeouts >= 1);
  (* server unharmed *)
  ignore (roundtrip path "{\"op\":\"stats\"}" "after stall")

(* serve.slow_client forces the partial-frame expiry deterministically *)
let test_slow_client_fault () =
  with_supervisor @@ fun sup _srv path ->
  Fault.set_spec (Some "serve.slow_client");
  let fd = connect path in
  Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
  send_raw fd "{\"op\":\"lis";
  expect_kind "slow client" "timeout" (recv_line ~timeout:10.0 fd);
  Fault.set_spec None;
  let snap = Supervisor.stats sup in
  Alcotest.(check bool) "read timeout recorded" true
    (snap.Supervisor.read_timeouts >= 1)

(* ------------------------------------------------------------------ *)
(* Graceful drain: a shutdown request stops accepting, in-flight work
   finishes, the socket file disappears, and stop is idempotent. *)

let test_graceful_drain () =
  with_supervisor @@ fun sup _srv path ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
  send_line fd "{\"op\":\"shutdown\"}";
  ignore (expect_ok "shutdown ack" (recv_line fd));
  Supervisor.stop sup;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  (match connect path with
   | fd2 -> close_quiet fd2; Alcotest.fail "connect succeeded after drain"
   | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
     ());
  Supervisor.stop sup;
  Alcotest.(check bool) "draining flag" true
    (Supervisor.stats sup).Supervisor.draining

(* ------------------------------------------------------------------ *)
(* Chaos storm: cycle every serve.* fault while well-formed requests
   keep arriving.  Every surviving request gets a typed answer; the
   server process never dies; a final clean pass works. *)

let test_chaos_storm () =
  with_supervisor @@ fun _sup _srv path ->
  let specs =
    [ Some "serve.conn_drop"; None; Some "serve.slow_client"; None;
      Some "serve.stall"; None ]
  in
  List.iter
    (fun spec ->
      Fault.set_spec spec;
      let fd = connect path in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      (match spec with
       | Some "serve.slow_client" ->
         send_raw fd "{\"op\":\"stats\"";
         ignore (expect_line "storm slow" (recv_line ~timeout:10.0 fd))
       | _ ->
         send_line fd "{\"op\":\"stats\"}";
         (* conn_drop closes without answering; everything else must
            produce a well-formed frame *)
         (match recv_line ~timeout:10.0 fd with
          | `Line l ->
            ignore (Sjson.parse l)
          | `Eof when spec = Some "serve.conn_drop" -> ()
          | `Eof -> Alcotest.fail "connection dropped without fault"
          | `Timeout -> Alcotest.fail "storm request unanswered")))
    specs;
  Fault.set_spec None;
  ignore (roundtrip path "{\"op\":\"model-info\",\"model\":\"alpha\"}"
            "after the storm")

(* ------------------------------------------------------------------ *)
(* Streaming fit session over the supervised socket: two connections
   interleave ops on one session id (sticky serialization inside the
   server), and the per-session counters surface exactly through the
   ordinary stats op. *)

let j_num k j =
  match j_mem k j with
  | Sjson.Num x -> x
  | _ -> Alcotest.failf "%S is not a number" k

let session_sample_json (s : Sampling.sample) =
  let p, m = Cmat.dims s.Sampling.s in
  Sjson.Obj
    [ ("freq", Sjson.Num s.Sampling.freq);
      ( "s",
        Sjson.Arr
          (List.init p (fun i ->
               Sjson.Arr
                 (List.init m (fun j ->
                      let z = Cmat.get s.Sampling.s i j in
                      Sjson.Arr [ Sjson.Num z.Cx.re; Sjson.Num z.Cx.im ])))) ) ]

let test_session_over_socket () =
  with_supervisor @@ fun _sup _srv path ->
  let sys = Random_sys.generate (spec 2) in
  let sample f = { Sampling.freq = f; s = Descriptor.eval_freq sys f } in
  let batch ?(holdout = false) sid freqs =
    Sjson.to_string
      (Sjson.Obj
         ([ ("op", Sjson.Str "fit-add-samples");
            ("session", Sjson.Str sid);
            ( "samples",
              Sjson.Arr
                (Array.to_list
                   (Array.map (fun f -> session_sample_json (sample f)) freqs))
            ) ]
          @ if holdout then [ ("holdout", Sjson.Bool true) ] else []))
  in
  let a = connect path in
  Fun.protect ~finally:(fun () -> close_quiet a) @@ fun () ->
  let abuf = Buffer.create 256 in
  send_line a "{\"op\":\"fit-open\",\"ports\":2,\"certify\":\"check\"}";
  let jo = expect_ok "fit-open" (recv_line_buf abuf a) in
  let sid = j_str "session" jo in
  send_line a (batch sid (Sampling.logspace 1e2 1e6 12));
  ignore (expect_ok "batch on conn A" (recv_line_buf abuf a));
  (* a second connection reaches the same session: sticky by id, not
     by transport *)
  let b = connect path in
  Fun.protect ~finally:(fun () -> close_quiet b) @@ fun () ->
  let bbuf = Buffer.create 256 in
  send_line b (batch sid (Sampling.logspace 1.5e2 1.5e6 12));
  let jb = expect_ok "batch on conn B" (recv_line_buf bbuf b) in
  Alcotest.(check (float 0.)) "both batches landed" 24. (j_num "samples" jb);
  send_line b (batch ~holdout:true sid [| 3.3e3; 4.7e4 |]);
  ignore (expect_ok "hold-out on conn B" (recv_line_buf bbuf b));
  send_line b
    (Printf.sprintf "{\"op\":\"fit-suggest\",\"session\":%S,\"count\":2}" sid);
  ignore (expect_ok "suggest on conn B" (recv_line_buf bbuf b));
  (* counters through the ordinary stats op, exact *)
  send_line a "{\"op\":\"stats\"}";
  let js = expect_ok "stats" (recv_line_buf abuf a) in
  let sess = j_mem "sessions" js in
  Alcotest.(check (float 0.)) "opened" 1. (j_num "opened" sess);
  Alcotest.(check (float 0.)) "open" 1. (j_num "open" sess);
  Alcotest.(check (float 0.)) "appended samples" 26.
    (j_num "appended_samples" sess);
  Alcotest.(check (float 0.)) "suggest calls" 1. (j_num "suggest_calls" sess);
  Alcotest.(check (float 0.)) "nothing refused" 0. (j_num "refused" sess);
  Alcotest.(check bool) "bytes accounted" true
    (j_num "resident_bytes" sess > 0.);
  (* finalize on connection A; the packed model serves on connection B *)
  send_line a
    (Printf.sprintf
       "{\"op\":\"fit-finalize\",\"session\":%S,\"model\":\"sess-model\"}" sid);
  ignore (expect_ok "finalize" (recv_line_buf abuf a));
  send_line b "{\"op\":\"model-info\",\"model\":\"sess-model\"}";
  let ji = expect_ok "packed model served" (recv_line_buf bbuf b) in
  Alcotest.(check (float 0.)) "ports" 2. (j_num "inputs" ji);
  send_line b "{\"op\":\"stats\"}";
  let js2 = expect_ok "stats after finalize" (recv_line_buf bbuf b) in
  let sess2 = j_mem "sessions" js2 in
  Alcotest.(check (float 0.)) "finalized" 1. (j_num "finalized" sess2);
  Alcotest.(check (float 0.)) "none open" 0. (j_num "open" sess2)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chaos"
    [ ("supervisor",
       [ Alcotest.test_case "supervised roundtrip" `Quick
           test_supervised_roundtrip;
         Alcotest.test_case "4 clients, 1 stalled" `Quick
           test_four_clients_one_stalled;
         Alcotest.test_case "load shedding" `Quick test_load_shedding;
         Alcotest.test_case "conn drop -> restart" `Quick
           test_conn_drop_restart;
         Alcotest.test_case "stall -> timeout" `Quick test_stall_timeout;
         Alcotest.test_case "slow client fault" `Quick
           test_slow_client_fault;
         Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
         Alcotest.test_case "session over socket" `Quick
           test_session_over_socket;
         Alcotest.test_case "chaos storm" `Quick test_chaos_storm ]) ]
