(* Supervised-serving benchmark: request throughput through the full
   socket transport (accept loop, admission queue, worker pool,
   deadlines) at 1, 2 and 4 workers, plus the shed rate when a
   single-worker single-slot server is deliberately overloaded.

   Clients are systhreads in this process hammering a real Unix domain
   socket, one persistent connection each, strict request/response —
   so the numbers include framing, scheduling and queueing, not just
   Server.handle_line.  The overload arm pins the only worker with a
   stalled partial frame and then blasts connects: everything past the
   one queue slot must be shed with a typed "overloaded" response, and
   the measured shed rate is reported.

   Writes BENCH_supervisor.json (or BENCH_supervisor.smoke.json with
   --smoke, which also re-parses the report and validates the fields
   downstream tooling keys on). *)

open Statespace

module Json = Bjson

(* ------------------------------------------------------------------ *)
(* Raw socket client *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_raw fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let recv_line fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> Some (String.sub s 0 i)
    | None ->
      (match Unix.read fd chunk 0 (Bytes.length chunk) with
       | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
       | k -> Buffer.add_subbytes buf chunk 0 k; go ()
       | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
         None)
  in
  go ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)

let run ?(smoke = false) () =
  Util.heading
    (if smoke then "supervisor benchmark (smoke)"
     else "supervisor benchmark");
  let clients = 4 in
  let per_client = if smoke then 25 else 250 in
  let worker_arms = [ 1; 2; 4 ] in

  (* one small packed model to serve *)
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mfti_sup_bench_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sys =
    Random_sys.generate
      { Random_sys.order = 16; ports = 2; rank_d = 1; freq_lo = 1e6;
        freq_hi = 1e10; damping = 0.05; seed = 42 }
  in
  Serve.Artifact.save (Filename.concat root "bench.mfti")
    (Serve.Artifact.v ~name:"bench" ~fit_err:0.
       (Mfti.Engine.Model.make ~rank:16 sys));
  let sock_path n =
    Filename.concat root (Printf.sprintf "sup%d.sock" n)
  in
  let req = {|{"op":"model-info","model":"bench"}|} ^ "\n" in

  (* ---------------------------------------------------------------- *)
  (* throughput arms: [clients] persistent connections, strict
     request/response, total requests / wall seconds *)

  let throughput workers =
    let srv = Serve.Server.create ~root () in
    let config =
      { Serve.Supervisor.default_config with
        workers; queue = 64; request_timeout_ms = 10_000;
        drain_ms = 2_000 }
    in
    let path = sock_path workers in
    let sup = Serve.Supervisor.start ~config srv ~listen:(Serve.Conn.Unix_path path) in
    let failures = Atomic.make 0 in
    let body () =
      let fd = connect path in
      for _ = 1 to per_client do
        send_raw fd req;
        match recv_line fd with
        | Some l when String.length l >= 11
                      && String.sub l 0 11 = {|{"ok": true|} -> ()
        | _ -> Atomic.incr failures
      done;
      close_quiet fd
    in
    let t0 = Unix.gettimeofday () in
    let ths = List.init clients (fun _ -> Thread.create body ()) in
    List.iter Thread.join ths;
    let dt = Unix.gettimeofday () -. t0 in
    Serve.Supervisor.stop sup;
    if Atomic.get failures > 0 then
      failwith
        (Printf.sprintf "supervisor bench: %d requests failed at %d workers"
           (Atomic.get failures) workers);
    float_of_int (clients * per_client) /. dt
  in
  let rates = List.map (fun w -> (w, throughput w)) worker_arms in
  List.iter
    (fun (w, r) ->
      Printf.printf "  %d worker%s: %8.0f req/s\n%!" w
        (if w = 1 then " " else "s") r)
    rates;

  (* ---------------------------------------------------------------- *)
  (* overload arm: 1 worker pinned by a stalled partial frame, 1 queue
     slot; every surplus connect must be shed with "overloaded" *)

  let blast = if smoke then 8 else 32 in
  let shed_rate, shed, accepted =
    let srv = Serve.Server.create ~root () in
    let config =
      { Serve.Supervisor.default_config with
        workers = 1; queue = 1; request_timeout_ms = 400; drain_ms = 1_000 }
    in
    let path = Filename.concat root "overload.sock" in
    let sup = Serve.Supervisor.start ~config srv ~listen:(Serve.Conn.Unix_path path) in
    let pin = connect path in
    send_raw pin {|{"op":"sta|};
    let rec wait_busy n =
      if n = 0 then failwith "supervisor bench: worker never became busy";
      if (Serve.Supervisor.stats sup).Serve.Supervisor.in_flight < 1 then begin
        Unix.sleepf 0.01;
        wait_busy (n - 1)
      end
    in
    wait_busy 300;
    (* open every connection before reading any response: the queue
       (capacity 1) fills instantly and the surplus is shed at accept
       time — reading first would serialize the connects and never
       overload the server.  A connection shed before its request goes
       out is already closed, so the write may fail with EPIPE or
       ECONNRESET; it still counts through the supervisor's shed stat,
       exactly as recv_line treats a reset read. *)
    let fds =
      List.init blast (fun _ ->
          let fd = connect path in
          (try send_raw fd req
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          fd)
    in
    let overloaded = ref 0 in
    List.iter
      (fun fd ->
        (match recv_line fd with
         | Some l ->
           let is k =
             let n = String.length k and h = String.length l in
             let rec at i =
               i + n <= h && (String.sub l i n = k || at (i + 1))
             in
             at 0
           in
           if is {|"kind": "overloaded"|} then incr overloaded
         | None -> ());
        close_quiet fd)
      fds;
    close_quiet pin;
    let snap = Serve.Supervisor.stats sup in
    Serve.Supervisor.stop sup;
    let acc = snap.Serve.Supervisor.accepted
    and shed = snap.Serve.Supervisor.shed in
    if shed = 0 then failwith "supervisor bench: overload arm never shed";
    if !overloaded = 0 then
      failwith "supervisor bench: no typed overloaded response observed";
    (float_of_int shed /. float_of_int acc, shed, acc)
  in
  Printf.printf
    "  overload: %d/%d connections shed (%.0f%%), typed responses\n%!"
    shed accepted (shed_rate *. 100.);

  (* ---------------------------------------------------------------- *)
  (* report *)

  let json =
    Json.Obj
      (Json.std_header ~schema:"mfti-bench-supervisor/1"
         ~tool:"bench/main.exe supervisor" ~smoke
      @ [ ("clients", Json.Num (float_of_int clients));
        ("requests_per_client", Json.Num (float_of_int per_client));
        ( "throughput",
          Json.Arr
            (List.map
               (fun (w, r) ->
                 Json.Obj
                   [ ("workers", Json.Num (float_of_int w));
                     ("req_per_s", Json.Num (Float.round r)) ])
               rates) );
        ( "overload",
          Json.Obj
            [ ("blast", Json.Num (float_of_int blast));
              ("accepted", Json.Num (float_of_int accepted));
              ("shed", Json.Num (float_of_int shed));
              ("shed_rate", Json.Num shed_rate) ] ) ])
  in
  let path =
    if smoke then "BENCH_supervisor.smoke.json" else "BENCH_supervisor.json"
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  if smoke then begin
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let parsed = Json.parse text in
    List.iter
      (fun field ->
        if Json.member field parsed = None then
          failwith ("supervisor bench: JSON missing " ^ field))
      [ "schema"; "clients"; "requests_per_client"; "throughput"; "overload" ];
    (match Json.member "schema" parsed with
     | Some (Json.Str "mfti-bench-supervisor/1") -> ()
     | _ -> failwith "supervisor bench: wrong schema tag");
    (match Json.member "throughput" parsed with
     | Some (Json.Arr (_ :: _ as rows)) ->
       List.iter
         (fun r ->
           List.iter
             (fun field ->
               if Json.member field r = None then
                 failwith ("supervisor bench: JSON row missing " ^ field))
             [ "workers"; "req_per_s" ])
         rows
     | _ -> failwith "supervisor bench: JSON missing throughput rows");
    (match Json.member "overload" parsed with
     | Some o ->
       (match Json.member "shed_rate" o with
        | Some (Json.Num r) when r > 0. -> ()
        | _ -> failwith "supervisor bench: shed_rate missing or zero")
     | None -> failwith "supervisor bench: JSON missing overload block");
    Printf.printf "smoke: JSON parses, all rows well-formed\n%!"
  end;
  (* clean the temp root *)
  Array.iter
    (fun f -> try Sys.remove (Filename.concat root f) with Sys_error _ -> ())
    (try Sys.readdir root with Sys_error _ -> [||]);
  (try Unix.rmdir root with Unix.Unix_error _ -> ())
