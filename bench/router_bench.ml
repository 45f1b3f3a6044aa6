(* Routing-tier benchmark: end-to-end request throughput through the
   router at 1, 2 and 4 replicas, the eval-grid coalescing hit rate
   under a concurrent burst, and the binary-vs-JSON frame size for a
   grid response.

   The replica arms measure what sharding actually buys on one box:
   cache affinity, not parallelism.  The model set is deliberately
   larger than one replica's LRU budget (each replica's cache holds ~3
   of the 12 models), and clients cycle through the models round-robin
   — the LRU's worst case.  One replica therefore reloads and recompiles
   an artifact on almost every request, while four replicas each see
   only their hash shard, which fits in cache, so nearly every request
   is a cache hit.  Clients are systhreads hammering a real Unix-socket
   router in strict request/response over persistent connections, so
   the numbers include framing, routing, pooling and demux.

   Writes BENCH_router.json (or BENCH_router.smoke.json with --smoke,
   which also validates the committed full report: throughput rows at
   1/2/4 replicas, 1->4 scaling >= 2.5x, coalescing hit rate > 0, and
   binary frames smaller than JSON). *)

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
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> Some (String.sub s 0 i)
    | None ->
      (match Unix.read fd chunk 0 (Bytes.length chunk) with
       | 0 -> None
       | k -> Buffer.add_subbytes buf chunk 0 k; go ()
       | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
         None)
  in
  go ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let is_ok l =
  String.length l >= 11 && String.sub l 0 11 = {|{"ok": true|}

(* ------------------------------------------------------------------ *)

let run ?(smoke = false) () =
  Util.heading
    (if smoke then "router benchmark (smoke)" else "router benchmark");
  let clients = 4 in
  let per_client = if smoke then 30 else 200 in
  let models = 12 in
  let replica_arms = [ 1; 2; 4 ] in

  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mfti_router_bench_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sys =
    Random_sys.generate
      { Random_sys.order = 40; ports = 2; rank_d = 1; freq_lo = 1e6;
        freq_hi = 1e10; damping = 0.05; seed = 42 }
  in
  let art = Serve.Artifact.v ~name:"bench" ~fit_err:0.
      (Mfti.Engine.Model.make ~rank:40 sys)
  in
  for i = 0 to models - 1 do
    Serve.Artifact.save
      (Filename.concat root (Printf.sprintf "m%d.mfti" i))
      art
  done;
  let file_bytes = (Unix.stat (Filename.concat root "m0.mfti")).Unix.st_size in
  (* each replica's LRU holds ~3 of the 12 models: one replica thrashes
     on a round-robin workload, four hold their shards resident *)
  let cache_bytes = 7 * file_bytes / 2 in

  let req_of m =
    Printf.sprintf
      {|{"op":"eval-grid","model":"m%d","freqs":[1e7,3e7,1e8,3e8,1e9,3e9,1e10,2e10]}|}
      m
    ^ "\n"
  in

  let router_config n =
    { Serve.Router.default_config with
      probe_interval_ms = 500; request_timeout_ms = 20_000;
      max_conns = 64; max_failover = min 2 (n - 1) }
  in

  let with_fleet ?(hold_ms = 0) n f =
    let paths =
      List.init n (fun i ->
          Filename.concat root (Printf.sprintf "r%d_%d.sock" n i))
    in
    let sups =
      List.map
        (fun path ->
          let srv = Serve.Server.create ~root ~cache_bytes () in
          let config =
            (* enough workers for the router's pooled upstream
               connections (4) plus a fresh health-probe connection,
               or the probes starve behind persistent conns and the
               replica is wrongly marked down *)
            { Serve.Supervisor.default_config with
              workers = 8; queue = 64; request_timeout_ms = 20_000;
              drain_ms = 1_000 }
          in
          Serve.Supervisor.start ~config srv
            ~listen:(Serve.Conn.Unix_path path))
        paths
    in
    let rpath = Filename.concat root (Printf.sprintf "router%d.sock" n) in
    let router =
      Serve.Router.start
        ~config:{ (router_config n) with coalesce_hold_ms = hold_ms }
        ~listen:(Serve.Conn.Unix_path rpath) ~replicas:paths ()
    in
    Fun.protect
      ~finally:(fun () ->
        Serve.Router.stop router;
        List.iter Serve.Supervisor.stop sups)
      (fun () -> f rpath router)
  in

  (* ---------------------------------------------------------------- *)
  (* throughput arms *)

  let throughput n =
    with_fleet n @@ fun rpath _router ->
    let failures = Atomic.make 0 in
    let body c =
      let fd = connect rpath in
      for k = 0 to per_client - 1 do
        (* cycle the model set: the worst case for a too-small LRU *)
        send_raw fd (req_of ((c + (clients * k)) mod models));
        match recv_line fd with
        | Some l when is_ok l -> ()
        | _ -> Atomic.incr failures
      done;
      close_quiet fd
    in
    let t0 = Unix.gettimeofday () in
    let ths = List.init clients (fun c -> Thread.create body c) in
    List.iter Thread.join ths;
    let dt = Unix.gettimeofday () -. t0 in
    if Atomic.get failures > 0 then
      failwith
        (Printf.sprintf "router bench: %d requests failed at %d replicas"
           (Atomic.get failures) n);
    float_of_int (clients * per_client) /. dt
  in
  let rates = List.map (fun n -> (n, throughput n)) replica_arms in
  List.iter
    (fun (n, r) ->
      Printf.printf "  %d replica%s: %8.0f req/s\n%!" n
        (if n = 1 then " " else "s") r)
    rates;
  let rate_of n = List.assoc n rates in
  let scaling = rate_of 4 /. rate_of 1 in
  Printf.printf "  scaling 1 -> 4 replicas: %.2fx\n%!" scaling;

  (* ---------------------------------------------------------------- *)
  (* coalescing arm: concurrent identical grids ride one batch *)

  let burst = 8 in
  let rounds = if smoke then 5 else 20 in
  let batches, hits, hit_rate =
    with_fleet ~hold_ms:25 1 @@ fun rpath router ->
    (* warm the model so the batch upstream call is cheap *)
    let fd = connect rpath in
    send_raw fd (req_of 0);
    ignore (recv_line fd);
    close_quiet fd;
    let s0 = Serve.Router.stats router in
    for _ = 1 to rounds do
      let ths =
        List.init burst (fun _ ->
            Thread.create
              (fun () ->
                let fd = connect rpath in
                send_raw fd (req_of 0);
                (match recv_line fd with
                 | Some l when is_ok l -> ()
                 | _ -> failwith "router bench: coalesced request failed");
                close_quiet fd)
              ())
      in
      List.iter Thread.join ths
    done;
    let s1 = Serve.Router.stats router in
    let batches =
      s1.Serve.Router.rt_coalesce_batches - s0.Serve.Router.rt_coalesce_batches
    and hits =
      s1.Serve.Router.rt_coalesce_hits - s0.Serve.Router.rt_coalesce_hits
    in
    if hits < 1 then failwith "router bench: coalescing never hit";
    (batches, hits, float_of_int hits /. float_of_int (batches + hits))
  in
  Printf.printf
    "  coalescing: %d upstream batches, %d riders (%.0f%% hit rate)\n%!"
    batches hits (hit_rate *. 100.);

  (* ---------------------------------------------------------------- *)
  (* frame-size arm: the same grid response over both framings *)

  let grid_points = 256 in
  let json_bytes, binary_bytes =
    with_fleet 1 @@ fun rpath _router ->
    let freqs =
      String.concat ","
        (List.init grid_points (fun i ->
             Printf.sprintf "%.6e" (1e7 +. (float_of_int i *. 7.3e7))))
    in
    let req =
      Printf.sprintf {|{"op":"eval-grid","model":"m0","freqs":[%s]}|} freqs
    in
    let fd = connect rpath in
    Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
    (* warm, then measure the JSON line *)
    send_raw fd (req ^ "\n");
    ignore (recv_line fd);
    send_raw fd (req ^ "\n");
    let json_len =
      match recv_line fd with
      | Some l when is_ok l -> String.length l + 1
      | _ -> failwith "router bench: JSON grid request failed"
    in
    (* negotiate binary and measure the same response as a frame *)
    send_raw fd {|{"op":"hello","frames":"binary"}|};
    send_raw fd "\n";
    (match recv_line fd with
     | Some l when is_ok l -> ()
     | _ -> failwith "router bench: hello not acknowledged");
    send_raw fd (Serve.Frame.encode_json req);
    let rd = Serve.Frame.Reader.create () in
    let chunk = Bytes.create 65536 in
    let rec read_frame () =
      match
        Serve.Frame.Reader.next rd ~mode:Serve.Frame.Binary
          ~max_bytes:(1 lsl 26)
      with
      | `Frame (Serve.Frame.Grid_body b) -> String.length b + 5
      | `Frame (Serve.Frame.Json_text _) ->
        failwith "router bench: expected a grid frame"
      | `None ->
        (match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> failwith "router bench: EOF mid-frame"
         | k ->
           Serve.Frame.Reader.add rd chunk k;
           read_frame ())
      | `Too_long | `Bad _ -> failwith "router bench: bad frame"
    in
    (json_len, read_frame ())
  in
  Printf.printf
    "  frames: %d-point grid is %d bytes as JSON, %d as binary (%.1fx)\n%!"
    grid_points json_bytes binary_bytes
    (float_of_int json_bytes /. float_of_int binary_bytes);

  (* ---------------------------------------------------------------- *)
  (* report *)

  let json =
    Json.Obj
      (Json.std_header ~schema:"mfti-bench-router/1"
         ~tool:"bench/main.exe router" ~smoke
      @ [ ("clients", Json.Num (float_of_int clients));
          ("requests_per_client", Json.Num (float_of_int per_client));
          ("models", Json.Num (float_of_int models));
          ("cache_budget_bytes", Json.Num (float_of_int cache_bytes));
          ("model_file_bytes", Json.Num (float_of_int file_bytes));
          ( "throughput",
            Json.Arr
              (List.map
                 (fun (n, r) ->
                   Json.Obj
                     [ ("replicas", Json.Num (float_of_int n));
                       ("req_per_s", Json.Num (Float.round r)) ])
                 rates) );
          ("scaling_1_to_4", Json.Num scaling);
          ( "coalescing",
            Json.Obj
              [ ("burst", Json.Num (float_of_int burst));
                ("rounds", Json.Num (float_of_int rounds));
                ("batches", Json.Num (float_of_int batches));
                ("hits", Json.Num (float_of_int hits));
                ("hit_rate", Json.Num hit_rate) ] );
          ( "frames",
            Json.Obj
              [ ("grid_points", Json.Num (float_of_int grid_points));
                ("json_bytes", Json.Num (float_of_int json_bytes));
                ("binary_bytes", Json.Num (float_of_int binary_bytes));
                ( "ratio",
                  Json.Num
                    (float_of_int json_bytes /. float_of_int binary_bytes) )
              ] ) ])
  in
  let path = if smoke then "BENCH_router.smoke.json" else "BENCH_router.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path;

  if smoke then begin
    let validate what text =
      let fail fmt = Printf.ksprintf failwith fmt in
      let parsed = Json.parse text in
      List.iter
        (fun field ->
          if Json.member field parsed = None then
            fail "router bench: %s missing %s" what field)
        [ "schema"; "throughput"; "scaling_1_to_4"; "coalescing"; "frames" ];
      (match Json.member "schema" parsed with
       | Some (Json.Str "mfti-bench-router/1") -> ()
       | _ -> fail "router bench: %s has wrong schema tag" what);
      (match Json.member "throughput" parsed with
       | Some (Json.Arr rows) ->
         let seen =
           List.filter_map
             (fun r ->
               match (Json.member "replicas" r, Json.member "req_per_s" r) with
               | Some (Json.Num n), Some (Json.Num rps) when rps > 0. ->
                 Some (int_of_float n)
               | _ -> None)
             rows
         in
         List.iter
           (fun n ->
             if not (List.mem n seen) then
               fail "router bench: %s lacks a %d-replica row" what n)
           [ 1; 2; 4 ]
       | _ -> fail "router bench: %s missing throughput rows" what);
      (match Json.member "coalescing" parsed with
       | Some c ->
         (match Json.member "hit_rate" c with
          | Some (Json.Num r) when r > 0. -> ()
          | _ -> fail "router bench: %s coalescing hit_rate not positive" what)
       | None -> fail "router bench: %s missing coalescing block" what);
      match Json.member "frames" parsed with
      | Some f ->
        (match (Json.member "json_bytes" f, Json.member "binary_bytes" f) with
         | Some (Json.Num j), Some (Json.Num b) when b > 0. && b < j -> ()
         | _ ->
           fail "router bench: %s binary frames not smaller than JSON" what)
      | None -> fail "router bench: %s missing frames block" what
    in
    let read_file p =
      let ic = open_in p in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      text
    in
    validate "smoke report" (read_file path);
    (* the committed full report must still clear the acceptance bars,
       including the 1->4 replica scaling floor *)
    (match
       List.find_opt Sys.file_exists
         [ "BENCH_router.json"; "../BENCH_router.json" ]
     with
     | None -> failwith "router bench: committed BENCH_router.json not found"
     | Some p ->
       let text = read_file p in
       validate "committed report" text;
       (match Json.member "scaling_1_to_4" (Json.parse text) with
        | Some (Json.Num s) when s >= 2.5 -> ()
        | Some (Json.Num s) ->
          failwith
            (Printf.sprintf
               "router bench: committed 1->4 scaling %.2fx below the 2.5x \
                floor"
               s)
        | _ -> failwith "router bench: committed scaling_1_to_4 missing"));
    Printf.printf "smoke: JSON parses, committed report clears the bars\n%!"
  end;

  (* clean the temp root *)
  Array.iter
    (fun f -> try Sys.remove (Filename.concat root f) with Sys_error _ -> ())
    (try Sys.readdir root with Sys_error _ -> [||]);
  (try Unix.rmdir root with Unix.Unix_error _ -> ())
