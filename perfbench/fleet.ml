(* The serving fleet as separate processes — two `mfti serve --tcp`
   replicas over one shared store behind one `mfti route` — plus the
   client side of the wire protocol.  Each process prints its bound
   port on standard error, which goes to a log file the benchmark
   polls. *)

type proc = { pid : int; name : string; port : int }

type t = {
  replicas : proc list;
  router : proc;
  mutable stopped : bool;
}

let host = "127.0.0.1"

(* Replica settings: a small LRU so the store's working set does not
   fit, and a request deadline far above any latency the rates reach. *)
let cache_mb = 1
let workers = 4

(* Replica ports.  The router shards models by hashing each replica's
   address, so with ephemeral ports every fleet split the models
   differently, and the split sets how often each replica's cache
   misses: the fleet's CPU time per answer swung by a third between
   two fleets started a second apart.  Fixed ports give every fleet the
   same split; a pair that cannot be bound is skipped for the next.
   The router's own port does not enter the ring and stays ephemeral. *)
let replica_ports = [ (47311, 47312); (47321, 47322); (47331, 47332); (47341, 47342) ]

let read_port log ~prefix =
  match Util.read_file log with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
        let n = String.length prefix in
        if String.length line > n && String.sub line 0 n = prefix then
          (* "<prefix> HOST:PORT ..." *)
          let addr = List.hd (String.split_on_char ' ' (String.trim (String.sub line n (String.length line - n)))) in
          match String.rindex_opt addr ':' with
          | Some i -> int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1))
          | None -> None
        else None)

let spawn ~dir ~name ~prefix argv =
  let log = Filename.concat dir (name ^ ".log") in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process argv.(0) argv devnull devnull fd
  in
  Unix.close fd;
  Unix.close devnull;
  let deadline = Util.now () +. 20. in
  let rec wait () =
    match read_port log ~prefix with
    | Some port -> { pid; name; port }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ when Util.now () < deadline ->
         Unix.sleepf 0.01;
         wait ()
       | 0, _ ->
         (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
         ignore (Unix.waitpid [] pid);
         Util.fail "%s did not report its port within 20 s (see %s)" name log
       | _ -> Util.fail "%s exited during start-up (see %s)" name log)
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Client connections *)

(* A client connection with its own receive buffer: frames are cut from
   the bytes received so far without re-copying them on every read, so a
   megabyte JSON answer costs one pass over its bytes. *)
type conn = {
  fd : Unix.file_descr;
  mutable data : Bytes.t;
  mutable len : int;
  mutable scanned : int;   (* JSON lines: bytes already searched for '\n' *)
  chunk : Bytes.t;
  mutable mode : Serve.Frame.mode;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  { fd; data = Bytes.create 65536; len = 0; scanned = 0;
    chunk = Bytes.create 65536; mode = Serve.Frame.Json }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_raw c s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd s !off (n - !off)
  done

(* Send one request in the connection's framing. *)
let send c line =
  match c.mode with
  | Serve.Frame.Json -> send_raw c (line ^ "\n")
  | Serve.Frame.Binary -> send_raw c (Serve.Frame.encode_json line)

(* One read from the socket into the buffer; raises on EOF. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "connection closed"
  | k ->
    if c.len + k > Bytes.length c.data then begin
      let bigger = Bytes.create (2 * (c.len + k)) in
      Bytes.blit c.data 0 bigger 0 c.len;
      c.data <- bigger
    end;
    Bytes.blit c.chunk 0 c.data c.len k;
    c.len <- c.len + k

let drop c n =
  Bytes.blit c.data n c.data 0 (c.len - n);
  c.len <- c.len - n;
  c.scanned <- 0

(* The next complete frame among the bytes received, if any. *)
let frame c =
  match c.mode with
  | Serve.Frame.Json ->
    (match Bytes.index_from_opt c.data c.scanned '\n' with
     | Some i when i < c.len ->
       let stop = if i > 0 && Bytes.get c.data (i - 1) = '\r' then i - 1 else i in
       let line = Bytes.sub_string c.data 0 stop in
       drop c (i + 1);
       Some (Serve.Frame.Json_text line)
     | _ ->
       c.scanned <- c.len;
       None)
  | Serve.Frame.Binary ->
    if c.len < 4 then None
    else
      let n = Int32.to_int (Bytes.get_int32_be c.data 0) land 0xffffffff in
      if n < 1 then failwith "binary frame with empty payload"
      else if c.len < 4 + n then None
      else begin
        let tag = Bytes.get c.data 4 in
        let payload = Bytes.sub_string c.data 5 (n - 1) in
        drop c (4 + n);
        match tag with
        | 'G' -> Some (Serve.Frame.Grid_body payload)
        | 'J' -> Some (Serve.Frame.Json_text payload)
        | t -> failwith (Printf.sprintf "unknown frame tag %C" t)
      end

(* Next complete frame, blocking; raises on EOF or a malformed frame. *)
let rec recv c =
  match frame c with
  | Some p -> p
  | None -> fill c; recv c

let recv_json c =
  match recv c with
  | Serve.Frame.Json_text s -> s
  | Serve.Frame.Grid_body _ -> failwith "unexpected grid frame"

let call c line =
  send c line;
  recv_json c

let binary c =
  (match Serve.Sjson.member "ok" (Serve.Sjson.parse (call c {|{"op":"hello","frames":"binary"}|})) with
   | Some (Serve.Sjson.Bool true) -> ()
   | _ -> failwith "hello not acknowledged");
  c.mode <- Serve.Frame.Binary

let stats port =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  Serve.Sjson.parse (call c {|{"op":"stats"}|})

(* ------------------------------------------------------------------ *)

let kill_proc p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ()

let start ~cli ~dir ~store =
  let replica i port =
    spawn ~dir ~name:(Printf.sprintf "replica%d" i) ~prefix:"mfti serve: listening on"
      [| cli; "serve"; "--root"; store; "--tcp"; Printf.sprintf "%s:%d" host port;
         "--workers"; string_of_int workers; "--queue"; "64";
         "--cache-mb"; string_of_int cache_mb;
         "--request-timeout-ms"; "20000"; "--drain-ms"; "1000" |]
  in
  let rec pair = function
    | [] -> Util.fail "no replica port pair could be bound"
    | (p0, p1) :: rest ->
      (match replica 0 p0 with
       | exception Failure _ -> pair rest
       | r0 ->
         (match replica 1 p1 with
          | exception Failure _ -> kill_proc r0; pair rest
          | r1 -> [ r0; r1 ]))
  in
  let replicas = pair replica_ports in
  let router =
    spawn ~dir ~name:"router" ~prefix:"mfti route: listening on"
      (Array.of_list
         ([ cli; "route"; "--listen"; host ^ ":0"; "--probe-interval-ms"; "200";
            "--request-timeout-ms"; "20000" ]
         @ List.concat_map
             (fun r -> [ "--replica"; Printf.sprintf "%s:%d" host r.port ])
             replicas))
  in
  { replicas; router; stopped = false }

(* Peak resident memory of each fleet process, read before it exits. *)
let peak_rss t =
  List.map (fun p -> (p.name, Util.peak_rss_mb p.pid)) (t.router :: t.replicas)

(* CPU seconds (user + system) the router and replicas have used so
   far, from /proc/<pid>/stat in clock ticks of 1/100 s (Linux's
   USER_HZ) *)
let cpu_seconds t =
  List.fold_left
    (fun acc p ->
      let stat = Util.read_file (Printf.sprintf "/proc/%d/stat" p.pid) in
      (* the fields after the parenthesised command name, from the
         state (field 3) on: utime and stime are fields 14 and 15 *)
      let rest = String.sub stat (String.rindex stat ')' + 2)
          (String.length stat - String.rindex stat ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      acc +. ((float_of_string f.(11) +. float_of_string f.(12)) /. 100.))
    0. (t.router :: t.replicas)

(* Shut the router, then the replicas, down through the protocol; kill
   whatever has not exited two seconds later, and reap every process. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    let ask p =
      try
        let c = connect p.port in
        (try ignore (call c {|{"op":"shutdown"}|}) with _ -> ());
        close c
      with _ -> ()
    in
    let reap p =
      let deadline = Util.now () +. 2. in
      let rec go () =
        match Unix.waitpid [ Unix.WNOHANG ] p.pid with
        | 0, _ when Util.now () < deadline -> Unix.sleepf 0.01; go ()
        | 0, _ ->
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] p.pid)
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      go ()
    in
    ask t.router;
    reap t.router;
    List.iter ask t.replicas;
    List.iter reap t.replicas
  end
