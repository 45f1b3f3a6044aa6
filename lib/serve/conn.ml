open Linalg

(* The one place the serving tier touches sockets.  See conn.mli for
   the rules; the comments here give the reasons. *)

type addr = Unix_path of string | Tcp of string * int

let invalid message =
  Mfti_error.raise_error (Mfti_error.Validation { context = "serve"; message })

let now () = Unix.gettimeofday ()

(* Ticked select so loops notice [stopping] and forced shutdowns
   promptly; the tick is coarse enough to stay off the profile. *)
let tick = 0.05

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let parse_addr s =
  let bad () =
    invalid
      (Printf.sprintf "malformed address %S (want host:port or a socket path)"
         s)
  in
  if s = "" then bad ();
  if String.contains s '/' || not (String.contains s ':') then Unix_path s
  else
    let i = String.rindex s ':' in
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 && host <> "" -> Tcp (host, p)
    | _ -> bad ()

let resolve host =
  match Unix.inet_addr_of_string host with
  | a -> Some a
  | exception Failure _ ->
    (match Unix.gethostbyname host with
     | { Unix.h_addr_list = [||]; _ } -> None
     | h -> Some h.Unix.h_addr_list.(0)
     | exception Not_found -> None)

(* ------------------------------------------------------------------ *)
(* Listening *)

(* A pre-existing Unix path is probed with [connect]: a successful
   connect means someone is serving there (typed error); a refused
   connect means a stale file from a dead process, safe to remove.
   Blindly unlinking would delete a live server's socket. *)
let claim_unix_path path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    close probe;
    if live then invalid ("socket path " ^ path ^ " already has a live server")
    else (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> invalid ("socket path " ^ path ^ " exists and is not a socket")

let listen addr =
  let domain, sockaddr =
    match addr with
    | Unix_path path ->
      claim_unix_path path;
      (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      if port < 0 || port > 0xffff then
        invalid (Printf.sprintf "tcp port %d out of range" port);
      (match resolve host with
       | None -> invalid ("cannot resolve host " ^ host)
       | Some ip -> (Unix.PF_INET, Unix.ADDR_INET (ip, port)))
  in
  (* a client closing mid-response must surface as EPIPE, not kill the
     process with SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  match
    (* SO_REUSEADDR lets a restarted replica rebind at once: rejoin
       must not wait out TIME_WAIT *)
    if domain = Unix.PF_INET then Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock sockaddr;
    Unix.listen sock 64;
    Unix.getsockname sock
  with
  | Unix.ADDR_INET (_, p) -> (sock, Some p)
  | Unix.ADDR_UNIX _ -> (sock, None)
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
    close sock;
    (match addr with
     | Tcp (host, port) ->
       invalid (Printf.sprintf "tcp address %s:%d already in use" host port)
     | Unix_path path -> invalid ("socket path " ^ path ^ " is in use"))
  | exception e ->
    close sock;
    raise e

let close_listener addr fd =
  close fd;
  match addr with
  | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* ------------------------------------------------------------------ *)
(* Connecting *)

let connect ~timeout_s addr =
  let failed fd e =
    close fd;
    Error (Unix.error_message e)
  in
  match addr with
  | Unix_path p ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX p) with
     | () -> Ok fd
     | exception Unix.Unix_error (e, _, _) -> failed fd e)
  | Tcp (host, port) ->
    (match resolve host with
     | None -> Error ("cannot resolve host " ^ host)
     | Some ip ->
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (* request/response protocol: Nagle would add 40 ms stalls *)
       (try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ());
       Unix.set_nonblock fd;
       let connected () =
         Unix.clear_nonblock fd;
         Ok fd
       in
       (match Unix.connect fd (Unix.ADDR_INET (ip, port)) with
        | () -> connected ()
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
          (match Unix.select [] [ fd ] [] timeout_s with
           | _, _ :: _, _ ->
             (match Unix.getsockopt_error fd with
              | None -> connected ()
              | Some e -> failed fd e)
           | _ ->
             close fd;
             Error "connect timed out"
           | exception Unix.Unix_error (e, _, _) -> failed fd e)
        | exception Unix.Unix_error (e, _, _) -> failed fd e))

let backoff_ms ~base_ms ~cap_ms attempt =
  Stdlib.min cap_ms (base_ms * (1 lsl Stdlib.min attempt 16))

(* ------------------------------------------------------------------ *)
(* Writing *)

let retryable = function
  | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK -> true
  | _ -> false

let write_all fd s ~deadline =
  let len = String.length s in
  let rec go off =
    if off >= len then `Ok
    else
      let t = now () in
      if t >= deadline then `Timeout
      else
        match Unix.select [] [ fd ] [] (Float.min tick (deadline -. t)) with
        | _, [], _ -> go off
        | _ ->
          (match Unix.write_substring fd s off (len - off) with
           | k -> go (off + k)
           | exception Unix.Unix_error (e, _, _) when retryable e -> go off
           | exception Unix.Unix_error _ -> `Closed)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Reading *)

type reader = { fd : Unix.file_descr; buf : Frame.Reader.t; chunk : bytes }

let reader fd = { fd; buf = Frame.Reader.create (); chunk = Bytes.create 65536 }
let fd r = r.fd

type frame =
  [ `Frame of Frame.payload
  | `Timeout_idle
  | `Timeout_partial
  | `Eof
  | `Too_long
  | `Bad of string
  | `Stopped ]

(* The partial-frame budget keeps a slow client from holding a worker
   or thread for the whole idle window. *)
let read_frame ?(stopping = fun () -> false) r ~mode ~max_bytes ~idle_until
    ~partial_s : frame =
  let frame_deadline = ref None in
  let rec go () =
    match Frame.Reader.next r.buf ~mode ~max_bytes with
    | `Frame p -> `Frame p
    | `Too_long -> `Too_long
    | `Bad m -> `Bad m
    | `None ->
      let partial = Frame.Reader.pending r.buf > 0 in
      if partial && !frame_deadline = None then
        frame_deadline := Some (now () +. partial_s);
      if partial && Fault.armed "serve.slow_client" then `Timeout_partial
      else begin
        let deadline =
          match !frame_deadline with
          | Some d -> Float.min d idle_until
          | None -> idle_until
        in
        let t = now () in
        if t >= deadline then
          if partial then `Timeout_partial else `Timeout_idle
        else if (not partial) && stopping () then `Stopped
        else
          match Unix.select [ r.fd ] [] [] (Float.min tick (deadline -. t)) with
          | [], _, _ -> go ()
          | _ ->
            (match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
             | 0 ->
               (* a truncated binary frame at EOF is just EOF: its
                  length prefix promised bytes that never came *)
               if partial && mode = Frame.Json then
                 `Frame (Frame.Json_text (Frame.Reader.take_rest r.buf))
               else `Eof
             | k ->
               Frame.Reader.add r.buf r.chunk k;
               go ()
             | exception Unix.Unix_error (e, _, _) when retryable e -> go ()
             | exception Unix.Unix_error _ -> `Eof)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      end
  in
  go ()

let stale r =
  Frame.Reader.pending r.buf > 0
  ||
  match Unix.select [ r.fd ] [] [] 0. with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* ------------------------------------------------------------------ *)
(* Serving one connection *)

let reply_bytes ~mode (reply : Server.reply) =
  match (mode, reply) with
  | Frame.Json, Server.Text s -> s ^ "\n"
  | Frame.Binary, Server.Text s -> Frame.encode_json s
  | Frame.Binary, Server.Grid body -> Frame.encode_grid body
  | Frame.Json, Server.Grid _ ->
    invalid_arg "Conn.reply_bytes: grid reply on a JSON-lines connection"

type event = Idle_timeout | Frame_timeout | Write_timeout | Dropped

let error_text ?op kind message =
  Server.Text (Sjson.to_string (Server.protocol_error ?op ~kind ~message ()))

let serve ?(on_event = ignore) ~stopping ~request_timeout_ms ~idle_timeout_ms
    ~max_line_bytes fd handle =
  let r = reader fd in
  let request_s = float_of_int request_timeout_ms /. 1000. in
  let idle_s = float_of_int idle_timeout_ms /. 1000. in
  let rec loop mode =
    let send reply =
      match
        write_all fd (reply_bytes ~mode reply) ~deadline:(now () +. request_s)
      with
      | `Ok -> true
      | `Closed -> on_event Dropped; false
      | `Timeout -> on_event Write_timeout; false
    in
    (* a typed refusal that ends the connection *)
    let refuse kind message =
      ignore (send (error_text kind message));
      `Done
    in
    match
      read_frame ~stopping r ~mode ~max_bytes:max_line_bytes
        ~idle_until:(now () +. idle_s) ~partial_s:request_s
    with
    | `Eof | `Stopped -> `Done
    | `Timeout_idle ->
      (* an idle keep-alive expiry is not an error *)
      on_event Idle_timeout;
      `Done
    | `Timeout_partial ->
      on_event Frame_timeout;
      refuse "timeout"
        (Printf.sprintf "request frame deadline exceeded (%d ms)"
           request_timeout_ms)
    | `Too_long ->
      refuse "validation"
        (Printf.sprintf "request frame exceeds the %d-byte cap" max_line_bytes)
    | `Bad m -> refuse "parse" ("malformed frame: " ^ m)
    | `Frame (Frame.Grid_body _) ->
      refuse "parse" "malformed frame: grid frames are response-only"
    | `Frame (Frame.Json_text "") -> loop mode  (* blank keep-alive line *)
    | `Frame (Frame.Json_text line) ->
      (match Frame.is_hello line with
       | Some frames ->
         (* negotiation is transport-level: ack in the old mode, then
            switch; an unknown value is a typed refusal and the mode
            stays put *)
         let reply, next =
           match frames with
           | "binary" -> (Server.Text (Frame.hello_ack "binary"), Frame.Binary)
           | "json" -> (Server.Text (Frame.hello_ack "json"), Frame.Json)
           | other ->
             ( error_text ~op:"hello" "validation"
                 (Printf.sprintf
                    "unknown frames value %S (want \"json\" or \"binary\")"
                    other),
               mode )
         in
         if send reply then loop next else `Done
       | None ->
         let reply, stop = handle ~binary:(mode = Frame.Binary) line in
         if not (send reply) then `Done
         else if stop then `Stop
         else loop mode)
  in
  loop Frame.Json

(* ------------------------------------------------------------------ *)
(* Accepting *)

let accept_loop ?(on_restart = ignore) ~backoff_base_ms ~backoff_cap_ms
    ~stopping ~admit addr fd =
  let shed conn message =
    ignore
      (write_all conn
         (reply_bytes ~mode:Frame.Json (error_text "overloaded" message))
         ~deadline:(now () +. 1.0));
    close conn
  in
  let rec go () =
    if stopping () then ()
    else
      match Unix.select [ fd ] [] [] tick with
      | [], _, _ -> go ()
      | _ ->
        (match Unix.accept fd with
         | conn, _ ->
           (match addr with
            | Tcp _ ->
              (try Unix.setsockopt conn Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ())
            | Unix_path _ -> ());
           (match admit conn with
            | `Admitted -> ()
            | `Shed message -> shed conn message);
           go ()
         | exception Unix.Unix_error (e, _, _)
           when retryable e || e = Unix.ECONNABORTED ->
           go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  (* the listening socket is the one resource a server cannot lose:
     restart the loop if something unexpected escapes *)
  let rec supervise attempt =
    match go () with
    | () -> ()
    | exception _ ->
      on_restart ();
      if not (stopping ()) then begin
        Unix.sleepf
          (float_of_int
             (backoff_ms ~base_ms:backoff_base_ms ~cap_ms:backoff_cap_ms
                attempt)
           /. 1000.);
        supervise (attempt + 1)
      end
  in
  supervise 0;
  (* close as soon as accepting stops so new connects are refused
     during a drain, not parked in the backlog *)
  close_listener addr fd
