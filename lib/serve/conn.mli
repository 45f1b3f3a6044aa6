(** The connection core of the serving tier.

    Every socket the tier binds, accepts, connects, reads frames from
    or writes replies to goes through this module, so {!Supervisor},
    {!Router} and the CLI share one set of rules:

    - {b Reading}: an idle connection may wait until its idle
      deadline; once the first byte of a frame arrives the rest must
      land within the partial-frame budget.  EOF after an unterminated
      JSON line serves that line, the way [input_line] would; a
      truncated binary frame at EOF is just EOF.  A read error counts
      as EOF.
    - {b Writing}: [EINTR], [EAGAIN] and [EWOULDBLOCK] retry; every
      other write error (typically [EPIPE] or [ECONNRESET]: the peer
      went away) means the connection is closed.

    Fault site (see {!Linalg.Fault}): ["serve.slow_client"] makes
    {!read_frame} treat a partial frame as having blown its deadline. *)

type addr = Unix_path of string | Tcp of string * int

(** [parse_addr s] reads a listen or peer address: [host:port] (no
    [/]) is TCP, anything else a Unix socket path.  Raises
    {!Linalg.Mfti_error.Error} ([Validation]) on an empty string or a
    malformed port. *)
val parse_addr : string -> addr

(** [listen addr] binds and listens, returning the socket and, for TCP,
    the actual bound port ([Tcp (host, 0)] picks an ephemeral one).  A
    Unix path that is connectable (a live server owns it) is refused
    with a typed [Validation] error instead of being unlinked; a stale
    socket file is removed and rebound; a non-socket file is refused.
    A busy TCP address or unresolvable host is a typed [Validation]
    error.  SIGPIPE is set to ignore. *)
val listen : addr -> Unix.file_descr * int option

(** [close_listener addr fd] closes a listening socket and unlinks the
    Unix path it owns.  Never raises. *)
val close_listener : addr -> Unix.file_descr -> unit

(** Close a connection, ignoring errors. *)
val close : Unix.file_descr -> unit

(** [connect ~timeout_s addr] opens a stream to [addr] ([TCP_NODELAY]
    on TCP, where the connect is bounded by [timeout_s]).  [Error]
    carries a one-line reason. *)
val connect : timeout_s:float -> addr -> (Unix.file_descr, string) result

(** [backoff_ms ~base_ms ~cap_ms attempt] is [base_ms * 2^attempt]
    capped at [cap_ms] — the restart and retry delay schedule. *)
val backoff_ms : base_ms:int -> cap_ms:int -> int -> int

(** [write_all fd s ~deadline] writes all of [s] before the wall-clock
    [deadline] ([Unix.gettimeofday] seconds). *)
val write_all :
  Unix.file_descr -> string -> deadline:float -> [ `Ok | `Closed | `Timeout ]

(** A connection plus its receive buffer. *)
type reader

val reader : Unix.file_descr -> reader

val fd : reader -> Unix.file_descr

type frame =
  [ `Frame of Frame.payload
  | `Timeout_idle      (** nothing arrived before the idle deadline *)
  | `Timeout_partial   (** the peer stalled mid-frame *)
  | `Eof
  | `Too_long          (** the frame exceeds [max_bytes] *)
  | `Bad of string     (** malformed binary frame; the stream is lost *)
  | `Stopped ]         (** [stopping ()] held with nothing buffered *)

(** [read_frame r ~mode ~max_bytes ~idle_until ~partial_s] returns the
    next complete frame.  [idle_until] is an absolute deadline;
    [partial_s] starts counting when the first byte of a frame is
    buffered, and the earlier of the two applies.  [stopping] is polled
    between frames. *)
val read_frame :
  ?stopping:(unit -> bool) -> reader -> mode:Frame.mode -> max_bytes:int ->
  idle_until:float -> partial_s:float -> frame

(** [stale r] is true when a connection that should be idle has bytes
    or EOF waiting (a zero-timeout readability check): the peer closed
    it or sent something unasked, so it must not carry a request. *)
val stale : reader -> bool

(** Connection-level conditions {!serve} reports to its caller. *)
type event =
  | Idle_timeout   (** keep-alive expired; closed silently *)
  | Frame_timeout  (** partial frame stalled; typed ["timeout"] sent *)
  | Write_timeout  (** the peer stopped reading a reply *)
  | Dropped        (** the peer vanished mid-reply *)

(** [serve fd handle] runs one connection until it ends: reads frames
    under the idle ([idle_timeout_ms]) and partial-frame
    ([request_timeout_ms]) deadlines, skips blank keep-alive lines,
    negotiates [hello] (see {!Frame}), answers a stalled, over-cap or
    malformed frame with a typed ["timeout"], ["validation"] or
    ["parse"] reply and closes, and passes every other request line to
    [handle ~binary line], writing the reply it returns within
    [request_timeout_ms].  [on_event] is called before the matching
    reply is written.  Returns [`Stop] when [handle] asked to stop and
    its reply was written, [`Done] otherwise.  The caller closes
    [fd]. *)
val serve :
  ?on_event:(event -> unit) -> stopping:(unit -> bool) ->
  request_timeout_ms:int -> idle_timeout_ms:int -> max_line_bytes:int ->
  Unix.file_descr -> (binary:bool -> string -> Server.reply * bool) ->
  [ `Stop | `Done ]

(** [accept_loop addr fd ~stopping ~admit] accepts on the listening
    socket [fd] until [stopping ()], then closes it with
    {!close_listener}.  Each connection goes to [admit]; on
    [`Shed message] it gets a typed ["overloaded"] reply carrying
    [message] and is closed.  An exception escaping the loop calls
    [on_restart] and restarts it after {!backoff_ms}. *)
val accept_loop :
  ?on_restart:(unit -> unit) -> backoff_base_ms:int -> backoff_cap_ms:int ->
  stopping:(unit -> bool) ->
  admit:(Unix.file_descr -> [ `Admitted | `Shed of string ]) ->
  addr -> Unix.file_descr -> unit
