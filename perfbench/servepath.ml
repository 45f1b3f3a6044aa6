(* The serve path: routed requests through a two-replica fleet, from
   the moment each request was due to the last byte of its answer.

   The store holds a few distinct models produced during setup by the
   same fit and Krylov code the other paths run, cloned under [ids]
   ids so the replicas' 1 MiB LRU holds only part of the working set.
   Model popularity is Zipf-skewed over a fixed ranking of the ids.
   Three request classes arrive open-loop at fixed rates, each phase
   offering a fixed number of requests at seeded times:

   - bin:   eval-grid over binary frames, 16..64-point grids, any model;
   - json:  eval-grid as JSON text, 256-point grids, 4- and 8-port
            models in a fixed 2:1 rotation;
   - write: a 2-port fit-* session (open, three sample batches,
            finalize into the store) on one connection.

   The traffic mix is synthetic: nothing in the repository records how
   real clients use the fleet.  Each constant below is there to exercise
   one property, named where it is defined.

   The generator is this one process with two connections, multiplexed
   by one thread: binary frames carry the bin class, JSON lines the
   json and write classes.  A request that finds its connection busy
   waits in the generator; that wait is part of its latency and is
   reported as generator lateness. *)

open Mfti
module J = Serve.Sjson
module S = Statespace.Sampling

(* ------------------------------------------------------------------ *)
(* Store: produced in setup *)

type model = { id : string; content : int; ports : int }

type store = {
  dir : string;
  models : model array;                      (* served ids *)
  contents : (string * Serve.Artifact.t) array;  (* distinct models *)
}

let ids = 48
let f_lo = 1e6
let f_hi = 3e9

let save_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let produced_ok = function
  | Ok m -> m
  | Error e -> Util.fail "store model: %s" (Linalg.Mfti_error.to_string e)

(* The distinct models, from fixed inputs so every run serves the same
   store.  Certification runs in check mode: the store must always
   come out whole, and the replicas' default admission policy serves
   a model whose certificate records a lapse. *)
let distinct_models () =
  let check = { Engine.default_options with certify = Certify.Check } in
  let fit ports points seed =
    let spec = Fitpath.pdn_spec ~seed ~ports in
    let samples =
      Dataset.of_samples
        (Rf.Pdn.scattering spec ~z0:50. (S.logspace f_lo f_hi points))
      |> Dataset.trim_even
    in
    Engine.Model.of_fit (produced_ok (Engine.run ~options:check samples))
  in
  let krylov ports side order seed =
    let spec =
      { Rf.Pdn.default_spec with
        nx = side; ny = side; ports; decaps = 2; plane_rl = true; seed }
    in
    let g, c, b, l = Rf.Mna.sparse_system (Rf.Pdn.build spec) in
    let red =
      produced_ok
        (Krylov.reduce
           ~options:{ Krylovpath.options with max_order = order }
           { Krylov.g; c; b; l })
    in
    produced_ok
      (Engine.Model.certify
         ~options:{ Certify.default_options with mode = Certify.Check }
         ~freqs:(S.logspace f_lo f_hi 64) red.Krylov.model)
  in
  [| ("fit2", fit 2 40 1); ("fit4", fit 4 40 2); ("krylov4", krylov 4 12 32 3);
     ("krylov8", krylov 8 10 48 4) |]

(* Ids "m00".."m47" cycle through this content pattern (indices into
   [distinct_models]): the 8-port model, the largest, takes the most
   ids, so each replica's shard of the store outgrows its cache and the
   bin tail includes cold loads; the direct-LU 2-port fit takes the
   fewest, so its slow evaluations stay a minority of bin answers. *)
let pattern = [| 3; 2; 3; 1; 3; 0; 3; 2; 3; 1; 2; 0 |]

let produce ~dir =
  Util.mkdir_p dir;
  let contents =
    Array.map
      (fun (name, m) -> (name, Serve.Artifact.v ~name ~created:0. m))
      (distinct_models ())
  in
  let bytes = Array.map (fun (_, a) -> Serve.Artifact.to_string a) contents in
  let models =
    Array.init ids (fun i ->
        let content = pattern.(i mod Array.length pattern) in
        let id = Printf.sprintf "m%02d" i in
        save_bytes (Filename.concat dir (id ^ ".mfti")) bytes.(content);
        let m = (snd contents.(content)).Serve.Artifact.model in
        { id; content; ports = Engine.Model.outputs m })
  in
  { dir; models; contents }

(* ------------------------------------------------------------------ *)
(* Traffic *)

type cls = Bin | Json | Write

let cls_name = function Bin -> "bin" | Json -> "json" | Write -> "write"

(* Fixed rates, in bin requests per second.  Latencies are reported at
   the base rate, 30/s, which runs longest and leaves the fleet
   headroom.  After it, in traced runs, comes the ladder for
   serve.max_rps: steps of [step_s] each, 25% apart, up past the
   fleet's capacity (60-95 bin answers per second on a 2-CPU box in
   this mix, where a bin request on the direct-LU 2-port fit costs
   10-20 ms).  The ladder stops after two failing steps in a row.  Last
   comes one overload phase of [over_s] at 400/s of bin requests alone.
   Its answer rate is the capacity of the fleet's binary path, and the
   fleet's CPU time over it per request is that path's cost.  The rates
   swing from run to run: a ladder step of one second passes or fails
   on how the json and write requests and the cache misses happen to
   fall in it, and the overload phase's answer rate swung up to 2x
   between runs of one seed (three bursts in one run swung together).
   The CPU time per request does not wait on the scheduler of a box
   that runs three server processes and the generator on two CPUs. *)
let ladder = Array.init 5 (fun k -> 52.9 *. (1.25 ** float_of_int k))
let rates = Array.concat [ [| 30. |]; ladder; [| 400. |] ]
let base = 0
let overload = Array.length rates - 1
let step_s = 1.
let over_s = 1.

(* json and write arrive at fixed shares of the bin rate: enough json
   requests at the base rate for a p90 (2.4 per second there), and
   enough sessions that writes overlap reads on the replicas without
   taking most of their time. *)
let json_share = 0.08
let write_share = 0.05

(* bin p99 limit for serve.max_rps, and the growth in generator
   lateness over a phase that counts as a growing backlog *)
let limit_ms = 500.
let backlog_ms = 100.

type req = {
  cls : cls;
  phase : int;
  due : float;        (* seconds after the phase start *)
  model : int;        (* index into store.models; write: sequence number *)
  grid : int;         (* index into the class's grid pool *)
}

type res = {
  r : req;
  line : string;                (* bin/json: the request, built before the phase *)
  mutable spooled : int * int;  (* bin/json: raw answer's offset and length
                                   in the phase's spool file *)
  mutable sent : float;
  mutable finished : float;
  mutable outcome : Util.outcome;
  mutable digest : string;      (* of the returned matrices *)
  mutable written : string;     (* write: the finalized model id *)
}

type plan = {
  phases : float array;                 (* duration of each phase, s *)
  bin_grids : float array array;
  json_grids : float array array;
  reqs : req array;                     (* every request, by phase and due *)
  write_specs : Rf.Pdn.spec array;
}

let write_points = 24
let write_batches = 3

let grid rng n =
  let lo = log10 f_lo and hi = log10 f_hi in
  let xs = Array.init n (fun _ -> lo +. Random.State.float rng (hi -. lo)) in
  Array.sort compare xs;
  Array.map (fun x -> 10. ** x) xs

(* [rate * dur] arrival times drawn uniformly over [0, dur) and sorted:
   a Poisson process conditioned on its count, so every run of a phase
   offers the same number of requests. *)
let arrivals rng ~rate ~dur =
  let n = int_of_float (Float.round (rate *. dur)) in
  List.sort compare (List.init n (fun _ -> Random.State.float rng dur))

let zipf_cdf n s =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let pick cdf u =
  let n = Array.length cdf in
  let rec go k = if k >= n - 1 || u <= cdf.(k) then k else go (k + 1) in
  go 0

(* [base_s] is the duration of the base rate, in seconds. *)
let make_plan ~seed ~(store : store) ~base_s =
  let phases =
    Array.concat
      [ [| base_s |]; Array.make (Array.length ladder) step_s; [| over_s |] ]
  in
  (* Popularity is part of the workload, not of the seed: id [k] is the
     [k]-th most popular, so [pattern] fixes each model's share of bin
     traffic (8-port ROM 56%, 4-port ROM 23%, 4-port fit 12%, direct-LU
     2-port fit 9%).  A seed-drawn ranking would swing the miss rate and
     the share of slow direct-LU answers from run to run.  The seed
     draws the requests.  The exponent 1.1 makes the hot set (the
     twelve ids warmed in set-up) take about three quarters of bin traffic,
     so most requests hit the replicas' caches and the rest miss. *)
  let rng = Random.State.make [| seed; 7 |] in
  let cdf = zipf_cdf ids 1.1 in
  (* grid sizes are fixed (16..64 points); the seed draws the points *)
  let bin_grids = Array.init 8 (fun k -> grid rng (16 + (48 * k / 7))) in
  let json_grids = Array.init 2 (fun _ -> grid rng 256) in
  let by_ports p =
    Array.to_list (Array.mapi (fun i m -> (i, m.ports)) store.models)
    |> List.filter_map (fun (i, q) -> if q = p then Some i else None)
    |> Array.of_list
  in
  let json4 = by_ports 4 and json8 = by_ports 8 in
  let writes = ref 0 and jsons = ref 0 in
  let reqs =
    List.concat
      (List.init (Array.length rates) (fun phase ->
           let rate = rates.(phase) and dur = phases.(phase) in
           let bin =
             List.map
               (fun due ->
                 { cls = Bin; phase; due;
                   model = pick cdf (Random.State.float rng 1.);
                   grid = Random.State.int rng (Array.length bin_grids) })
               (arrivals rng ~rate ~dur)
           in
           let json =
             List.map
               (fun due ->
                 let k = !jsons in
                 incr jsons;
                 let pool = if k mod 3 = 2 then json8 else json4 in
                 { cls = Json; phase; due;
                   model = pool.(Random.State.int rng (Array.length pool));
                   grid = k mod Array.length json_grids })
               (arrivals rng ~rate:(if phase = overload then 0. else rate *. json_share) ~dur)
           in
           let write =
             List.map
               (fun due ->
                 let k = !writes in
                 incr writes;
                 { cls = Write; phase; due; model = k; grid = 0 })
               (arrivals rng ~rate:(if phase = overload then 0. else rate *. write_share) ~dur)
           in
           List.sort (fun a b -> compare a.due b.due) (bin @ json @ write)))
    |> Array.of_list
  in
  let write_specs =
    Array.init !writes (fun k ->
        Fitpath.pdn_spec ~seed:((seed * 1009) + k) ~ports:2)
  in
  { phases; bin_grids; json_grids; reqs; write_specs }

(* ------------------------------------------------------------------ *)
(* Wire formats *)

let num x = Printf.sprintf "%.17g" x

let eval_line id freqs =
  Printf.sprintf {|{"op":"eval-grid","model":"%s","freqs":[%s]}|} id
    (String.concat "," (Array.to_list (Array.map num freqs)))

let digest_grid (g : Linalg.Cmat.t array) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun m ->
      let p, q = Linalg.Cmat.dims m in
      Buffer.add_string b (Printf.sprintf "%dx%d;" p q);
      for i = 0 to p - 1 do
        for j = 0 to q - 1 do
          let z = Linalg.Cmat.get m i j in
          Buffer.add_int64_le b (Int64.bits_of_float z.Linalg.Cx.re);
          Buffer.add_int64_le b (Int64.bits_of_float z.Linalg.Cx.im)
        done
      done)
    g;
  Digest.string (Buffer.contents b)

(* The ["results"] array of a JSON eval-grid answer, back to matrices. *)
let grid_of_results = function
  | J.Arr mats ->
    Array.of_list
      (List.map
         (function
           | J.Arr rows ->
             let rows = Array.of_list rows in
             let cols r = match r with J.Arr c -> Array.of_list c | _ -> [||] in
             let p = Array.length rows in
             let q = if p = 0 then 0 else Array.length (cols rows.(0)) in
             Linalg.Cmat.init p q (fun i j ->
                 match (cols rows.(i)).(j) with
                 | J.Arr [ J.Num re; J.Num im ] -> { Linalg.Cx.re; im }
                 | _ -> failwith "results entry is not a [re, im] pair")
           | _ -> failwith "results matrix is not an array")
         mats)
  | _ -> failwith "results is not an array"

let error_kind text =
  match J.member "error" (J.parse text) with
  | Some e ->
    (match J.member "kind" e with Some (J.Str k) -> k | _ -> "error")
  | None -> "error"
  | exception J.Parse_error _ -> "unparseable"

let is_ok text =
  match J.member "ok" (J.parse text) with
  | Some (J.Bool true) -> true
  | _ -> false
  | exception J.Parse_error _ -> false

let sample_json (s : S.sample) =
  let p, q = Linalg.Cmat.dims s.S.s in
  let row i =
    "[" ^ String.concat ","
      (List.init q (fun j ->
           let z = Linalg.Cmat.get s.S.s i j in
           Printf.sprintf "[%s,%s]" (num z.Linalg.Cx.re) (num z.Linalg.Cx.im)))
    ^ "]"
  in
  Printf.sprintf {|{"freq":%s,"s":[%s]}|} (num s.S.freq)
    (String.concat "," (List.init p row))

let write_samples spec =
  Rf.Pdn.scattering spec ~z0:50. (S.logspace f_lo f_hi write_points)

let write_id ~seed k = Printf.sprintf "w%d-%d" seed k

(* The sample batches of write [k], as JSON arrays. *)
let write_batches_json (plan : plan) k =
  let samples = write_samples plan.write_specs.(k) in
  let per = Array.length samples / write_batches in
  List.init write_batches (fun b ->
      String.concat ","
        (Array.to_list (Array.map sample_json (Array.sub samples (b * per) per))))

(* One fit session after its open, on a JSON connection: the sample
   batches, then the finalize into the store under [id]. *)
let session_lines ~id batches sid =
  List.map
    (fun b ->
      Printf.sprintf {|{"op":"fit-add-samples","session":"%s","samples":[%s]}|} sid b)
    batches
  @ [ Printf.sprintf {|{"op":"fit-finalize","session":"%s","model":"%s"}|} sid id ]

let open_line = {|{"op":"fit-open","ports":2,"certify":"check"}|}

(* ------------------------------------------------------------------ *)
(* The open loop: one thread multiplexes both connections with select,
   so no answer waits on this process's runtime lock while another is
   read.  Each connection carries one request at a time, in due order;
   a request due while its connection is busy waits in the generator,
   and that wait is part of its latency. *)

(* What a lane's in-flight request waits for: an eval-grid answer, the
   fit-open reply, or the reply to a session op with [rest] still to
   send after it (the last being the finalize). *)
type step = Answer | Opened | Session of string list

type lane = {
  conn : Fleet.conn;
  mutable queue : res list;             (* not yet sent, by due time *)
  mutable busy : (res * step) option;
}

(* Give up on a phase this long after its last request was due. *)
let grace = 60.

let phase_loop ~seed ~batches ~spool ~t0 lanes =
  let finish (res : res) outcome =
    res.finished <- Util.now ();
    res.outcome <- outcome
  in
  let start lane (res : res) =
    res.sent <- Util.now ();
    match res.r.cls with
    | Bin | Json ->
      Fleet.send lane.conn res.line;
      lane.busy <- Some (res, Answer)
    | Write ->
      Fleet.send lane.conn open_line;
      lane.busy <- Some (res, Opened)
  in
  (* one reply arrived for the lane's request *)
  let advance lane (res : res) step payload =
    let text = match payload with Serve.Frame.Json_text t -> t | Serve.Frame.Grid_body b -> b in
    let keep text =
      res.spooled <- (pos_out spool, String.length text);
      output_string spool text
    in
    let session_op line next = Fleet.send lane.conn line; lane.busy <- Some (res, next) in
    match step, payload with
    | Answer, Serve.Frame.Grid_body _ ->
      keep text; finish res Util.Done; lane.busy <- None
    | Answer, Serve.Frame.Json_text _ ->
      (* JSON answers are decoded after the phase; bin errors come as text *)
      keep text;
      finish res (if res.r.cls = Json then Util.Done else Util.Refused (error_kind text));
      lane.busy <- None
    | Opened, _ ->
      (match J.member "session" (J.parse text) with
       | Some (J.Str sid) ->
         (match session_lines ~id:(write_id ~seed res.r.model) batches.(res.r.model) sid with
          | line :: rest -> session_op line (Session rest)
          | [] -> assert false)
       | _ -> finish res (Util.Refused (error_kind text)); lane.busy <- None)
    | Session _, _ when not (is_ok text) ->
      finish res (Util.Refused (error_kind text));
      lane.busy <- None
    | Session (line :: rest), _ -> session_op line (Session rest)
    | Session [], _ ->
      res.written <- write_id ~seed res.r.model;
      finish res Util.Done;
      lane.busy <- None
  in
  let fail_lane lane e =
    let why = Util.Wrong ("transport: " ^ Printexc.to_string e) in
    Option.iter (fun (res, _) -> finish res why) lane.busy;
    List.iter (fun res -> res.sent <- Util.now (); finish res why) lane.queue;
    lane.busy <- None;
    lane.queue <- []
  in
  let last_due =
    List.fold_left
      (fun acc l -> List.fold_left (fun a (x : res) -> Float.max a x.r.due) acc l.queue)
      0. lanes
  in
  let give_up = t0 +. last_due +. grace in
  let rec loop () =
    let now = Util.now () in
    List.iter
      (fun lane ->
        match lane.busy, lane.queue with
        | None, res :: rest when t0 +. res.r.due <= now ->
          lane.queue <- rest;
          (try start lane res with e -> fail_lane lane e)
        | _ -> ())
      lanes;
    let busy = List.filter (fun l -> l.busy <> None) lanes in
    let waiting = List.filter (fun l -> l.busy = None && l.queue <> []) lanes in
    if busy = [] && waiting = [] then ()
    else if now > give_up then
      List.iter (fun l -> fail_lane l (Failure "no answer within the grace period")) lanes
    else begin
      let next_due =
        List.fold_left
          (fun acc l -> match l.queue with r :: _ -> Float.min acc (t0 +. r.r.due) | [] -> acc)
          infinity waiting
      in
      let timeout = Float.max 0. (Float.min 0.5 (next_due -. now)) in
      let ready, _, _ =
        try Unix.select (List.map (fun l -> l.conn.Fleet.fd) busy) [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun lane ->
          if List.mem lane.conn.Fleet.fd ready then
            try
              Fleet.fill lane.conn;
              let rec drain () =
                match lane.busy, Fleet.frame lane.conn with
                | Some (res, step), Some payload -> advance lane res step payload; drain ()
                | _ -> ()
              in
              drain ()
            with e -> fail_lane lane e)
        busy;
      loop ()
    end
  in
  loop ()

(* Set-up warm-up: the [warm] most popular ids answer one short grid
   through the router, so the replicas' caches hold the hot set and the
   router's upstream pools are live. *)
let warm = 12

let warm_up (store : store) (fleet : Fleet.t) =
  let conn = Fleet.connect fleet.router.port in
  Fun.protect ~finally:(fun () -> Fleet.close conn) @@ fun () ->
  Fleet.binary conn;
  let freqs = S.logspace f_lo f_hi 16 in
  Array.iter
    (fun i ->
      let m = store.models.(i) in
      Fleet.send conn (eval_line m.id freqs);
      match Fleet.recv conn with
      | Serve.Frame.Grid_body _ -> ()
      | Serve.Frame.Json_text t ->
        Util.fail "warm-up: %s answered %s" m.id (error_kind t))
    (Array.init warm Fun.id)

(* ------------------------------------------------------------------ *)
(* Stats snapshots, for the per-layer deltas around the base rate *)

type snap = { router : J.t; replicas : J.t list }

let snapshot (fleet : Fleet.t) =
  { router = Fleet.stats fleet.router.port;
    replicas = List.map (fun (p : Fleet.proc) -> Fleet.stats p.port) fleet.replicas }

let rec field path j =
  match path with
  | [] -> (match j with J.Num x -> x | _ -> 0.)
  | k :: rest -> (match J.member k j with Some v -> field rest v | None -> 0.)

let sum_replicas s path = Util.sum (List.map (field path) s.replicas)

(* ------------------------------------------------------------------ *)
(* Results *)

type phase_report = {
  phase : int;
  rate : float;
  sent : (cls * int * int * int) list;    (* class, sent, ok, failed *)
  bin_p99_ms : float;
  achieved_rps : float;                   (* bin answers per second *)
  lag_ms : float;                         (* median generator lateness *)
  lag_max_ms : float;
  backlog : bool;                         (* lateness grew over the phase *)
  fleet_cpu_s : float;                    (* router + replicas, user + system *)
}

type outcome = {
  plan : plan;
  results : res array;
  t0s : float array;                      (* phase start times *)
  reports : phase_report array;
  before : snap;
  after : snap;
  ops : Util.op list;
  wrong : int;
}

let phase_report ~cpu results t0s phase =
  let mine cls =
    Array.to_list results
    |> List.filter (fun (x : res) -> x.r.cls = cls && x.r.phase = phase)
  in
  let lat cls =
    mine cls
    |> List.filter (fun x -> x.outcome = Util.Done)
    |> List.map (fun x -> 1000. *. (x.finished -. (t0s.(phase) +. x.r.due)))
  in
  let bins = mine Bin in
  let lags = List.map (fun (x : res) -> 1000. *. (x.sent -. (t0s.(phase) +. x.r.due))) bins in
  let quarter k =
    let n = List.length lags in
    List.filteri (fun i _ -> i * 4 / max 1 n = k) lags
  in
  let backlog =
    Util.median (quarter 3) > Util.median (quarter 0) +. backlog_ms
  in
  let ok_bins = List.filter (fun x -> x.outcome = Util.Done) bins in
  let last =
    List.fold_left (fun acc x -> Float.max acc x.finished) t0s.(phase) ok_bins
  in
  let count cls =
    let xs = mine cls in
    let ok = List.length (List.filter (fun x -> x.outcome = Util.Done) xs) in
    (cls, List.length xs, ok, List.length xs - ok)
  in
  let failed_bins = List.length bins - List.length ok_bins in
  let p99 =
    (* a failed request misses the limit *)
    if failed_bins > 0 then infinity else Util.quantile 0.99 (lat Bin)
  in
  { phase;
    rate = rates.(phase);
    sent = [ count Bin; count Json; count Write ];
    bin_p99_ms = p99;
    achieved_rps = float_of_int (List.length ok_bins) /. (last -. t0s.(phase));
    lag_ms = Util.median lags;
    lag_max_ms = List.fold_left Float.max 0. lags;
    backlog;
    fleet_cpu_s = cpu }

let meets r = r.bin_p99_ms <= limit_ms && not r.backlog

(* bin answers per second at the highest rate that meets the limit *)
let max_rps reports =
  Array.fold_left
    (fun acc r -> if meets r then Float.max acc r.achieved_rps else acc)
    0. reports

(* The overload phase, the last one run: bin answers per second, and
   the fleet's CPU milliseconds per answer *)
let capacity_rps reports = reports.(Array.length reports - 1).achieved_rps

let cpu_ms_per_bin reports =
  let r = reports.(Array.length reports - 1) in
  let _, _, ok, _ = List.hd r.sent in
  1000. *. r.fleet_cpu_s /. float_of_int (max 1 ok)

(* Decode the raw answers a phase spooled to disk (keeping them in
   memory would make the generator, not the fleet, set peak memory). *)
let settle spool results =
  let ic = open_in_bin spool in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  List.iter
    (fun x ->
      if x.outcome = Util.Done && x.r.cls <> Write then begin
        let off, len = x.spooled in
        seek_in ic off;
        let text = really_input_string ic len in
        match x.r.cls with
        | Bin ->
          (match Serve.Frame.decode_grid_body text with
           | _, g -> x.digest <- digest_grid g
           | exception e -> x.outcome <- Util.Wrong ("grid body: " ^ Printexc.to_string e))
        | Json ->
          (match J.member "results" (J.parse text) with
           | Some r -> x.digest <- digest_grid (grid_of_results r)
           | None -> x.outcome <- Util.Refused (error_kind text)
           | exception e -> x.outcome <- Util.Wrong ("json answer: " ^ Printexc.to_string e))
        | Write -> ()
      end)
    results

(* Bit-identity of every answer against an in-process evaluation of the
   same artifact, and servability of every finalized session. *)
let verify (store : store) (plan : plan) (fleet : Fleet.t) results =
  let compiled = Hashtbl.create 8 in
  let compile_file path =
    match Hashtbl.find_opt compiled path with
    | Some c -> c
    | None ->
      let c =
        Serve.Compiled.of_model (Serve.Artifact.load_exn path).Serve.Artifact.model
      in
      Hashtbl.replace compiled path c;
      c
  in
  let expected = Hashtbl.create 64 in
  let expect cls content gi =
    let key = (cls, content, gi) in
    match Hashtbl.find_opt expected key with
    | Some d -> d
    | None ->
      let m =
        let rec first i = if store.models.(i).content = content then i else first (i + 1) in
        store.models.(first 0)
      in
      let freqs = (if cls = Bin then plan.bin_grids else plan.json_grids).(gi) in
      let c = compile_file (Filename.concat store.dir (m.id ^ ".mfti")) in
      let d = digest_grid (Serve.Compiled.eval_grid c freqs) in
      Hashtbl.replace expected key d;
      d
  in
  let probe = Fleet.connect fleet.router.port in
  Fun.protect ~finally:(fun () -> Fleet.close probe) @@ fun () ->
  Array.iter
    (fun x ->
      if x.outcome = Util.Done then
        match x.r.cls with
        | Bin | Json ->
          let content = store.models.(x.r.model).content in
          if x.digest <> expect x.r.cls content x.r.grid then
            x.outcome <- Util.Wrong "answer differs from in-process evaluation"
        | Write ->
          let id = x.written in
          let freqs = plan.bin_grids.(0) in
          let served =
            try
              let j = J.parse (Fleet.call probe (eval_line id freqs)) in
              Option.map (fun r -> digest_grid (grid_of_results r)) (J.member "results" j)
            with _ -> None
          in
          let direct =
            try
              Some
                (digest_grid
                   (Serve.Compiled.eval_grid
                      (compile_file (Filename.concat store.dir (id ^ ".mfti")))
                      freqs))
            with _ -> None
          in
          if served = None || served <> direct then
            x.outcome <- Util.Wrong "finalized session not servable")
    results

(* Which phases a run covers: all of them; all but the ladder, which
   feeds only the traced run's serve.max_rps; or the overload phase
   alone, on a fleet set up only to repeat that measurement. *)
type scope = All | No_ladder | Overload_only

let run ~scope ~seed ~(store : store) ~(plan : plan) ~(fleet : Fleet.t) ~work =
  let first = if scope = Overload_only then overload else base in
  let results =
    Array.map
      (fun r ->
        let line =
          match r.cls with
          | Bin -> eval_line store.models.(r.model).id plan.bin_grids.(r.grid)
          | Json -> eval_line store.models.(r.model).id plan.json_grids.(r.grid)
          | Write -> ""
        in
        { r; line; spooled = (0, 0); sent = nan; finished = nan; outcome = Util.Done;
          digest = ""; written = "" })
      plan.reqs
  in
  let batches =
    Array.init (Array.length plan.write_specs) (write_batches_json plan)
  in
  let t0s = Array.make (Array.length rates) 0. in
  let before = ref None and after = ref None in
  let run_phase phase =
    let cpu = ref 0. in
    if phase = first then before := Some (snapshot fleet);
    (* fresh connections per phase: none sits idle while the other
       connection finishes the previous phase *)
    let bin_conn = Fleet.connect fleet.router.port in
    let json_conn = Fleet.connect fleet.router.port in
    Fun.protect
      ~finally:(fun () -> Fleet.close bin_conn; Fleet.close json_conn)
      (fun () ->
        Fleet.binary bin_conn;
        let mine bin =
          Array.to_list results
          |> List.filter (fun x -> x.r.phase = phase && (x.r.cls = Bin) = bin)
        in
        let path = Filename.concat work (Printf.sprintf "phase%d.spool" phase) in
        let spool = open_out_bin path in
        let t0 = Util.now () +. 0.05 in
        t0s.(phase) <- t0;
        let cpu0 = Fleet.cpu_seconds fleet in
        Fun.protect ~finally:(fun () -> close_out spool) (fun () ->
            phase_loop ~seed ~batches ~spool ~t0
              [ { conn = bin_conn; queue = mine true; busy = None };
                { conn = json_conn; queue = mine false; busy = None } ]);
        cpu := Fleet.cpu_seconds fleet -. cpu0;
        settle path (mine true @ mine false);
        Sys.remove path);
    if phase = first then after := Some (snapshot fleet);
    phase_report ~cpu:!cpu results t0s phase
  in
  (* the ladder up to its second failing step in a row, then overload *)
  let rec phases phase misses acc =
    if phase = overload || misses = 2 then List.rev (run_phase overload :: acc)
    else
      let r = run_phase phase in
      let misses = if phase > base && not (meets r) then misses + 1 else 0 in
      phases (phase + 1) misses (r :: acc)
  in
  let reports =
    Array.of_list
      (match scope with
       | All -> phases 0 0 []
       | No_ladder -> let b = run_phase base in [ b; run_phase overload ]
       | Overload_only -> [ run_phase overload ])
  in
  let ran = Array.map (fun r -> r.phase) reports in
  let results =
    Array.of_list
      (List.filter (fun x -> Array.mem x.r.phase ran) (Array.to_list results))
  in
  verify store plan fleet results;
  let ops =
    Array.to_list results
    |> List.map (fun x ->
        { Util.path = cls_name x.r.cls;
          label =
            (match x.r.cls with
             | Write -> write_id ~seed x.r.model
             | Bin | Json -> store.models.(x.r.model).id);
          outcome = x.outcome; fallbacks = []; mode = "";
          seconds = x.finished -. x.sent })
  in
  let wrong =
    List.length (List.filter (fun o -> match o.Util.outcome with Util.Wrong _ -> true | _ -> false) ops)
  in
  { plan; results; t0s; reports; before = Option.get !before; after = Option.get !after;
    ops; wrong }

(* Latencies (ms) of one class's answered requests in one phase, from
   when each was due to its last byte. *)
let latencies (o : outcome) cls phase =
  Array.to_list o.results
  |> List.filter (fun x -> x.r.cls = cls && x.r.phase = phase && x.outcome = Util.Done)
  |> List.map (fun x -> 1000. *. (x.finished -. (o.t0s.(phase) +. x.r.due)))
