(* Per-layer metrics, reported by the traced run.  Spans come from the
   traced passes (Trace); the probes below call each layer's public
   functions on this run's own inputs, and the fleet's counters are
   deltas of the router's and replicas' [stats] around the base rate.
   Each metric is paired in README.md with the end-to-end metric it
   should move. *)

open Mfti
module J = Serve.Sjson

let median_time ?(n = 5) f =
  Util.median (List.init n (fun _ -> snd (Util.time f)))

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let site_total ops prefix =
  List.fold_left
    (fun acc o ->
      acc
      + List.fold_left
          (fun a (site, n) -> if has_prefix prefix site then a + n else a)
          0 o.Util.fallbacks)
    0 ops

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* Computed, not measured: two complex SVDs of the 2k x k stacked
   pencil, 4 (4 m n^2 + 8 n^3) real flop each (the Golub-Kahan count,
   x4 for complex arithmetic). *)
let svd_gflop k =
  let m = float_of_int (2 * k) and n = float_of_int k in
  2. *. 4. *. ((4. *. m *. n *. n) +. (8. *. n *. n *. n)) /. 1e9

(* Accounting: span self-times below [root] against the untraced wall
   time of the same work. *)
let account p ~root ~untraced =
  let selves = Trace.self_times root in
  let inner = List.filter (fun (n, _) -> n <> root) selves in
  let covered = Util.sum (List.map snd inner) in
  List.iter (fun (n, v) -> Printf.printf "  self %-22s %9.4f s\n" n v) selves;
  let rest = untraced -. covered in
  Printf.printf
    "  %s: spans cover %.4f s of the untraced %.4f s; remainder %.4f s (%.1f%%)\n"
    root covered untraced rest (100. *. rest /. untraced);
  p (root ^ "_unaccounted_pct") "%" (100. *. rest /. untraced)

let sparse_probes p (netlists : Krylovpath.item list) =
  let rl =
    List.filter (fun it -> it.Krylovpath.rl) netlists
    |> List.sort (fun a b -> compare b.Krylovpath.spec.Rf.Pdn.nx a.Krylovpath.spec.Rf.Pdn.nx)
    |> List.hd
  in
  let g, c, b, _ = Rf.Mna.sparse_system (Rf.Netlist.load_exn rl.Krylovpath.file) in
  let at f =
    Sparse.Scsr.scale_add ~alpha:Linalg.Cx.one g
      ~beta:{ Linalg.Cx.re = 0.; im = 2. *. Float.pi *. f } c
  in
  let pattern = Sparse.Scsr.scale_add ~alpha:Linalg.Cx.one g ~beta:Linalg.Cx.one c in
  let perm, dt =
    Util.time (fun () -> Trace.span "ordering.amd" (fun () -> Sparse.Ordering.amd pattern))
  in
  p "ordering.amd_s" "s" dt;
  let factor tag f =
    let a = at f in
    let fac, dt =
      Util.time (fun () ->
          Trace.span ("slu.factor_" ^ tag) (fun () ->
              Sparse.Slu.factorize_exn ~perm a))
    in
    p ("slu.factor_" ^ tag ^ "_s") "s" dt;
    p ("slu.fill_" ^ tag) "ratio"
      (float_of_int (Sparse.Slu.fill fac) /. float_of_int (Sparse.Scsr.nnz a));
    fac
  in
  let lo = factor "lo" Krylovpath.f_lo in
  ignore (factor "hi" Krylovpath.f_hi);
  let _, dt = Util.time (fun () -> Trace.span "slu.solve" (fun () -> Sparse.Slu.solve lo b)) in
  p "slu.solve_s" "s" dt;
  Printf.printf "  sparse probes on %s (%d states)\n" rl.Krylovpath.label
    (Sparse.Scsr.rows g)

(* Replay a sample of the served requests in-process, over a copy of
   the store, through the layers a replica runs. *)
let replay p ~seed ~(store : Servepath.store) ~(served : Servepath.outcome) ~work =
  let dir = Filename.concat work "replay" in
  Util.mkdir_p dir;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".mfti" then
        Servepath.save_bytes (Filename.concat dir f)
          (Util.read_file (Filename.concat store.Servepath.dir f)))
    (Sys.readdir store.Servepath.dir);
  let srv =
    Serve.Server.create ~cache_bytes:(Fleet.cache_mb * 1024 * 1024) ~recover:false
      ~root:dir ()
  in
  let plan = served.Servepath.plan in
  let sample cls n =
    Array.to_list served.Servepath.results
    |> List.filter (fun x -> x.Servepath.r.Servepath.cls = cls && x.r.phase = Servepath.base)
    |> List.filteri (fun i _ -> i < n)
  in
  let line (x : Servepath.res) =
    let grids =
      if x.r.cls = Servepath.Bin then plan.Servepath.bin_grids else plan.json_grids
    in
    Servepath.eval_line store.models.(x.r.model).Servepath.id grids.(x.r.grid)
  in
  let handle ~binary l =
    let (reply, _), dt =
      Util.time (fun () ->
          Trace.span "server.handle" (fun () -> Serve.Server.handle_request srv ~binary l))
    in
    (reply, dt)
  in
  let bin =
    List.map (fun x -> snd (handle ~binary:true (line x))) (sample Servepath.Bin 60)
  in
  p "server.handle_ms.bin" "ms" (1000. *. Util.median bin);
  (* json: the layers one JSON answer crosses, one by one *)
  let render = ref [] and parse = ref [] and rj = ref [] and dg = ref [] and json = ref [] in
  List.iter
    (fun x ->
      let l = line x in
      ignore (Trace.span "sjson.parse_request" (fun () -> J.parse l));
      match handle ~binary:true l with
      | Serve.Server.Grid body, _ ->
        let (meta, grid), t_dec =
          Util.time (fun () -> Trace.span "frame.decode_grid" (fun () ->
              Serve.Frame.decode_grid_body body))
        in
        let results, t_rj =
          Util.time (fun () -> Trace.span "frame.results_json" (fun () ->
              Serve.Frame.results_json grid))
        in
        let obj =
          match meta with
          | J.Obj fields -> J.Obj (fields @ [ ("results", results) ])
          | other -> other
        in
        let text, t_r =
          Util.time (fun () -> Trace.span "sjson.render" (fun () -> J.to_string obj))
        in
        let _, t_p = Util.time (fun () -> Trace.span "sjson.parse" (fun () -> J.parse text)) in
        let mb = float_of_int (String.length text) /. 1e6 in
        dg := t_dec :: !dg;
        rj := t_rj :: !rj;
        render := (1000. *. t_r /. mb) :: !render;
        parse := (1000. *. t_p /. mb) :: !parse;
        json := snd (handle ~binary:false l) :: !json
      | Serve.Server.Text t, _ -> Printf.printf "  replay json refused: %s\n" t)
    (sample Servepath.Json 6);
  p "server.handle_ms.json" "ms" (1000. *. Util.median !json);
  p "sjson.render_ms_per_mb" "ms/MB" (Util.median !render);
  p "sjson.parse_ms_per_mb" "ms/MB" (Util.median !parse);
  p "frame.results_json_ms" "ms" (1000. *. Util.median !rj);
  p "frame.decode_grid_ms" "ms" (1000. *. Util.median !dg);
  (* write: a whole session through the server, then through the
     engine's session layer directly *)
  let writes = sample Servepath.Write 2 in
  let write_ms =
    List.mapi
      (fun k (x : Servepath.res) ->
        let opened, t_open = handle ~binary:false Servepath.open_line in
        let sid =
          match opened with
          | Serve.Server.Text t ->
            (match J.member "session" (J.parse t) with Some (J.Str s) -> s | _ -> "")
          | Serve.Server.Grid _ -> ""
        in
        let lines =
          Servepath.session_lines
            ~id:(Servepath.write_id ~seed:(seed + 1_000_000) k)
            (Servepath.write_batches_json plan x.r.model) sid
        in
        1000. *. (t_open +. Util.sum (List.map (fun l -> snd (handle ~binary:false l)) lines)))
      writes
  in
  p "server.handle_ms.write" "ms" (Util.median write_ms);
  let appends = ref [] and refits = ref [] in
  List.iter
    (fun (x : Servepath.res) ->
      let samples = Servepath.write_samples plan.write_specs.(x.r.model) in
      let options = { Engine.default_options with certify = Certify.Repair } in
      match Engine.Session.open_ ~options ~inputs:2 ~outputs:2 () with
      | Error _ -> ()
      | Ok sess ->
        let per = Array.length samples / Servepath.write_batches in
        for b = 0 to Servepath.write_batches - 1 do
          let _, dt =
            Util.time (fun () -> Trace.span "session.append" (fun () ->
                Engine.Session.append sess (Array.sub samples (b * per) per)))
          in
          appends := dt :: !appends;
          let _, dt =
            Util.time (fun () -> Trace.span "session.refit" (fun () ->
                Engine.Session.refit sess))
          in
          refits := dt :: !refits
        done)
    writes;
  p "session.append_ms" "ms" (1000. *. Util.median !appends);
  p "session.refit_ms" "ms" (1000. *. Util.median !refits);
  Util.median bin

let store_probes p ~(store : Servepath.store) ~(served : Servepath.outcome) =
  let file content =
    let m =
      List.find (fun m -> m.Servepath.content = content) (Array.to_list store.models)
    in
    Filename.concat store.dir (m.Servepath.id ^ ".mfti")
  in
  let by_order =
    Array.to_list (Array.mapi (fun i (_, a) -> (i, a)) store.contents)
    |> List.sort (fun (_, a) (_, b) ->
        compare (Engine.Model.order a.Serve.Artifact.model)
          (Engine.Model.order b.Serve.Artifact.model))
  in
  let lo, lo_art = List.hd by_order and hi, hi_art = List.nth by_order (List.length by_order - 1) in
  p "artifact.load_ms" "ms"
    (1000. *. median_time (fun () ->
         Trace.span "artifact.load" (fun () -> Serve.Artifact.load_exn (file hi))));
  let compile (a : Serve.Artifact.t) =
    1000. *. median_time ~n:3 (fun () ->
        Trace.span "compiled.of_model" (fun () -> Serve.Compiled.of_model a.model))
  in
  p "compiled.compile_ms_lo" "ms" (compile lo_art);
  p "compiled.compile_ms_hi" "ms" (compile hi_art);
  Printf.printf "  compile probes: order %d (%s) and order %d (%s)\n"
    (Engine.Model.order lo_art.model) (fst store.contents.(lo))
    (Engine.Model.order hi_art.model) (fst store.contents.(hi));
  let freqs = served.Servepath.plan.Servepath.json_grids.(0) in
  let c = Serve.Compiled.of_model hi_art.model in
  let grid = Serve.Compiled.eval_grid c freqs in
  p "compiled.eval_us_per_point" "us"
    (1e6 *. median_time (fun () -> Serve.Compiled.eval_grid c freqs)
     /. float_of_int (Array.length freqs));
  p "frame.grid_body_ms" "ms"
    (1000. *. median_time (fun () ->
         Trace.span "frame.grid_body" (fun () ->
             Serve.Frame.grid_body ~meta:(J.Obj [ ("ok", J.Bool true) ]) ~grid)))

let fleet_deltas p ~(served : Servepath.outcome) =
  let b = served.Servepath.before and a = served.Servepath.after in
  let d path = Servepath.sum_replicas a path -. Servepath.sum_replicas b path in
  let dr path = Servepath.field path a.router -. Servepath.field path b.router in
  let hits = d [ "cache"; "hits" ] and misses = d [ "cache"; "misses" ] in
  p "lru.hit_ratio" "ratio" (if hits +. misses = 0. then 0. else hits /. (hits +. misses));
  p "lru.evictions" "count" (d [ "cache"; "evictions" ]);
  p "supervisor.queue_max" "count"
    (List.fold_left Float.max 0.
       (List.map (Servepath.field [ "supervisor"; "queue_max" ]) a.replicas));
  p "supervisor.shed" "count" (d [ "supervisor"; "shed" ]);
  p "supervisor.timeouts" "count" (d [ "supervisor"; "request_timeouts" ]);
  let batches = dr [ "router"; "coalesce_batches" ] and chits = dr [ "router"; "coalesce_hits" ] in
  p "router.coalesce_hit_ratio" "ratio"
    (if batches +. chits = 0. then 0. else chits /. (batches +. chits));
  let reqs = dr [ "router"; "requests" ] in
  p "router.forwarded_per_request" "ratio"
    (if reqs = 0. then 0. else dr [ "router"; "forwarded" ] /. reqs);
  p "router.failovers" "count" (dr [ "router"; "failovers" ])

let report (m : Util.metrics) ~(fits : Fitpath.result list)
    ~(krylov_results : (Krylovpath.item * Krylovpath.result) list) ~netlists
    ~store ~served ~overhead ~krylov_s ~seed ~work =
  let p = Util.put m in
  p "touchstone.parse_s" "s" (Trace.total "touchstone.parse");
  p "netlist.load_s" "s" (Trace.total "netlist.load");
  p "mna.sparse_system_s" "s" (Trace.total "mna.sparse_system");
  List.iter
    (fun st -> p ("engine." ^ st ^ "_s") "s" (Trace.total ("engine." ^ st)))
    [ "ingest"; "assemble"; "realify"; "reduce"; "certify" ];
  let fit_ops = List.map (fun r -> r.Fitpath.op) fits in
  let direct = List.filter (fun r -> r.Fitpath.pencil_dim > 0) fits in
  p "reduce.pencil_dim" "count"
    (Util.median (List.map (fun r -> float_of_int r.Fitpath.pencil_dim) direct));
  p "reduce.gflop" "Gflop"
    (Util.sum (List.map (fun r -> svd_gflop r.Fitpath.pencil_dim) direct));
  let reduces = List.length (List.filter (fun r -> r.Fitpath.reached_reduce) fits) in
  let svd = site_total fit_ops "svd." in
  p "reduce.fallbacks" "count" (float_of_int svd);
  p "reduce.fallback_ratio" "ratio" (Util.ratio svd reduces);
  p "reduce.rsvd_fallback_share" "ratio"
    (Util.ratio
       (List.length
          (List.filter
             (fun r -> r.Fitpath.reached_reduce
                       && List.mem_assoc "svd.rsvd.fallback" r.Fitpath.op.Util.fallbacks)
             fits))
       reduces);
  let kops = List.map (fun (_, r) -> r.Krylovpath.op) krylov_results in
  p "certify.repairs" "count"
    (float_of_int (List.length (List.filter (fun r -> r.Fitpath.repaired) fits)));
  p "certify.refusals" "count"
    (float_of_int
       (List.length
          (List.filter
             (fun o ->
               match o.Util.outcome with
               | Util.Refused k -> contains k "certify" || contains k "stabilize"
               | _ -> false)
             (fit_ops @ kops))));
  sparse_probes p netlists;
  let kred = List.filter Float.is_finite (List.map (fun (_, r) -> r.Krylovpath.reduce_s) krylov_results) in
  p "krylov.reduce_s" "s" (Util.sum kred);
  p "krylov.factorizations" "count"
    (float_of_int (List.fold_left (fun a (_, r) -> a + r.Krylovpath.factorizations) 0 krylov_results));
  p "krylov.fallbacks" "count" (float_of_int (site_total kops "krylov."));
  p "krylov.mfti_s" "s" (Trace.total "krylov.fit_mfti" -. Util.sum kred);
  store_probes p ~store ~served;
  let modes =
    List.filter_map
      (fun o -> if o.Util.mode = "" then None else Some o.Util.mode)
      (fit_ops @ kops)
    @ Array.to_list
        (Array.map (fun (_, a) -> Util.mode_name (Serve.Compiled.of_model a.Serve.Artifact.model))
           store.Servepath.contents)
  in
  p "compiled.pole_residue_share" "ratio"
    (Util.ratio (List.length (List.filter (( = ) "pole-residue") modes)) (List.length modes));
  fleet_deltas p ~served;
  let bin_handle = replay p ~seed ~store ~served ~work in
  let bin_p50 = Util.median (Servepath.latencies served Servepath.Bin Servepath.base) in
  p "transport_ms" "ms" (bin_p50 -. (1000. *. bin_handle));
  p "serve.generator_lag_ms" "ms" served.Servepath.reports.(Servepath.base).Servepath.lag_ms;
  (match overhead with
   | Some (untraced, traced) ->
     Printf.printf "tracing overhead on the fit list: %.4f s untraced, %.4f s traced\n"
       untraced traced;
     p "trace.overhead_pct" "%" (100. *. (traced -. untraced) /. untraced);
     account p ~root:"fit.pass" ~untraced
   | None -> ());
  account p ~root:"krylov.pass" ~untraced:krylov_s
