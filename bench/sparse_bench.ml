(* Sparse substrate at acceptance scale: assemble, factor and
   Krylov-reduce a ~100k-node PDN plane grid (writes BENCH_sparse.json).

   The dense MNA path is cubic in the state count and simply absent at
   this size (320x320 plane = 102k states); every arm below runs
   through lib/linalg/sparse.  The krylov_mfti arm is the headline: a
   full tangential rational Krylov pre-reduction of the grid to a few
   hundred states carried end-to-end through the staged MFTI engine.
   The reduction runs once; krylov_reduce is its share, the sum of the
   reduction's own stage timings.

   The rl arm reduces a 40x40 RL plane (4724 states): every plane
   segment carries a branch current whose diagonal R + jwL is nearly
   zero at low frequency, which is where sparse LU pivoting can throw
   the AMD order away.  It records the reduce time, the factorization
   count and the LU fill over the pencil's nnz at f_lo and f_hi.

   --smoke shrinks the grids to 24x24 and 12x12 and additionally
   validates the committed BENCH_sparse.json: it must parse, describe a
   >= 100k-node grid, carry assemble / factor / krylov_reduce arms, and
   an rl arm with fill at f_lo <= 10x and a reduction under 5 s. *)

module Json = Bjson

let band = (1e5, 1e9)

let spec ~side =
  { Rf.Pdn.default_spec with
    nx = side; ny = side;
    ports = 8;
    decaps = 16;
    (* resistive plane: MNA order stays at the node count, which is the
       regime the 100k acceptance targets *)
    plane_rl = false;
    seed = 7 }

(* what `mfti gen pdn --grid 40x40 --ports 4` writes *)
let rl_spec ~side =
  { Rf.Pdn.default_spec with
    nx = side; ny = side; ports = 4; decaps = 2; plane_rl = true }

let koptions ~smoke =
  let f_lo, f_hi = band in
  { Mfti.Krylov.default_options with
    f_lo; f_hi;
    shifts = (if smoke then 4 else 8);
    max_order = (if smoke then 96 else 240);
    tol = 1e-8; z0 = Some 50. }

let ok = function
  | Ok r -> r
  | Error e -> failwith (Linalg.Mfti_error.to_string e)

let shifted c g f =
  Sparse.Scsr.scale_add
    ~alpha:(Linalg.Cx.jw (2. *. Float.pi *. f)) c ~beta:Linalg.Cx.one g

(* LU fill over the pencil's nnz *)
let fill_ratio fac pencil =
  float_of_int (Sparse.Slu.fill fac) /. float_of_int (Sparse.Scsr.nnz pencil)

let fill_at ~perm c g f =
  let pencil = shifted c g f in
  fill_ratio (ok (Sparse.Slu.factorize ~perm pencil)) pencil

let krylov_json (kr : Mfti.Krylov.reduction) =
  let h = kr.Mfti.Krylov.history in
  let holdout_err =
    if Array.length h > 0 then h.(Array.length h - 1) else Float.nan
  in
  ( holdout_err,
    [ ("order", Json.Num (float_of_int kr.Mfti.Krylov.order));
      ( "shifts",
        Json.Num (float_of_int (Array.length kr.Mfti.Krylov.shift_freqs)) );
      ( "factorizations",
        Json.Num (float_of_int kr.Mfti.Krylov.factorizations) );
      ("max_fill", Json.Num kr.Mfti.Krylov.max_fill);
      ("holdout_err", Json.Num holdout_err);
      ( "timings",
        Json.Obj
          (List.map (fun (k, t) -> (k, Json.Num t)) kr.Mfti.Krylov.timings) )
    ] )

(* The RL-plane arm: one Krylov reduction plus the fill at the band
   edges under the sweep's shared AMD order. *)
let rl_arm ~smoke =
  let side = if smoke then 12 else 40 in
  let f_lo, f_hi = band in
  let circuit = Rf.Pdn.build (rl_spec ~side) in
  let g, c, b, l = Rf.Mna.sparse_system circuit in
  let states = Rf.Mna.num_states circuit in
  let perm =
    Sparse.Ordering.amd
      (Sparse.Scsr.scale_add ~alpha:Linalg.Cx.one c ~beta:Linalg.Cx.one g)
  in
  let fill_lo = fill_at ~perm c g f_lo and fill_hi = fill_at ~perm c g f_hi in
  let sys = { Mfti.Krylov.g; c; b; l } in
  let kr, reduce_s =
    Util.time_it (fun () ->
        ok (Mfti.Krylov.reduce ~options:(koptions ~smoke) sys))
  in
  Printf.printf
    "rl %dx%d: %d states, fill %.2fx at f_lo, %.2fx at f_hi; reduce %.3f s, \
     order %d, %d factorizations\n%!"
    side side states fill_lo fill_hi reduce_s kr.Mfti.Krylov.order
    kr.Mfti.Krylov.factorizations;
  let _, fields = krylov_json kr in
  Json.Obj
    ([ ("grid", Json.Str (Printf.sprintf "%dx%d" side side));
       ("nodes", Json.Num (float_of_int (Rf.Mna.num_nodes circuit)));
       ("states", Json.Num (float_of_int states));
       ("reduce_s", Json.Num reduce_s);
       ("fill_lo", Json.Num fill_lo);
       ("fill_hi", Json.Num fill_hi) ]
     @ fields)

let run ?(smoke = false) () =
  Util.heading "Sparse pipeline: 100k-node plane grid";
  let side = if smoke then 24 else 320 in
  let f_lo, f_hi = band in
  let sp = spec ~side in
  let circuit, assemble_s = Util.time_it (fun () -> Rf.Pdn.build sp) in
  let (g, c, b, l), system_s =
    Util.time_it (fun () -> Rf.Mna.sparse_system circuit)
  in
  let nodes = Rf.Mna.num_nodes circuit in
  let states = Rf.Mna.num_states circuit in
  Printf.printf "grid %dx%d: %d nodes, %d states, nnz(G) = %d\n%!" side side
    nodes states (Sparse.Scsr.nnz g);
  let pattern = Sparse.Scsr.scale_add ~alpha:Linalg.Cx.one c ~beta:Linalg.Cx.one g in
  let perm, ordering_s =
    Util.time_it (fun () -> Sparse.Ordering.amd pattern)
  in
  let pencil = shifted c g (sqrt (f_lo *. f_hi)) in
  let fac, factor_s =
    Util.time_it (fun () -> ok (Sparse.Slu.factorize ~perm pencil))
  in
  let _, solve_s = Util.time_it (fun () -> Sparse.Slu.solve fac b) in
  let sys = { Mfti.Krylov.g; c; b; l } in
  let (model, kr), mfti_s =
    Util.time_it (fun () ->
        ok (Mfti.Krylov.fit_mfti ~options:(koptions ~smoke) sys))
  in
  let reduce_s =
    List.fold_left (fun a (_, t) -> a +. t) 0. kr.Mfti.Krylov.timings
  in
  let holdout_err, krylov_fields = krylov_json kr in
  let rl = rl_arm ~smoke in
  let arms =
    [ ("assemble", assemble_s +. system_s);
      ("ordering", ordering_s);
      ("factor", factor_s);
      ("solve", solve_s);
      ("krylov_reduce", reduce_s);
      ("krylov_mfti", mfti_s) ]
  in
  Util.print_table
    ~header:[ "op"; "seconds" ]
    (List.map (fun (op, s) -> [ op; Printf.sprintf "%.3f" s ]) arms);
  Printf.printf
    "krylov: order %d from %d shifts, %d factorizations, hold-out err %.3e\n"
    kr.Mfti.Krylov.order
    (Array.length kr.Mfti.Krylov.shift_freqs)
    kr.Mfti.Krylov.factorizations holdout_err;
  Printf.printf "krylov+mfti: final order %d\n%!"
    (Mfti.Engine.Model.rank model);
  let json =
    Json.Obj
      (Json.std_header ~schema:"mfti-bench-sparse/1"
         ~tool:"bench/main.exe sparse" ~smoke
      @ [ ("grid", Json.Str (Printf.sprintf "%dx%d" side side));
          ("nodes", Json.Num (float_of_int nodes));
          ("states", Json.Num (float_of_int states));
          ("nnz_g", Json.Num (float_of_int (Sparse.Scsr.nnz g)));
          ("ports", Json.Num (float_of_int sp.Rf.Pdn.ports));
          ("f_lo", Json.Num f_lo);
          ("f_hi", Json.Num f_hi);
          ("factor_fill", Json.Num (fill_ratio fac pencil));
          ( "krylov",
            Json.Obj
              (krylov_fields
               @ [ ( "final_order",
                     Json.Num (float_of_int (Mfti.Engine.Model.rank model)) )
                 ]) );
          ("rl", rl);
          ( "results",
            Json.Arr
              (List.map
                 (fun (op, s) ->
                   Json.Obj [ ("op", Json.Str op); ("seconds", Json.Num s) ])
                 arms) ) ])
  in
  let path = if smoke then "BENCH_sparse.smoke.json" else "BENCH_sparse.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path;

  if smoke then begin
    (* the emitted smoke JSON must round-trip *)
    let read p =
      let ic = open_in p in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      Json.parse text
    in
    let parsed = read path in
    List.iter
      (fun field ->
        if Json.member field parsed = None then
          failwith ("sparse bench: JSON missing " ^ field))
      [ "schema"; "cpus"; "grid"; "nodes"; "krylov"; "rl"; "results" ];
    Printf.printf "smoke: JSON parses, header well-formed\n%!";
    (* the committed full report must describe the 100k-node acceptance
       run with every pipeline arm present and positive *)
    let committed =
      List.find_opt Sys.file_exists
        [ "BENCH_sparse.json"; "../BENCH_sparse.json" ]
    in
    match committed with
    | None ->
      failwith
        "sparse bench: committed BENCH_sparse.json not found (rerun `dune \
         exec bench/main.exe -- sparse`)"
    | Some p ->
      let parsed = read p in
      (match Json.member "nodes" parsed with
       | Some (Json.Num n) when n >= 1e5 -> ()
       | _ ->
         failwith
           "sparse bench: committed BENCH_sparse.json is not a 100k-node \
            run");
      let rows =
        match Json.member "results" parsed with
        | Some (Json.Arr rs) -> rs
        | _ -> failwith "sparse bench: committed report missing results"
      in
      let seconds op =
        List.find_map
          (fun r ->
            match (Json.member "op" r, Json.member "seconds" r) with
            | Some (Json.Str o), Some (Json.Num s) when o = op -> Some s
            | _ -> None)
          rows
      in
      List.iter
        (fun op ->
          match seconds op with
          | Some s when s > 0. -> ()
          | _ ->
            failwith
              (Printf.sprintf
                 "sparse bench: committed BENCH_sparse.json lacks a \
                  positive %s arm"
                 op))
        [ "assemble"; "factor"; "krylov_reduce" ];
      (match Json.member "krylov" parsed with
       | Some k ->
         (match Json.member "holdout_err" k with
          | Some (Json.Num e) when e < 1e-3 -> ()
          | _ ->
            failwith
              "sparse bench: committed krylov hold-out error missing or \
               above 1e-3")
       | None -> failwith "sparse bench: committed report missing krylov");
      (* the RL plane must keep its AMD order at the low band edge and
         reduce in seconds *)
      (match Json.member "rl" parsed with
       | Some rl ->
         let num field =
           match Json.member field rl with
           | Some (Json.Num x) -> x
           | _ ->
             failwith ("sparse bench: committed rl arm missing " ^ field)
         in
         if not (num "fill_lo" <= 10.) then
           failwith
             (Printf.sprintf
                "sparse bench: committed rl fill at f_lo %.1fx exceeds 10x"
                (num "fill_lo"));
         if not (num "reduce_s" < 5.) then
           failwith
             (Printf.sprintf
                "sparse bench: committed rl reduction took %.2f s (>= 5 s)"
                (num "reduce_s"))
       | None -> failwith "sparse bench: committed report missing rl arm");
      Printf.printf "smoke: committed BENCH_sparse.json validates\n%!"
  end
