open Linalg
open Statespace

(* Tangential rational Krylov pre-reduction: project the sparse MNA
   pencil (sC + G) onto the union of shifted-solve subspaces
   span{(sigma_i C + G)^{-1} B}, keeping the basis real so the reduced
   model goes through realify/certify unchanged.  One sparse LU per
   shift; the AMD ordering is computed once on the union pattern and
   reused for every factorization in the sweep. *)

type system = {
  g : Sparse.Scsr.t;
  c : Sparse.Scsr.t;
  b : Cmat.t;
  l : Cmat.t;
}

let of_mna circuit =
  let g, c, b, l = Rf.Mna.sparse_system circuit in
  { g; c; b; l }

type options = {
  f_lo : float;
  f_hi : float;
  shifts : int;
  batch : int;
  max_rounds : int;
  max_order : int;
  tol : float;
  deflation_tol : float;
  holdout : int;
  z0 : float option;
}

let default_options =
  { f_lo = 1e4;
    f_hi = 1e10;
    shifts = 8;
    batch = 4;
    max_rounds = 6;
    max_order = 240;
    tol = 1e-6;
    deflation_tol = 1e-8;
    holdout = 9;
    z0 = None }

type reduction = {
  model : Engine.Model.t;
  order : int;
  shift_freqs : float array;
  history : float array;
  factorizations : int;
  max_fill : float;
  timings : (string * float) list;
}

let context = "krylov"

let invalid message = Mfti_error.Validation { context; message }

let validate_options o =
  if not (Float.is_finite o.f_lo) || o.f_lo <= 0. then
    Error (invalid "f_lo must be positive and finite")
  else if not (Float.is_finite o.f_hi) || o.f_hi <= o.f_lo then
    Error (invalid "f_hi must exceed f_lo")
  else if o.shifts < 2 then Error (invalid "need at least 2 initial shifts")
  else if o.batch < 1 then Error (invalid "batch must be positive")
  else if o.max_rounds < 0 then Error (invalid "max_rounds must be >= 0")
  else if o.max_order < 2 then Error (invalid "max_order must be >= 2")
  else if not (o.tol > 0.) then Error (invalid "tol must be positive")
  else if not (o.deflation_tol > 0.) then
    Error (invalid "deflation_tol must be positive")
  else if o.holdout < 1 then Error (invalid "need at least 1 hold-out probe")
  else
    match o.z0 with
    | Some z0 when not (z0 > 0.) ->
      Error (invalid "z0 must be a positive reference impedance")
    | _ -> Ok ()

let validate_system sys =
  let n, nc = Sparse.Scsr.dims sys.g in
  let nc', nc'' = Sparse.Scsr.dims sys.c in
  let bn, _ = Cmat.dims sys.b in
  let _, ln = Cmat.dims sys.l in
  if n = 0 then Error (invalid "empty system")
  else if n <> nc || nc' <> n || nc'' <> n then
    Error (invalid "G and C must be square with matching dimension")
  else if bn <> n then Error (invalid "B row count must match the pencil")
  else if ln <> n then Error (invalid "L column count must match the pencil")
  else Ok ()

(* ---- small dense helpers ------------------------------------------- *)

(* Column-by-column inverse of a lower-triangular factor (same scheme
   as the randomized-SVD kernel): k x k with k the basis block width,
   so the sequential loops are negligible next to the tall GEMMs. *)
let tri_inv_lower l =
  let n = Cmat.rows l in
  let m = Cmat.create n n in
  for j = 0 to n - 1 do
    Cmat.set m j j (Cx.inv (Cmat.get l j j));
    for i = j + 1 to n - 1 do
      let acc = ref Cx.zero in
      for k = j to i - 1 do
        acc := Cx.add_mul (Cmat.get l i k) (Cmat.get m k j) !acc
      done;
      Cmat.set m i j (Cx.neg (Cx.div !acc (Cmat.get l i i)))
    done
  done;
  m

let cholqr y =
  let g = Cmat.mul_cn y y in
  let l = Chol.factorize g in
  Cmat.mul y (Cmat.ctranspose (tri_inv_lower l))

(* Per-column modified Gram-Schmidt with renormalization: the robust
   fallback when the block Gram matrix is numerically singular.  Each
   column is re-orthogonalized against the existing basis [v] and the
   already-accepted columns (two passes), then must clear [tol]
   relative to its equilibrated unit norm — an angle threshold — or it
   deflates away instead of polluting the basis. *)
let mgs_columns ~tol v w =
  let n = Cmat.rows w in
  let k = Cmat.cols w in
  let accepted = ref [] in
  let count = ref 0 in
  for j = 0 to k - 1 do
    let x = ref (Cmat.col w j) in
    for _pass = 1 to 2 do
      (match v with
       | None -> ()
       | Some v -> x := Cmat.sub !x (Cmat.mul v (Cmat.mul_cn v !x)));
      List.iter
        (fun q ->
          let coeff = Cmat.vec_dot q !x in
          x := Cmat.axpy (Cx.neg coeff) q !x)
        !accepted
    done;
    let nrm = Cmat.norm_fro !x in
    if nrm > tol then begin
      accepted := Cmat.scale_float (1. /. nrm) !x :: !accepted;
      incr count
    end
  done;
  if !count = 0 then None
  else begin
    let q = Cmat.zeros n !count in
    List.iteri
      (fun i col -> Cmat.set_col q (!count - 1 - i) col)
      !accepted;
    Some q
  end

(* CholeskyQR2 on the unit-equilibrated block.  A Cholesky breakdown
   is not the only failure mode: on a numerically singular Gram matrix
   the factorization can "succeed" through rounding noise and return
   garbage directions with enormous norms, so the result is verified
   against Q* Q = I and demoted to per-column MGS deflation whenever
   the certificate fails. *)
let orthonormalize ~tol v y =
  let verified q =
    let k = Cmat.cols q in
    let gram = Cmat.mul_cn q q in
    Cmat.norm_fro (Cmat.sub gram (Cmat.identity k)) <= 1e-8 *. sqrt (float_of_int k)
  in
  match cholqr (cholqr y) with
  | q when verified q -> Some q
  | _ | (exception Chol.Not_positive_definite _) ->
    Diag.record ~site:"krylov.cholqr_fallback"
      "block Gram matrix numerically singular; per-column MGS deflation";
    mgs_columns ~tol v y

(* [Re X | Im X] as a complex matrix with zero imaginary part. *)
let real_block x =
  Cmat.hcat
    (Cmat.of_real (Cmat.real_part x))
    (Cmat.of_real (Cmat.imag_part x))

let col_norms w =
  let _, k = Cmat.dims w in
  Array.init k (fun j -> Cmat.norm_fro (Cmat.col w j))

(* Two-pass block Gram-Schmidt against [v], per-column deflation
   relative to the pre-projection column norms, unit equilibration of
   the survivors (so the Gram condition reflects angles, not the norm
   disparity of nearly-converged directions), then CholeskyQR2.
   Returns the new orthonormal columns, or [None] when everything
   deflated. *)
let extend_basis ~deflation_tol ~room v w =
  let norms0 = col_norms w in
  let w =
    match v with
    | None -> w
    | Some v ->
      let w = Cmat.sub w (Cmat.mul v (Cmat.mul_cn v w)) in
      Cmat.sub w (Cmat.mul v (Cmat.mul_cn v w))
  in
  let norms = col_norms w in
  let keep = ref [] in
  Array.iteri
    (fun j n0 ->
      if norms.(j) > deflation_tol *. Float.max n0 1e-300 && norms.(j) > 0.
      then keep := j :: !keep)
    norms0;
  let keep = Array.of_list (List.rev !keep) in
  let keep =
    if Array.length keep > room then Array.sub keep 0 room else keep
  in
  if Array.length keep = 0 then None
  else begin
    let w = Cmat.select_cols w keep in
    Array.iteri
      (fun j' j ->
        Cmat.set_col w j' (Cmat.scale_float (1. /. norms.(j)) (Cmat.col w j')))
      keep;
    orthonormalize ~tol:deflation_tol v w
  end

(* ---- the reduction -------------------------------------------------- *)

let reduce ?(options = default_options) sys =
  match
    match validate_options options with
    | Error _ as e -> e
    | Ok () -> validate_system sys
  with
  | Error e -> Error e
  | Ok () ->
    let o = options in
    let n = Sparse.Scsr.rows sys.g in
    let m = Cmat.cols sys.b in
    let p = Cmat.rows sys.l in
    let max_order = Stdlib.min o.max_order n in
    let timings = Hashtbl.create 8 in
    let timed key f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      Hashtbl.replace timings key
        (dt +. Option.value ~default:0. (Hashtbl.find_opt timings key));
      r
    in
    let factorizations = ref 0 in
    let max_fill = ref 0. in
    (* One AMD ordering for the whole sweep: scale_add keeps the union
       pattern stable across (alpha, beta), so the permutation computed
       on C + G is valid for every shifted pencil. *)
    let perm =
      timed "ordering" (fun () ->
        Sparse.Ordering.amd
          (Sparse.Scsr.scale_add ~alpha:Cx.one sys.c ~beta:Cx.one sys.g))
    in
    (* x = (j 2 pi f C + G)^{-1} B, one sparse LU (AMD reused). *)
    let solve_at f =
      let s = Cx.jw (2. *. Float.pi *. f) in
      let pencil = Sparse.Scsr.scale_add ~alpha:s sys.c ~beta:Cx.one sys.g in
      match timed "factor" (fun () -> Sparse.Slu.factorize ~perm pencil) with
      | Error _ as e -> e
      | Ok fac ->
        incr factorizations;
        max_fill :=
          Float.max !max_fill
            (float_of_int (Sparse.Slu.fill fac)
             /. float_of_int (Sparse.Scsr.nnz pencil));
        Ok (timed "solve" (fun () -> Sparse.Slu.solve fac sys.b))
    in
    (* Exact transfer samples, cached: shifts get theirs free from the
       basis solve, hold-out probes pay one factorization each, once. *)
    let truth = Hashtbl.create 32 in
    let truth_at f =
      match Hashtbl.find_opt truth f with
      | Some h -> Ok h
      | None ->
        (match solve_at f with
         | Error _ as e -> e
         | Ok x ->
           let h = Cmat.mul sys.l x in
           Hashtbl.add truth f h;
           Ok h)
    in
    (* Hold-out probes at the centres of equal log bins — never on the
       log-spaced shift grid, which sits on the bin edges. *)
    let span = Float.log10 (o.f_hi /. o.f_lo) in
    let holdout_freqs =
      Array.init o.holdout (fun i ->
        o.f_lo
        *. Float.pow 10.
             (span *. (2. *. float_of_int i +. 1.)
              /. (2. *. float_of_int o.holdout)))
    in
    (* Basis and incrementally-projected reduced matrices. *)
    let v = ref None in
    let cv = ref None in
    let gv = ref None in
    let er = ref (Cmat.zeros 0 0) in
    let ar = ref (Cmat.zeros 0 0) in
    let br = ref (Cmat.zeros 0 m) in
    let cr = ref (Cmat.zeros p 0) in
    let order () = match !v with None -> 0 | Some v -> Cmat.cols v in
    let absorb q =
      timed "project" (fun () ->
        let cq = Sparse.Scsr.mul_mat sys.c q in
        let gq = Sparse.Scsr.mul_mat sys.g q in
        (match !v with
         | None ->
           er := Cmat.mul_cn q cq;
           ar := Cmat.neg (Cmat.mul_cn q gq)
         | Some v0 ->
           let block old x_old x_new =
             Cmat.blocks
               [ [ old; Cmat.mul_cn v0 x_new ];
                 [ Cmat.mul_cn q x_old; Cmat.mul_cn q x_new ] ]
           in
           er := block !er (Option.get !cv) cq;
           ar := Cmat.neg (block (Cmat.neg !ar) (Option.get !gv) gq));
        br := Cmat.vcat !br (Cmat.mul_cn q sys.b);
        cr := Cmat.hcat !cr (Cmat.mul sys.l q);
        cv := Some (match !cv with None -> cq | Some c0 -> Cmat.hcat c0 cq);
        gv := Some (match !gv with None -> gq | Some g0 -> Cmat.hcat g0 gq);
        v := Some (match !v with None -> q | Some v0 -> Cmat.hcat v0 q))
    in
    let rom () =
      Descriptor.create ~e:!er ~a:!ar ~b:!br ~c:!cr ~d:(Cmat.zeros p m)
    in
    let shift_log = ref [] in
    let used f =
      List.exists
        (fun f' -> Float.abs (f -. f') <= 1e-9 *. Float.max f f')
        !shift_log
    in
    let expand freqs =
      let rec go = function
        | [] -> Ok ()
        | f :: rest ->
          if used f || order () >= max_order then go rest
          else
            (match solve_at f with
             | Error _ as e -> e
             | Ok x ->
               Hashtbl.replace truth f (Cmat.mul sys.l x);
               shift_log := f :: !shift_log;
               (match
                  timed "basis" (fun () ->
                    extend_basis ~deflation_tol:o.deflation_tol
                      ~room:(max_order - order ())
                      !v (real_block x))
                with
                | None ->
                  Diag.record ~site:"krylov.deflation"
                    (Printf.sprintf
                       "shift at %.6g Hz fully deflated (order %d)" f
                       (order ()));
                  go rest
                | Some q ->
                  absorb q;
                  go rest))
      in
      go freqs
    in
    (* Max relative hold-out error of the current reduced model. *)
    let holdout_err () =
      let model = rom () in
      let worst = ref (neg_infinity, 0.) in
      let rec go i =
        if i >= Array.length holdout_freqs then
          Ok (fst !worst, snd !worst)
        else
          let f = holdout_freqs.(i) in
          match truth_at f with
          | Error _ as e -> e
          | Ok ht ->
            let hr =
              timed "evaluate" (fun () -> Descriptor.eval_freq model f)
            in
            let rel =
              Cmat.norm_fro (Cmat.sub hr ht)
              /. Float.max (Cmat.norm_fro ht) 1e-300
            in
            if rel > fst !worst then worst := (rel, f);
            go (i + 1)
      in
      go 0
    in
    (* Next shifts: adaptive cross-validation suggestion over every
       exact sample seen so far, falling back to log-gap bisection of
       the shift set when the suggester refuses (too few samples) or
       comes back empty. *)
    let bisect_shifts () =
      let sorted =
        List.sort_uniq compare !shift_log |> Array.of_list
      in
      let gaps = ref [] in
      Array.iteri
        (fun i f ->
          if i > 0 then
            gaps :=
              (Float.log10 (f /. sorted.(i - 1)), sqrt (f *. sorted.(i - 1)))
              :: !gaps)
        sorted;
      List.sort (fun (a, _) (b, _) -> compare b a) !gaps
      |> List.filteri (fun i _ -> i < o.batch)
      |> List.map snd
    in
    let next_shifts worst_freq =
      let samples =
        Hashtbl.fold (fun f h acc -> (f, h) :: acc) truth []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let freqs = Array.of_list (List.map fst samples) in
      let mats = Array.of_list (List.map snd samples) in
      let suggested =
        if Array.length freqs < 8 then []
        else
          match
            Adaptive.suggest
              ~options:{ Adaptive.default_options with count = o.batch }
              (Sampling.of_matrices freqs mats)
          with
          | Ok scores -> List.map (fun s -> s.Adaptive.freq) scores
          | Error _ -> []
      in
      let picks = if suggested = [] then bisect_shifts () else suggested in
      (* Always press on the worst probe: interpolation there kills the
         dominant error term even when the suggester looks elsewhere. *)
      let picks = if used worst_freq then picks else worst_freq :: picks in
      List.filteri (fun i _ -> i < o.batch) picks
    in
    let history = ref [] in
    let initial = Array.to_list (Sampling.logspace o.f_lo o.f_hi o.shifts) in
    let rec rounds i prev =
      match prev with
      | Error _ as e -> e
      | Ok () ->
        (match holdout_err () with
         | Error _ as e -> e
         | Ok (err, worst_freq) ->
           history := err :: !history;
           if err <= o.tol || i >= o.max_rounds || order () >= max_order
           then Ok ()
           else rounds (i + 1) (expand (next_shifts worst_freq)))
    in
    (match rounds 0 (expand initial) with
     | Error _ as e -> e
     | Ok () ->
       if order () = 0 then
         Error
           (Mfti_error.Numerical_breakdown
              { context;
                message = "every shift direction deflated to zero";
                condition = None })
       else begin
         let descriptor = rom () in
         let descriptor =
           match o.z0 with
           | None -> descriptor
           | Some z0 -> Rf.Sparams.descriptor_z_to_s ~z0 descriptor
         in
         let timings =
           List.filter_map
             (fun key ->
               Option.map (fun t -> (key, t)) (Hashtbl.find_opt timings key))
             [ "ordering"; "factor"; "solve"; "basis"; "project"; "evaluate" ]
         in
         let model =
           Engine.Model.make ~timings ~rank:(order ()) descriptor
         in
         Ok
           { model;
             order = order ();
             shift_freqs = Array.of_list (List.rev !shift_log);
             history = Array.of_list (List.rev !history);
             factorizations = !factorizations;
             max_fill = !max_fill;
             timings }
       end)

(* ---- krylov+mfti ---------------------------------------------------- *)

let fit_mfti ?(options = default_options) ?fit_options ?(fit_points = 128)
    sys =
  if fit_points < 4 then Error (invalid "fit_points must be >= 4")
  else
    match reduce ~options sys with
    | Error _ as e -> e
    | Ok kr ->
      let freqs = Sampling.logspace options.f_lo options.f_hi fit_points in
      let samples =
        Sampling.of_matrices freqs
          (Array.map (Engine.Model.eval_freq kr.model) freqs)
      in
      let fit_options =
        Option.value ~default:Engine.default_options fit_options
      in
      (match
         Engine.fit_result ~options:fit_options ~strategy:Engine.Direct
           samples
       with
       | Error _ as e -> e
       | Ok fit -> Ok (Engine.Model.of_fit fit, kr))
