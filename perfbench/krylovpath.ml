(* The Krylov path: a sparse PDN netlist becomes a certified, compiled,
   packed artifact — what `mfti engine --strategy krylov+mfti
   --certify=repair --pack` does:

     Netlist.load -> Mna.sparse_system -> Krylov.fit_mfti (rational
     Krylov reduction, resampling, staged MFTI fit, certify repair)
     -> Compiled.of_model -> Artifact.save

   RL planes carry one branch current per plane segment, which is
   where sparse LU pivoting discards the AMD order; the resistive plane
   keeps the node-only pattern.  Checks match the fit path: checksum
   reload, passed certificate, hold-out error against the full
   netlist's own S-parameters. *)

open Mfti
module S = Statespace.Sampling

type item = {
  file : string;
  label : string;
  spec : Rf.Pdn.spec;
  rl : bool;
  mutable truth : S.sample array option;   (* computed on first check *)
}

let f_lo = 1e6
let f_hi = 3e9
let z0 = 50.
let ports = 2
let holdout_points = 8

(* Same reading as the fit path's bound: a broken model, not an
   under-fitted one. *)
let tolerance = 0.5

let options =
  { Krylov.default_options with f_lo; f_hi; z0 = Some z0 }

let fit_options = { Engine.default_options with certify = Certify.Repair }

(* Hold-out frequencies: log-spaced, offset half a step from the
   resampling grid. *)
let holdout_freqs =
  let r = (f_hi /. f_lo) ** (1. /. float_of_int holdout_points) in
  Array.init holdout_points (fun i -> f_lo *. (r ** (float_of_int i +. 0.5)))

(* [generate ~dir ~seed plan] writes one netlist per [(side, rl)]. *)
let generate ~dir ~seed plan =
  List.mapi
    (fun k (side, rl) ->
      let spec =
        { Rf.Pdn.default_spec with
          nx = side; ny = side; ports; decaps = 2; plane_rl = rl;
          seed = (seed * 101) + k }
      in
      let label =
        Printf.sprintf "k%d-%dx%d-%s" k side side (if rl then "rl" else "res")
      in
      let file = Filename.concat dir (label ^ ".ckt") in
      Rf.Netlist.save file (Rf.Pdn.build spec);
      { file; label; spec; rl; truth = None })
    plan

type result = {
  op : Util.op;
  reduce_s : float;          (* the reduction's own stage timings *)
  factorizations : int;
}

let check item path =
  match Serve.Artifact.load path with
  | Error e -> Util.Wrong ("reload: " ^ Util.kind e)
  | Ok art ->
    let model = art.Serve.Artifact.model in
    (match Engine.Model.certificate model with
     | Some c when Certify.Certificate.passed c ->
       let truth =
         match item.truth with
         | Some t -> t
         | None ->
           let t = Rf.Pdn.scattering_sparse item.spec ~z0 holdout_freqs in
           item.truth <- Some t;
           t
       in
       let err = Engine.Model.err model truth in
       if Float.is_finite err && err <= tolerance then Util.Done
       else Util.Missed (Printf.sprintf "hold-out error %.3g vs truth" err)
     | Some _ -> Util.Wrong "certificate not passed"
     | None -> Util.Wrong "no certificate")

let run ~out_dir item =
  let produce () =
    let ( let* ) = Result.bind in
    let* circuit =
      Trace.span "netlist.load" (fun () -> Rf.Netlist.load item.file)
    in
    let g, c, b, l =
      Trace.span "mna.sparse_system" (fun () -> Rf.Mna.sparse_system circuit)
    in
    let* model, red =
      Trace.span "krylov.fit_mfti" (fun () ->
          Krylov.fit_mfti ~options ~fit_options { Krylov.g; c; b; l })
    in
    let compiled =
      Trace.span "compiled.of_model" (fun () -> Serve.Compiled.of_model model)
    in
    let path = Filename.concat out_dir (item.label ^ ".mfti") in
    Trace.span "artifact.save" (fun () ->
        Serve.Artifact.save path
          (Serve.Artifact.v ~name:item.label ~created:0. model));
    Ok (model, red, compiled, path)
  in
  let (res, diag), seconds =
    Util.time (fun () ->
        Linalg.Diag.with_collector (fun () ->
            Trace.span "krylov.item" produce))
  in
  let outer = Util.fallback_counts diag in
  match res with
  | Error e ->
    { op = { path = "krylov"; label = item.label;
             outcome = Refused (Util.kind e); fallbacks = outer; mode = ""; seconds };
      reduce_s = nan; factorizations = 0 }
  | Ok (model, red, compiled, path) ->
    let fallbacks =
      Util.merge_counts outer
        (Util.fallback_counts (Engine.Model.diagnostics model))
    in
    { op = { path = "krylov"; label = item.label; outcome = check item path;
             fallbacks; mode = Util.mode_name compiled; seconds };
      reduce_s = Util.sum (List.map snd red.Krylov.timings);
      factorizations = red.Krylov.factorizations }
