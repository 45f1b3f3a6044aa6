(* The fit path: a noisy PDN Touchstone file becomes a certified,
   compiled, packed artifact — what `mfti pack --certify=repair` does,
   called stage by stage through the public API so each engine stage
   gets its own span:

     Touchstone.read_file_result -> Dataset.partition -> Engine.ingest
     -> assemble -> realify -> reduce -> certify -> Engine.model
     -> Compiled.of_model -> Artifact.save

   Every fifth sample is held out.  The output checks (outside the
   timed window) reload the artifact through its checksum, require a
   passed certificate, and bound the hold-out error against the
   noise-free response the file was generated from. *)

open Mfti
module S = Statespace.Sampling

type item = {
  file : string;
  label : string;
  spec : Rf.Pdn.spec;
  recursive : bool;  (* Recursive Incremental (the engine default), else Direct *)
}

let noise = 1e-3
let holdout_every = 5
let f_lo = 1e6
let f_hi = 3e9

(* Relative hold-out error against the noise-free truth that a
   produced model must meet.  The Gap rank rule under-fits 1e-3 noisy
   PDN data (hold-out errors of 2e-2 .. 2e-1 at the parent commit);
   the bound catches a broken model, not an under-fitted one. *)
let tolerance = 0.5

let pdn_spec ~seed ~ports =
  let side = max 3 (int_of_float (ceil (sqrt (float_of_int (2 * ports))))) in
  { Rf.Pdn.default_spec with
    nx = side; ny = side; ports; decaps = max 2 (ports / 2); seed }

(* [generate ~dir ~seed plan] writes one Touchstone file per
   [(ports, recursive, points)] entry; placement and noise come from
   [seed]. *)
let generate ~dir ~seed plan =
  List.mapi
    (fun k (ports, recursive, points) ->
      let item_seed = (seed * 101) + k in
      let spec = pdn_spec ~seed:item_seed ~ports in
      let freqs = S.logspace f_lo f_hi points in
      let samples =
        Rf.Noise.add_relative ~seed:item_seed ~level:noise
          (Rf.Pdn.scattering spec ~z0:50. freqs)
      in
      let label =
        Printf.sprintf "f%d-%dport-%s" k ports
          (if recursive then "incremental" else "direct")
      in
      let file = Filename.concat dir (Printf.sprintf "f%d.s%dp" k ports) in
      Rf.Touchstone.write_file file
        { Rf.Touchstone.parameter = Rf.Touchstone.S; z0 = 50.; samples };
      { file; label; spec; recursive })
    plan

(* What one fit produced, for the per-layer report. *)
type result = {
  op : Util.op;              (* op.seconds: parse .. save; checks excluded *)
  holdout_err : float;       (* against the noisy hold-out samples; nan on failure *)
  pencil_dim : int;          (* Direct only; 0 otherwise *)
  reached_reduce : bool;
  repaired : bool;
}

let options item =
  if item.recursive then
    ( Engine.Recursive Engine.Incremental,
      { Engine.default_recursive_options with certify = Certify.Repair } )
  else (Engine.Direct, { Engine.default_options with certify = Certify.Repair })

(* Reload through the checksum, demand a passed certificate, and bound
   the hold-out error against the noise-free truth. *)
let check item ds path =
  match Serve.Artifact.load path with
  | Error e -> Util.Wrong ("reload: " ^ Util.kind e)
  | Ok art ->
    let model = art.Serve.Artifact.model in
    (match Engine.Model.certificate model with
     | Some c when Certify.Certificate.passed c ->
       let freqs =
         Array.map (fun (s : S.sample) -> s.freq) (Dataset.holdout_samples ds)
       in
       let truth = Rf.Pdn.scattering item.spec ~z0:50. freqs in
       let err = Engine.Model.err model truth in
       if Float.is_finite err && err <= tolerance then Util.Done
       else Util.Missed (Printf.sprintf "hold-out error %.3g vs truth" err)
     | Some _ -> Util.Wrong "certificate not passed"
     | None -> Util.Wrong "no certificate")

let run ~out_dir item =
  let state = ref None in
  let stage name f st = Trace.span ("engine." ^ name) (fun () -> f st) in
  let produce () =
    let ( let* ) = Result.bind in
    let* ts =
      Trace.span "touchstone.parse" (fun () ->
          Rf.Touchstone.read_file_result item.file)
    in
    let* ds =
      Dataset.partition ~every:holdout_every
        (Dataset.of_samples ts.Rf.Touchstone.samples)
    in
    let ds = Dataset.trim_even ds in
    let strategy, options = options item in
    let* st =
      Trace.span "engine.ingest" (fun () -> Engine.ingest ~options ~strategy ds)
    in
    state := Some st;
    let* () = stage "assemble" Engine.assemble st in
    let* () = stage "realify" Engine.realify st in
    let* () = stage "reduce" Engine.reduce st in
    let* () = stage "certify" Engine.certify st in
    let* model = Engine.model st in
    let compiled = Trace.span "compiled.of_model" (fun () ->
        Serve.Compiled.of_model model)
    in
    let fit_err = Engine.Model.err model (Dataset.holdout_samples ds) in
    let path = Filename.concat out_dir (item.label ^ ".mfti") in
    Trace.span "artifact.save" (fun () ->
        Serve.Artifact.save path
          (Serve.Artifact.v ~name:item.label ~fit_err ~created:0. model));
    Ok (ds, model, compiled, path, fit_err)
  in
  let (res, outer), seconds =
    Util.time (fun () ->
        Linalg.Diag.with_collector (fun () ->
            Trace.span ~req:0 "fit.item" produce))
  in
  let engine_diag =
    match !state with
    | Some st -> Util.fallback_counts (Engine.diagnostics st)
    | None -> []
  in
  let fallbacks = Util.merge_counts engine_diag (Util.fallback_counts outer) in
  let reached_reduce =
    match !state with
    | Some st ->
      (match Engine.stage st with
       | Engine.Reduced | Engine.Certified -> true
       | _ -> false)
    | None -> false
  in
  let pencil_dim =
    match Option.bind !state Engine.pencil with
    | Some l -> max (Linalg.Cmat.rows l.Loewner.ll) (Linalg.Cmat.cols l.Loewner.ll)
    | None -> 0
  in
  match res with
  | Error e ->
    { op = { path = "fit"; label = item.label; outcome = Refused (Util.kind e);
             fallbacks; mode = ""; seconds };
      holdout_err = nan; pencil_dim; reached_reduce; repaired = false }
  | Ok (ds, model, compiled, path, fit_err) ->
    let outcome = check item ds path in
    let repaired =
      match Engine.Model.certificate model with
      | Some c -> c.Certify.Certificate.flipped > 0 || c.repair_iterations > 0
      | None -> false
    in
    { op = { path = "fit"; label = item.label; outcome; fallbacks;
             mode = Util.mode_name compiled; seconds };
      holdout_err = fit_err; pencil_dim; reached_reduce; repaired }
