(* Small helpers shared by the workloads: order statistics, clocks,
   files, memory, and the report's metric table. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

(* Linear-interpolated quantile, [q] in [0, 1]; nan on an empty list. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Files *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Reads to end of file: /proc files report a length of 0. *)
let read_file p =
  let ic = open_in_bin p in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    let k = input ic chunk 0 (Bytes.length chunk) in
    if k > 0 then (Buffer.add_subbytes b chunk 0 k; go ())
  in
  go ();
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Memory: the kernel's resident-set high-water mark (VmHWM), in MB. *)

let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match read_file path with
  | exception Sys_error _ -> nan
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> None)
    |> Option.value ~default:nan

(* Restart this process's VmHWM from its current resident size (Linux
   clear_refs), so a later reading covers only what ran after. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Metric table: (name, value, unit), printed in insertion order. *)

type metrics = (string * float * string) list ref

let metrics () : metrics = ref []
let put (m : metrics) name unit value = m := !m @ [ (name, value, unit) ]

(* A float as JSON: every digit kept, non-finite values as null. *)
let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* ------------------------------------------------------------------ *)
(* Operations: every unit of work the benchmark attempts, with what its
   checks found.  A typed refusal and a failed output check both count
   as a failed operation; only the latter makes the run incorrect. *)

type outcome =
  | Done
  | Refused of string    (* typed error kind and context *)
  | Missed of string     (* a model missed the hold-out tolerance *)
  | Wrong of string      (* an integrity check failed: checksum,
                            certificate, served bytes, servability *)

type op = {
  path : string;         (* "fit", "krylov", "bin", "json", "write" *)
  label : string;
  outcome : outcome;
  fallbacks : (string * int) list;  (* Diag sites and counts *)
  mode : string;         (* compiled evaluator mode, "" when none *)
  seconds : float;       (* wall time of the timed part *)
}

let kind (e : Linalg.Mfti_error.t) =
  match e with
  | Parse _ -> "parse"
  | Validation { context; _ } -> "validation(" ^ context ^ ")"
  | Numerical_breakdown { context; _ } -> "numerical(" ^ context ^ ")"
  | Non_convergence { context; _ } -> "non-convergence(" ^ context ^ ")"
  | Budget_exhausted { context; _ } -> "budget(" ^ context ^ ")"
  | Fault_injected { site } -> "fault(" ^ site ^ ")"

(* Fallback sites of a Diag record, with counts, sorted by site. *)
let fallback_counts (d : Linalg.Diag.t) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Linalg.Diag.event) ->
      Hashtbl.replace tbl e.site
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.site)))
    (Linalg.Diag.events d);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let merge_counts a b =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (a @ b);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let mode_name (c : Serve.Compiled.t) =
  match Serve.Compiled.mode c with
  | Serve.Compiled.Pole_residue -> "pole-residue"
  | Serve.Compiled.Direct -> "direct"

let print_op o =
  Printf.printf "  op %-6s %-24s %8.4f s %-10s %s%s\n" o.path o.label o.seconds
    (match o.outcome with
     | Done -> "ok"
     | Refused k -> "refused:" ^ k
     | Missed m -> "missed:" ^ m
     | Wrong w -> "WRONG:" ^ w)
    (if o.mode = "" then "" else "mode=" ^ o.mode ^ " ")
    (String.concat " "
       (List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) o.fallbacks))
