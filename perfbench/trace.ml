(* In-memory spans recorded around the benchmark's calls into the
   library.  A span is (name, start, end, parent, request id); spans
   nest through a stack, so only the thread that drives the traced
   replay may open them.  Nothing is written until [write] at the end
   of the run, and with tracing off [span] is a plain call. *)

type span = {
  id : int;
  parent : int;        (* 0 = root *)
  name : string;
  req : int;           (* request / operation id, 0 = none *)
  t0 : float;
  t1 : float;
}

let on = ref false
let finished : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 1

let span ?(req = 0) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        stack := List.tl !stack;
        finished := { id; parent; name; req; t0; t1 } :: !finished)
      f
  end

let reset () =
  finished := [];
  stack := [];
  next_id := 1

let spans () = List.rev !finished
let dur s = s.t1 -. s.t0

let named name = List.filter (fun s -> s.name = name) (spans ())

(* Summed duration of every span called [name]. *)
let total name = List.fold_left (fun acc s -> acc +. dur s) 0. (named name)

(* Self time per span name over the spans below every span called
   [root] (the roots included): each span's duration minus the part its
   direct children cover, summed by name, sorted by name. *)
let self_times root =
  let below = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = root || Hashtbl.mem below s.parent then
        Hashtbl.replace below s.id ())
    (List.sort (fun a b -> compare a.id b.id) (spans ()));
  let all = List.filter (fun s -> Hashtbl.mem below s.id) (spans ()) in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    all;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name s.req s.t0 s.t1)
    (spans ());
  close_out oc
