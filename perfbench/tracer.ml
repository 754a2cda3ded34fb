(* In-memory span recorder for the traced run.

   Spans are recorded only from the benchmark's own code, around the
   calls it makes into the library and the daemon, so a traced run
   measures the same program as an untraced one.  Recording is off by
   default; [with_span] then costs one branch and no clock read. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let run_id = ref ""
let recorded : span list ref = ref []
let next_id = ref 0
let lock = Mutex.create ()
let now = Unix.gettimeofday

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let add s = locked (fun () -> recorded := s :: !recorded)

let fresh_id () =
  locked (fun () ->
      incr next_id;
      !next_id)

(** [with_span ~parent name f] runs [f id] inside a span named [name]
    whose parent is [parent]; [f] receives the span's id so nested calls
    can name it as their parent.  The span is recorded even when [f]
    raises. *)
let with_span ?(parent = 0) name f =
  if not !enabled then f 0
  else begin
    let id = fresh_id () in
    let start = now () in
    Fun.protect
      ~finally:(fun () -> add { id; parent; name; start; stop = now () })
      (fun () -> f id)
  end

(** Record an interval measured by the caller. *)
let record ?(parent = 0) name start stop =
  if !enabled then add { id = fresh_id (); parent; name; start; stop }

let start_run id =
  locked (fun () ->
      recorded := [];
      next_id := 0;
      run_id := id);
  enabled := true

let spans () = List.rev !recorded
let dur s = s.stop -. s.start

(** Self time of every span: its duration minus the part of its interval
    covered by the union of its children's intervals. *)
let self_times all =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) all;
  let covered s =
    let clip c = (Float.max c.start s.start, Float.min c.stop s.stop) in
    let ivs =
      Hashtbl.find_all kids s.id |> List.map clip
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let rec union acc (a, b) = function
      | [] -> acc +. (b -. a)
      | (a', b') :: rest when a' <= b -> union acc (a, Float.max b b') rest
      | iv :: rest -> union (acc +. (b -. a)) iv rest
    in
    match ivs with [] -> 0. | iv :: rest -> union 0. iv rest
  in
  let self = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace self s.id (dur s -. covered s)) all;
  self

(** Structural checks on the recorded tree: no span has a negative
    duration or self time, and every child lies inside its parent
    (within [eps] seconds).  Returns the problems found. *)
let check ?(eps = 1e-4) all =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let self = self_times all in
  List.concat_map
    (fun s ->
      let neg =
        if dur s < 0. || Hashtbl.find self s.id < -.eps then
          [ Printf.sprintf "span %s has a negative duration" s.name ]
        else []
      in
      let outside =
        match Hashtbl.find_opt by_id s.parent with
        | Some p when s.start < p.start -. eps || s.stop > p.stop +. eps ->
            [ Printf.sprintf "span %s lies outside its parent %s" s.name p.name ]
        | _ -> []
      in
      neg @ outside)
    all

(** One JSON object per span, in start order, to [path]; times are
    seconds from the first span's start. *)
let write path =
  let all = List.sort (fun a b -> compare a.start b.start) (spans ()) in
  let self = self_times all in
  let t0 = match all with s :: _ -> s.start | [] -> 0. in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}\n"
        !run_id s.id s.parent s.name (s.start -. t0) (s.stop -. t0)
        (Hashtbl.find self s.id))
    all;
  close_out oc
