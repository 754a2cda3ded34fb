(* The layer replay of the traced run: time each layer's public entry
   points on the states and winners a workload produced.

   Every function here is called from outside the library, on inputs the
   workload itself generated, so the per-layer figures describe the
   workload's own programs rather than a fixed micro-benchmark. *)

open Perfdojo
module Stoch = Search.Stochastic

type target_info = {
  tname : string;  (** canonical short name, e.g. ["x86"] *)
  target : Machine.Desc.target;
  caps : Transform.Xforms.caps;  (** atomic moves of the target *)
  composite_caps : Transform.Xforms.caps;  (** plus every composite *)
}

let target_info tname =
  match Machine.Desc.resolve_target tname with
  | None -> invalid_arg ("unknown target " ^ tname)
  | Some (tname, target) ->
      let composites = Ctx.(default |> with_composites [ "all" ]) in
      {
        tname;
        target;
        caps = Machine.caps target;
        composite_caps = caps_of ~ctx:composites target;
      }

(** A workload's winner: the schedule it found for one (kernel, target)
    pair, as a move path from the root. *)
type winner = {
  kernel : string;
  entry : Kernels.entry;  (** builds the root; its label is [kernel] *)
  ti : target_info;
  caps : Transform.Xforms.caps;  (** the caps the path replays under *)
  root : Ir.Prog.t;
  moves : string list;
  time_s : float;
}

type state = { sti : target_info; prog : Ir.Prog.t }

let family (t : Machine.Desc.target) =
  match t with
  | Machine.Desc.Cpu _ -> "cpu"
  | Machine.Desc.Snitch _ -> "snitch"
  | Machine.Desc.Gpu _ -> "gpu"

(** The states along a winner's path, root first. *)
let path_states (w : winner) =
  let rec go p acc = function
    | [] -> List.rev acc
    | m :: rest -> (
        match Transform.Xforms.lookup (Transform.Xforms.all w.caps p) m with
        | None -> List.rev acc
        | Some inst ->
            let q = inst.apply p in
            go q ({ sti = w.ti; prog = q } :: acc) rest)
  in
  go w.root [ { sti = w.ti; prog = w.root } ] w.moves

(** At most [n] elements of [xs], evenly spread. *)
let spread n xs =
  let a = Array.of_list xs in
  let len = Array.length a in
  if len <= n then a else Array.init n (fun i -> a.(i * len / n))

(** Mean seconds per call of [f] over [xs], inside a span [name]. *)
let per_call ~parent name xs f =
  Tracer.with_span ~parent name (fun _ ->
      let n = Array.length xs in
      if n = 0 then 0.
      else begin
        let t0 = Tracer.now () in
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
        (Tracer.now () -. t0) /. float_of_int n
      end)

type result = {
  values : (string * float) list;  (** per-layer metric, value *)
  states : int;  (** corpus size the timings ran on *)
}

let us s = s *. 1e6
let ms s = s *. 1e3

(** Replay every layer on [states] (sampled from the run) and [winners].
    [work] is a scratch directory; [kernels] is the registry an
    in-process server needs to resolve the winners' kernel labels. *)
let run ~parent ~work ~kernels ~(states : state list) ~(winners : winner list)
    =
  Tracer.with_span ~parent "layer_replay" (fun lr ->
      let states =
        spread 240
          (states
          @ List.concat_map (fun w -> Array.to_list (spread 8 (path_states w)))
              winners)
      in
      let winners_a = Array.of_list winners in
      let canon =
        per_call ~parent:lr "layer.canon.fingerprint" states (fun s ->
            Canon.fingerprint s.prog)
      in
      let enumerate =
        per_call ~parent:lr "layer.transform.enumerate" states (fun s ->
            Transform.Xforms.all s.sti.caps s.prog)
      in
      let instances =
        Array.map
          (fun s -> (s, Transform.Xforms.all s.sti.caps s.prog))
          states
      in
      let n_inst =
        Array.fold_left (fun acc (_, is) -> acc + List.length is) 0 instances
      in
      let applications =
        spread 3000
          (List.concat_map
             (fun (s, is) -> List.map (fun i -> (s, i)) is)
             (Array.to_list instances))
      in
      let apply =
        per_call ~parent:lr "layer.transform.apply" applications
          (fun (s, (i : Transform.Xforms.instance)) ->
            try Some (i.apply s.prog) with _ -> None)
      in
      let replay =
        per_call ~parent:lr "layer.transform.replay" winners_a (fun w ->
            Stoch.replay_skipping w.caps w.root w.moves)
      in
      let composite =
        per_call ~parent:lr "layer.transfo.enumerate" states (fun s ->
            Transform.Xforms.all s.sti.composite_caps s.prog)
      in
      let evaluate fam =
        let xs =
          Array.of_list
            (List.filter
               (fun s -> family s.sti.target = fam)
               (Array.to_list states))
        in
        ( per_call ~parent:lr ("layer.machine.evaluate." ^ fam) xs (fun s ->
              Machine.time s.sti.target s.prog),
          Array.length xs )
      in
      let cpu, n_cpu = evaluate "cpu" in
      let snitch, n_snitch = evaluate "snitch" in
      let gpu, n_gpu = evaluate "gpu" in
      let features =
        per_call ~parent:lr "layer.surrogate.features" states (fun s ->
            Surrogate.Features.extract s.prog)
      in
      let model = Surrogate.Model.create () in
      let score =
        per_call ~parent:lr "layer.surrogate.score" states (fun s ->
            Surrogate.Model.score_prog model s.prog)
      in
      (* tuning: the winners as database records *)
      let records =
        List.filter_map
          (fun w ->
            match
              Tuning.Warmstart.record_of
                ~objective:(Machine.time w.ti.target)
                ~caps:w.caps ~kernel:w.kernel ~target:w.ti.tname ~root:w.root
                ~moves:w.moves ~evals:0
            with
            | Ok r -> Some r
            | Error _ -> None)
          winners
      in
      let db = Tuning.Db.create () in
      List.iter (fun r -> ignore (Tuning.Db.add db r)) records;
      let query =
        per_call ~parent:lr "layer.tuning.db_query" winners_a (fun w ->
            Tuning.Db.best db ~kernel:w.kernel ~target:w.ti.tname)
      in
      let db_file = Filename.concat work "replay-db.jsonl" in
      let save =
        per_call ~parent:lr "layer.tuning.db_save" (Array.make 5 ()) (fun () ->
            Tuning.Db.save db db_file)
      in
      let journal_file = Filename.concat work "replay.wal" in
      let journal = Recover.Journal.open_writer journal_file in
      let record_json =
        Array.of_list
          (List.filter_map
             (fun r -> Result.to_option (Util.Json.of_string (Tuning.Record.to_json r)))
             records)
      in
      let append =
        per_call ~parent:lr "layer.recover.journal_append" record_json (fun j ->
            Recover.Journal.append journal j)
      in
      Recover.Journal.close journal;
      let module P = Serve.Protocol in
      let request (w : winner) =
        P.Optimize
          {
            id = 1;
            kernel = w.kernel;
            target = w.ti.tname;
            strategy = "annealing";
            budget = 0;
            deadline_ms = 0;
            force = false;
          }
      in
      let response (w : winner) =
        P.Optimized
          {
            id = 1;
            kernel = w.kernel;
            target = w.ti.tname;
            warm = true;
            time_s = w.time_s;
            moves = w.moves;
            script = "";
            evaluations = 0;
            failures = 0;
          }
      in
      let frame =
        per_call ~parent:lr "layer.serve.frame_roundtrip" winners_a (fun w ->
            let trip encode decode msg =
              match Serve.Frame.decode (Serve.Frame.encode (encode msg)) with
              | Ok (payload, _) -> Result.is_ok (decode payload)
              | Error _ -> false
            in
            trip P.encode_request P.decode_request (request w)
            && trip P.encode_response P.decode_response (response w))
      in
      (* an in-process server over the same records: the warm path
         without the transport *)
      let server =
        Serve.Server.create
          { Serve.Server.default_config with db_file = Some db_file; kernels }
      in
      let warm_hits = ref 0 in
      let warm =
        Fun.protect
          ~finally:(fun () -> Serve.Server.stop server)
          (fun () ->
            per_call ~parent:lr "layer.serve.warm_inproc" winners_a (fun w ->
                match Serve.Server.submit server (request w) with
                | P.Optimized { warm = true; _ } -> incr warm_hits
                | _ -> ()))
      in
      let bytes = ref 0 in
      let codegen =
        per_call ~parent:lr "layer.codegen.program" winners_a (fun w ->
            let p, _ = Stoch.replay_skipping w.caps w.root w.moves in
            bytes := !bytes + String.length (Codegen.program p))
      in
      let n_states = Array.length states in
      let n_w = max 1 (Array.length winners_a) in
      {
        states = n_states;
        values =
          [
            ("canon.fingerprint_us", us canon);
            ("transform.enumerate_us", us enumerate);
            ( "transform.instances_per_state",
              float_of_int n_inst /. float_of_int (max 1 n_states) );
            ("transform.apply_us", us apply);
            ("transform.replay_us", us replay);
            ("transfo.enumerate_us", us composite);
            ("machine.evaluate_us.cpu", us cpu);
            ("machine.evaluate_us.snitch", us snitch);
            ("machine.evaluate_us.gpu", us gpu);
            ("machine.evaluate_n.cpu", float_of_int n_cpu);
            ("machine.evaluate_n.snitch", float_of_int n_snitch);
            ("machine.evaluate_n.gpu", float_of_int n_gpu);
            ("surrogate.features_us", us features);
            ("surrogate.score_us", us score);
            ("tuning.db_query_us", us query);
            ("tuning.db_save_ms", ms save);
            ("recover.journal_append_ms", ms append);
            ("serve.frame_roundtrip_us", us frame);
            ("serve.warm_inproc_us", us warm);
            ("serve.warm_inproc_hits", float_of_int !warm_hits);
            ("codegen.program_ms", ms codegen);
            ("codegen.bytes", float_of_int !bytes /. float_of_int n_w);
            ("layer.states", float_of_int n_states);
          ];
      })
