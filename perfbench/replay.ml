(* replay-alexnet: repeated simulate jobs on one generated design.

   A job is what a user's "simulate" costs on the specialized engine:
   compile the design's trace, bind the parameters, replay a fixed batch.
   The weights come from a fixed seed and sample 0 of every batch is a
   fixed image, so the accuracy figure repeats exactly on every run; the
   other samples come from the workload seed. *)

open Common

let batch_size = 2

type setup = {
  design : Db_core.Design.t;
  params : Db_nn.Params.t;
  batch : (string * Db_tensor.Tensor.t) list list;
}

let setup ~model ~seed =
  Db_core.Design_cache.clear ();
  let net = Trace.span "nn.import" (fun () -> Db_nn.Caffe.import_string (source model)) in
  let cons = Db_core.Constraints.parse default_script in
  let design =
    Trace.span "core.generate" (fun () -> Db_core.Design_cache.generate cons net)
  in
  let params =
    Trace.span "nn.params" (fun () ->
        Db_nn.Params.init_xavier (Db_util.Rng.create 1) net)
  in
  let fixed = random_inputs (Db_util.Rng.create 0) net 1 in
  let seeded = random_inputs (Db_util.Rng.create seed) net (batch_size - 1) in
  { design; params; batch = fixed @ seeded }

(* One job; also returns the seconds each of its three phases took. *)
let job s =
  let t0 = Trace.now () in
  let spec = Trace.span "sim.compile_trace" (fun () -> Db_sim.Specialize.compile s.design) in
  let t1 = Trace.now () in
  let bound = Trace.span "sim.bind" (fun () -> Db_sim.Specialize.bind spec s.params) in
  let t2 = Trace.now () in
  let out = Trace.span "sim.replay" (fun () -> Db_sim.Specialize.output_batch bound ~batch:s.batch) in
  (out, (t1 -. t0, t2 -. t1, Trace.now () -. t2))

type measured = {
  times : float list;
  phases : (float * float * float) list;  (** compile, bind, replay *)
  outputs : Db_tensor.Tensor.t list list;
  cpu : float;
  wall : float;
}

let measure s ~seconds ~min_jobs =
  let c0 = cpu_s () and t0 = Trace.now () in
  let rec loop i times outs =
    if i >= min_jobs && Trace.now () -. t0 >= seconds then (times, List.rev outs)
    else begin
      (* Every job starts from a collected heap: the previous job's trace
         and bound parameters are garbage by now. *)
      Gc.full_major ();
      let j0 = Trace.now () in
      let out = Trace.with_request (i + 1) (fun () -> job s) in
      loop (i + 1) ((Trace.now () -. j0) :: times) (out :: outs)
    end
  in
  let times, outs = loop 0 [] [] in
  {
    times = List.rev times;
    phases = List.map snd outs;
    outputs = List.map fst outs;
    cpu = cpu_s () -. c0;
    wall = Trace.now () -. t0;
  }

let checks s m =
  let first = List.hd m.outputs in
  let generic =
    Db_sim.Simulator.functional_output_generic s.design s.params ~inputs:(List.hd s.batch)
  in
  let report = Db_core.Checker.check s.design in
  [
    ("sample 0 equals the generic engine bitwise", bitwise_equal (List.hd first) generic);
    ( "every job returns identical outputs",
      List.for_all (fun o -> List.for_all2 bitwise_equal first o) m.outputs );
    ( "zero analysis errors",
      Db_analysis.Diagnostic.errors (Db_core.Design.analyze s.design) = [] );
    ("checker ok", Db_core.Checker.ok report);
  ]

let rel_error_of s m =
  let golden =
    Db_nn.Interpreter.output s.design.Db_core.Design.network s.params
      ~inputs:(List.hd s.batch)
  in
  rel_error ~golden ~approx:(List.hd (List.hd m.outputs))

let layer_metrics s m =
  let selfs = Trace.self_times () in
  let self n = Option.value (Hashtbl.find_opt selfs n) ~default:0.0 in
  let macs =
    float_of_int
      ((Db_sim.Simulator.timing s.design).Db_sim.Simulator.macs
      * batch_size * List.length m.times)
  in
  [
    ("nn.params_s", self "nn.params");
    ("core.generate_s", self "core.generate");
    ("sim.compile_trace_s", self "sim.compile_trace");
    ("sim.bind_s", self "sim.bind");
    ("sim.replay_s", self "sim.replay");
    ("sim.replay.macs", macs);
    ("sim.replay.ns_per_mac", self "sim.replay" *. 1e9 /. macs);
  ]

let run ~seed ~seconds ~trace =
  let model = "alexnet" in
  let s, setup_s = repeat_setup 3 (fun _ -> setup ~model ~seed) in
  let m = measure s ~seconds ~min_jobs:4 in
  let modeled = [ (model, modeled_of s.design) ] in
  print_modeled modeled;
  let lat = List.map (fun t -> t *. 1000.0) m.times in
  Printf.printf "replay-alexnet: %d jobs of %d samples in %.2f s; job seconds (compile+bind+replay): %s\n"
    (List.length m.times) batch_size m.wall
    (String.concat " "
       (List.map2
          (fun t (c, b, r) -> Printf.sprintf "%.3f(%.2f+%.2f+%.2f)" t c b r)
          m.times m.phases));
  let found = checks s m in
  let rel = rel_error_of s m in
  if not trace then
    {
      attempted = List.length m.times;
      failed = 0;
      checks = found;
      metrics =
        end_to_end ~setup_s ~op_ms:lat
          ~rate:(float_of_int (List.length m.times) /. m.wall)
          ~rss:(peak_rss_mb ()) ~modeled ~rel;
    }
  else begin
    Trace.enabled := true;
    let s, _ = repeat_setup 1 (fun _ -> setup ~model ~seed) in
    let t = measure s ~seconds ~min_jobs:4 in
    let traced = List.map (fun t -> t *. 1000.0) t.times in
    {
      attempted = List.length m.times + List.length t.times;
      failed = 0;
      checks = found;
      metrics =
        layer_metrics s t
        @ [
            ("parallel.cpu_util", t.cpu /. (t.wall *. float_of_int (jobs ())));
            ("trace.overhead_ms", median traced -. median lat);
          ];
    }
  end

(* The simulation layers on a small design, for traced runs of workloads
   that do not simulate. *)
let probe ~seed =
  let s = setup ~model:"mnist" ~seed in
  let m = measure s ~seconds:0.0 ~min_jobs:2 in
  layer_metrics s m
