(* explore-faults-mnist: design-space exploration with every objective axis
   (the silent-fault fraction included), then a large fault campaign, in
   rounds on the mnist design.  Thousands of small replays, cache dedupe
   and parameter swaps: per-call overhead dominates, not kernels. *)

open Common

let budget = 40
let campaign_trials = 2000

type setup = {
  cons : Db_core.Constraints.t;
  net : Db_nn.Network.t;
  design : Db_core.Design.t;
  params : Db_nn.Params.t;
  blob : string;
  inputs : Db_tensor.Tensor.t array;
}

let setup () =
  Db_core.Design_cache.clear ();
  let net = Trace.span "nn.import" (fun () -> Db_nn.Caffe.import_string (source "mnist")) in
  let cons = Db_core.Constraints.parse default_script in
  let design =
    Trace.span "core.generate" (fun () -> Db_core.Design_cache.generate cons net)
  in
  let params =
    Trace.span "nn.params" (fun () ->
        Db_nn.Params.init_xavier (Db_util.Rng.create 1) net)
  in
  let blob, _ = input_of net in
  let inputs =
    Array.of_list (List.map (fun s -> snd (List.hd s)) (random_inputs (Db_util.Rng.create 0) net 4))
  in
  { cons; net; design; params; blob; inputs }

let explore_config round_seed ~budget =
  {
    Db_dse.Explore.default_config with
    Db_dse.Explore.seed = round_seed;
    budget;
    axes = Db_core.Objective.all_axes;
  }

let campaign_config round_seed ~trials =
  { Db_fault.Campaign.default_config with Db_fault.Campaign.seed = round_seed; trials }

type round = {
  explore_s : float;
  campaign_s : float;
  explored : Db_dse.Explore.result;
  campaign : Db_fault.Campaign.result;
}

(* Round [i] explores with seed [i + 1] on every run, so each run
   explores the same candidates and its time compares like with like; the
   workload seed picks the campaign's fault draws. *)
let round s ~seed i ~budget ~trials =
  let t0 = Trace.now () in
  let explored =
    Trace.span "dse.explore" (fun () ->
        Db_dse.Explore.explore ~config:(explore_config (i + 1) ~budget) s.cons s.net)
  in
  let t1 = Trace.now () in
  let campaign =
    Trace.span "fault.campaign" (fun () ->
        Db_fault.Campaign.run ~design:s.design ~params:s.params ~input_blob:s.blob
          ~inputs:s.inputs (campaign_config ((seed * 1000) + i) ~trials))
  in
  { explore_s = t1 -. t0; campaign_s = Trace.now () -. t1; explored; campaign }

type measured = {
  rounds : (int * round) list;  (** index, round *)
  wall : float;
  cpu : float;
  hits : int;
  misses : int;
}

let measure s ~seed ~seconds ~min_rounds ~budget ~trials =
  let h0, m0 = Db_core.Design_cache.stats () in
  let c0 = cpu_s () and t0 = Trace.now () in
  let rec loop i acc =
    if i >= min_rounds && Trace.now () -. t0 >= seconds then List.rev acc
    else
      let r = Trace.with_request (i + 1) (fun () -> round s ~seed i ~budget ~trials) in
      loop (i + 1) ((i, r) :: acc)
  in
  let rounds = loop 0 [] in
  let wall = Trace.now () -. t0 and cpu = cpu_s () -. c0 in
  let h1, m1 = Db_core.Design_cache.stats () in
  { rounds; wall; cpu; hits = h1 - h0; misses = m1 - m0 }

(* The first round again, off the clock: same seed, same bytes. *)
let checks s m ~seed ~budget ~trials =
  let _, r0 = List.hd m.rounds in
  let again = round s ~seed 0 ~budget ~trials in
  [
    ( "explore JSON repeats for the same seed",
      Db_dse.Explore.render_json r0.explored = Db_dse.Explore.render_json again.explored );
    ( "campaign JSON repeats for the same seed",
      Db_fault.Campaign.render_json r0.campaign
      = Db_fault.Campaign.render_json again.campaign );
    ("every round has a non-empty front",
      List.for_all (fun (_, r) -> r.explored.Db_dse.Explore.r_front <> []) m.rounds);
    ( "zero analysis errors",
      Db_analysis.Diagnostic.errors (Db_core.Design.analyze s.design) = [] );
    ("checker ok", Db_core.Checker.ok (Db_core.Checker.check s.design));
  ]

let sumi f m = List.fold_left (fun acc (_, r) -> acc + f r) 0 m.rounds

let layer_metrics m =
  let selfs = Trace.self_times () in
  let self n = Option.value (Hashtbl.find_opt selfs n) ~default:0.0 in
  let evaluated = sumi (fun r -> r.explored.Db_dse.Explore.r_evaluated) m in
  let proposed = sumi (fun r -> r.explored.Db_dse.Explore.r_proposed) m in
  let infeasible = sumi (fun r -> r.explored.Db_dse.Explore.r_infeasible) m in
  let injections =
    sumi (fun r -> r.campaign.Db_fault.Campaign.res_total.Db_fault.Campaign.injections) m
  in
  [
    ("dse.explore_s", self "dse.explore");
    ("dse.evaluated", float_of_int evaluated);
    ("dse.deduped", float_of_int (sumi (fun r -> r.explored.Db_dse.Explore.r_deduped) m));
    ("dse.infeasible", float_of_int infeasible);
    ("dse.useful_ratio", float_of_int (evaluated - infeasible) /. float_of_int (max 1 proposed));
    ("dse.candidates_per_s", float_of_int evaluated /. self "dse.explore");
    ("core.design_cache.hits", float_of_int m.hits);
    ("core.design_cache.misses", float_of_int m.misses);
    ( "core.design_cache.hit_ratio",
      float_of_int m.hits /. float_of_int (max 1 (m.hits + m.misses)) );
    ("fault.campaign_s", self "fault.campaign");
    ("fault.injections", float_of_int injections);
    ("fault.injections_per_s", float_of_int injections /. self "fault.campaign");
  ]

let round_ms m = List.map (fun (_, r) -> (r.explore_s +. r.campaign_s) *. 1000.0) m.rounds

let run ~seed ~seconds ~trace =
  let s, setup_s = repeat_setup 5 (fun _ -> setup ()) in
  let m = measure s ~seed ~seconds ~min_rounds:3 ~budget ~trials:campaign_trials in
  let modeled = [ ("mnist", modeled_of s.design) ] in
  print_modeled modeled;
  let evaluated = sumi (fun r -> r.explored.Db_dse.Explore.r_evaluated) m in
  let injections =
    sumi (fun r -> r.campaign.Db_fault.Campaign.res_total.Db_fault.Campaign.injections) m
  in
  let explore_s = List.fold_left (fun a (_, r) -> a +. r.explore_s) 0.0 m.rounds in
  let campaign_s = List.fold_left (fun a (_, r) -> a +. r.campaign_s) 0.0 m.rounds in
  Printf.printf
    "explore-faults-mnist: %d rounds in %.2f s; %.1f candidates/s; %.0f injections/s; cache hits %d misses %d\n"
    (List.length m.rounds) m.wall
    (float_of_int evaluated /. explore_s)
    (float_of_int injections /. campaign_s)
    m.hits m.misses;
  let found = checks s m ~seed ~budget ~trials:campaign_trials in
  let lat = round_ms m in
  let rel = reference_rel_error "mnist" in
  if not trace then
    {
      attempted = List.length m.rounds;
      failed = 0;
      checks = found;
      metrics =
        end_to_end ~setup_s ~op_ms:lat
          ~rate:(float_of_int (List.length m.rounds) /. m.wall)
          ~rss:(peak_rss_mb ()) ~modeled ~rel;
    }
  else begin
    Trace.enabled := true;
    let s = setup () in
    let t = measure s ~seed ~seconds ~min_rounds:3 ~budget ~trials:campaign_trials in
    {
      attempted = List.length m.rounds + List.length t.rounds;
      failed = 0;
      checks = found;
      metrics =
        layer_metrics t
        @ [
            ("parallel.cpu_util", t.cpu /. (t.wall *. float_of_int (jobs ())));
            ("trace.overhead_ms", median (round_ms t) -. median lat);
          ];
    }
  end

let probe ~seed =
  let s = setup () in
  layer_metrics (measure s ~seed ~seconds:0.0 ~min_rounds:1 ~budget:8 ~trials:200)
