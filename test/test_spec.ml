(* Property tests for the specialized simulation engine (DESIGN.md §14):
   for every zoo model, the compiled-trace replay must be bitwise-identical
   to the generic engine — output tensors, sim.*/agu.* observability
   counters, and control-replay cycles — at any pool width, and the batched
   entry point must reproduce the per-sample results exactly.  These are
   the properties the fault campaign's [Specialized] engine relies on. *)

module Simulator = Db_sim.Simulator
module Specialize = Db_sim.Specialize
module Constraints = Db_core.Constraints
module Design_cache = Db_core.Design_cache
module Zoo = Db_workloads.Model_zoo
module Network = Db_nn.Network
module Layer = Db_nn.Layer
module Params = Db_nn.Params
module Tensor = Db_tensor.Tensor
module Pool = Db_parallel.Pool
module Obs = Db_obs.Obs

(* Every model the zoo ships (the `ir`/`lint` gates enumerate the same
   twelve).  ANN-scale nets are covered via the campaign test below. *)
let zoo_models =
  [
    ("mlp", Zoo.mlp_prototxt);
    ("cmac", Zoo.cmac_prototxt);
    ("cmac-surrogate", Zoo.cmac_surrogate_prototxt);
    ("mnist", Zoo.mnist_prototxt);
    ("cifar", Zoo.cifar_prototxt);
    ("cifar-lite", Zoo.cifar_lite_prototxt);
    ("alexnet", Zoo.alexnet_prototxt);
    ("nin", Zoo.nin_prototxt);
    ("googlenet-like", Zoo.googlenet_like_prototxt);
    ("lenet5", Zoo.lenet5_prototxt);
    ("vgg16", Zoo.vgg16_prototxt);
    ("hopfield", Zoo.hopfield_prototxt ~cities:5);
  ]

let design_of prototxt =
  let net = Zoo.build prototxt in
  Design_cache.generate (Constraints.with_dsp_cap Constraints.db_medium 8) net

let inputs_for ~seed design =
  let net = design.Db_core.Design.network in
  let rng = Db_util.Rng.create seed in
  let params = Params.init_xavier rng net in
  let inputs =
    List.concat_map
      (fun node ->
        match node.Network.layer with
        | Layer.Input { shape } ->
            List.map
              (fun top ->
                (top, Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0))
              node.Network.tops
        | _ -> [])
      (Network.input_nodes net)
  in
  (params, inputs)

(* Run [f] with the obs layer on and return its sim.*/agu.* counters. *)
let engine_counters f =
  Obs.set_enabled true;
  Obs.reset ();
  let result = f () in
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  Obs.reset ();
  let prefixed (name, _) =
    String.length name >= 4
    && (String.sub name 0 4 = "sim." || String.sub name 0 4 = "agu.")
  in
  (result, List.filter prefixed snap.Obs.counters)

let check_model (name, prototxt) () =
  let design = design_of prototxt in
  let params, inputs = inputs_for ~seed:11 design in
  let spec_out, spec_counters =
    engine_counters (fun () ->
        Simulator.functional_output design params ~inputs)
  in
  let gen_out, gen_counters =
    engine_counters (fun () ->
        Simulator.functional_output_generic design params ~inputs)
  in
  Alcotest.(check bool)
    (name ^ ": specialized output bitwise-equals generic")
    true
    (Tensor.equal_bits spec_out gen_out);
  Alcotest.(check (list (pair string int)))
    (name ^ ": sim.*/agu.* counters identical")
    gen_counters spec_counters;
  (* Control replay: closed-form trace cycles vs the cycle-accurate AGU
     machine, under a watchdog budget sized from the trace itself —
     alexnet/vgg16-class designs replay hundreds of millions of control
     cycles. *)
  let cycles = Specialize.control_cycles (Specialize.of_design design) in
  let budget = (2 * cycles) + 1_000 in
  Alcotest.(check int)
    (name ^ ": control cycles")
    cycles
    (Simulator.replay_control ~cycle_budget:budget design);
  (* The generic machine clocks every FSM step, so cross-check against it
     only where that stays tractable; the AGU enclosure gate covers the
     machine itself on every access pattern. *)
  if cycles <= 60_000_000 then
    Alcotest.(check int)
      (name ^ ": control cycles (cycle-accurate)")
      cycles
      (Simulator.replay_control_generic ~cycle_budget:budget design)

let test_jobs_invariance () =
  (* The engines must produce the same bits whether the pool fans out
     (DEEPBURNING_JOBS=4, the test environment) or runs sequentially. *)
  let design = design_of Zoo.mnist_prototxt in
  let params, inputs = inputs_for ~seed:23 design in
  let wide = Simulator.functional_output design params ~inputs in
  let narrow =
    Pool.with_sequential (fun () ->
        Simulator.functional_output design params ~inputs)
  in
  Alcotest.(check bool) "jobs=4 equals jobs=1" true
    (Tensor.equal_bits wide narrow);
  let wide_gen = Simulator.functional_output_generic design params ~inputs in
  Alcotest.(check bool) "specialized equals generic at jobs=4" true
    (Tensor.equal_bits wide wide_gen)

let test_batch_matches_singles () =
  let design = design_of Zoo.lenet5_prototxt in
  let net = design.Db_core.Design.network in
  let rng = Db_util.Rng.create 37 in
  let params = Params.init_xavier rng net in
  let input_node = List.hd (Network.input_nodes net) in
  let shape =
    match input_node.Network.layer with
    | Layer.Input { shape } -> shape
    | _ -> assert false
  in
  let blob = List.hd input_node.Network.tops in
  let samples =
    List.init 6 (fun _ ->
        [ (blob, Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0) ])
  in
  let batched = Simulator.functional_output_batch design params ~batch:samples in
  let singles =
    List.map
      (fun inputs -> Simulator.functional_output design params ~inputs)
      samples
  in
  List.iteri
    (fun i (b, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch sample %d bitwise-equals single call" i)
        true (Tensor.equal_bits b s))
    (List.combine batched singles);
  let sequential =
    Pool.with_sequential (fun () ->
        Simulator.functional_output_batch design params ~batch:samples)
  in
  List.iteri
    (fun i (b, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch sample %d invariant under pool width" i)
        true (Tensor.equal_bits b s))
    (List.combine batched sequential)

let test_campaign_engines_agree () =
  (* The fault campaign's whole observable result — rendered JSON, so every
     outcome class, rate and degradation point — must not depend on the
     engine that produced it. *)
  let net =
    Zoo.build (Zoo.ann_prototxt ~name:"specann" ~inputs:4 ~hidden1:8 ~hidden2:8 ~outputs:3)
  in
  let design =
    Design_cache.generate (Constraints.with_dsp_cap Constraints.db_medium 4) net
  in
  let rng = Db_util.Rng.create 5 in
  let params = Params.init_xavier rng net in
  let input_node = List.hd (Network.input_nodes net) in
  let shape =
    match input_node.Network.layer with
    | Layer.Input { shape } -> shape
    | _ -> assert false
  in
  let blob = List.hd input_node.Network.tops in
  let inputs =
    Array.init 3 (fun _ -> Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0)
  in
  let run engine =
    Db_fault.Campaign.render_json
      (Db_fault.Campaign.run ~design ~params ~input_blob:blob ~inputs
         {
           Db_fault.Campaign.default_config with
           Db_fault.Campaign.trials = 60;
           cycle_budget = 20_000;
           rates = [ 1e-4 ];
           engine;
         })
  in
  Alcotest.(check string) "campaign JSON identical across engines"
    (run Db_fault.Campaign.Generic)
    (run Db_fault.Campaign.Specialized)

(* --- the blocked conv kernel against the generic oracle ----------------- *)

module Fixed = Db_fixed.Fixed
module Quantized = Db_nn.Quantized
module Shape = Db_tensor.Shape

type conv_case = {
  c_fmt : Fixed.format;
  c_group : int;
  c_cin_g : int;
  c_cout_g : int;
  c_k : int;
  c_stride : int;
  c_pad : int;
  c_h : int;
  c_w : int;
  c_bias : bool;
  c_extreme : bool;  (** every weight at the format's min or max *)
  c_seed : int;
}

(* Output channels per group both multiples of four (no tail) and not
   (tail only, or blocks plus tail); inputs down to a single output pixel
   ([h + 2 pad = k]). *)
let conv_case_gen =
  QCheck.Gen.(
    let* c_fmt = oneofl Fixed.[ q8_4; q16_8; q24_12 ] in
    let* c_group = int_range 1 3 in
    let* c_cin_g = int_range 1 4 in
    let* c_cout_g = oneofl [ 1; 2; 3; 4; 5; 7; 8; 9; 12 ] in
    let* c_k = int_range 1 11 in
    let* c_stride = int_range 1 4 in
    let* c_pad = int_range 0 (c_k - 1) in
    let min_hw = Int.max 1 (c_k - (2 * c_pad)) in
    let* c_h = map (( + ) min_hw) (oneofl [ 0; 0; 1; 2; 5; 9 ]) in
    let* c_w = map (( + ) min_hw) (oneofl [ 0; 0; 1; 3; 6; 10 ]) in
    let* c_bias = bool in
    let* c_extreme = bool in
    let+ c_seed = int_bound 1_000_000 in
    { c_fmt; c_group; c_cin_g; c_cout_g; c_k; c_stride; c_pad; c_h; c_w;
      c_bias; c_extreme; c_seed })

let print_conv_case c =
  Printf.sprintf
    "Q%d.%d group=%d cin_g=%d cout_g=%d k=%d stride=%d pad=%d h=%d w=%d \
     bias=%b extreme=%b seed=%d"
    c.c_fmt.Fixed.total_bits c.c_fmt.Fixed.frac_bits c.c_group c.c_cin_g
    c.c_cout_g c.c_k c.c_stride c.c_pad c.c_h c.c_w c.c_bias c.c_extreme
    c.c_seed

let conv_operands c =
  let rng = Db_util.Rng.create c.c_seed in
  let lo = Fixed.min_value c.c_fmt and hi = Fixed.max_value c.c_fmt in
  let any () = lo + Db_util.Rng.int rng (hi - lo + 1) in
  let qt shape gen =
    { Quantized.qshape = shape; qdata = Array.init (Shape.numel shape) (fun _ -> gen ()) }
  in
  let cin = c.c_group * c.c_cin_g and cout = c.c_group * c.c_cout_g in
  let input = qt (Shape.chw ~channels:cin ~height:c.c_h ~width:c.c_w) any in
  let weights =
    qt
      (Shape.of_list [ cout; c.c_cin_g; c.c_k; c.c_k ])
      (if c.c_extreme then fun () -> if Db_util.Rng.bool rng then hi else lo
       else any)
  in
  let bias = if c.c_bias then Some (qt (Shape.vector cout) any) else None in
  (input, weights, bias)

let prop_conv_matches_oracle =
  QCheck.Test.make ~name:"blocked conv = Quantized.qconv2d bitwise" ~count:300
    (QCheck.make ~print:print_conv_case conv_case_gen)
    (fun c ->
      let input, weights, bias = conv_operands c in
      let stride = c.c_stride and pad = c.c_pad and group = c.c_group in
      let oracle () =
        Quantized.qconv2d c.c_fmt ~input ~weights ~bias ~stride ~pad ~group
      in
      let fast () =
        Specialize.conv c.c_fmt ~stride ~pad ~group ~input ~weights ~bias
      in
      let same (a : Quantized.qtensor) (b : Quantized.qtensor) =
        Shape.equal a.Quantized.qshape b.Quantized.qshape
        && a.Quantized.qdata = b.Quantized.qdata
      in
      let wide = oracle () in
      match (fast (), Pool.with_sequential (fun () -> (fast (), oracle ()))) with
      | Some f, (Some f1, narrow) -> same wide f && same wide f1 && same wide narrow
      | None, _ | _, (None, _) ->
          QCheck.Test.fail_reportf "shape guard rejected a well-formed conv")

let suite =
  [
    ( "spec-equivalence",
      List.map
        (fun (name, prototxt) ->
          Alcotest.test_case
            ("spec = generic: " ^ name)
            `Slow
            (check_model (name, prototxt)))
        zoo_models
      @ [
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "batch = singles" `Quick test_batch_matches_singles;
          Alcotest.test_case "campaign engines agree" `Quick
            test_campaign_engines_agree;
          QCheck_alcotest.to_alcotest prop_conv_matches_oracle;
        ] );
  ]
