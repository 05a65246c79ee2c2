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

(* --- the tiled conv kernel against the generic oracle ------------------- *)

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

(* Output channels per group cover every [cout_g mod 4], with and without
   whole four-channel blocks before the tail, in three shape families:
   - small grouped, strided, padded shapes with [k] from 1 to 11, down to a
     single output pixel ([h + 2 pad = k]);
   - one input channel, 3x3, on planes of 100 to 131 pixels a side: more
     than one tile per plane, and odd sides end in an odd last tile;
   - a receptive field of more than [tile_words / 2] words, so every tile
     is a single pixel pair. *)
let conv_case_gen =
  QCheck.Gen.(
    let small =
      let* c_group = int_range 1 3 in
      let* c_cin_g = int_range 1 4 in
      let* c_k = int_range 1 11 in
      let* c_stride = int_range 1 4 in
      let* c_pad = int_range 0 (c_k - 1) in
      let min_hw = Int.max 1 (c_k - (2 * c_pad)) in
      let* c_h = map (( + ) min_hw) (oneofl [ 0; 0; 1; 2; 5; 9 ]) in
      let+ c_w = map (( + ) min_hw) (oneofl [ 0; 0; 1; 3; 6; 10 ]) in
      (c_group, c_cin_g, c_k, c_stride, c_pad, c_h, c_w)
    in
    let multi_tile =
      let* c_group = int_range 1 2 in
      let* c_pad = int_range 0 1 in
      let* c_h = int_range 100 131 in
      let+ c_w = int_range 100 131 in
      (c_group, 1, 3, 1, c_pad, c_h, c_w)
    in
    let wide_field =
      let* c_k = oneofl [ 3; 5 ] in
      let* extra = int_range 1 8 in
      let* c_stride = int_range 1 2 in
      let* c_pad = int_range 0 1 in
      let* c_h = int_range (c_k - (2 * c_pad)) (c_k + 2) in
      let+ c_w = int_range (c_k - (2 * c_pad)) (c_k + 2) in
      let c_cin_g = (Specialize.tile_words / 2 / (c_k * c_k)) + extra in
      (1, c_cin_g, c_k, c_stride, c_pad, c_h, c_w)
    in
    let* c_group, c_cin_g, c_k, c_stride, c_pad, c_h, c_w =
      frequency [ (8, small); (1, multi_tile); (1, wide_field) ]
    in
    let* c_fmt = oneofl Fixed.[ q8_4; q16_8; q24_12 ] in
    let* c_cout_g = oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 12 ] in
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

let same_qtensor (a : Quantized.qtensor) (b : Quantized.qtensor) =
  Shape.equal a.Quantized.qshape b.Quantized.qshape
  && a.Quantized.qdata = b.Quantized.qdata

let oracle_conv c (input, weights, bias) =
  Quantized.qconv2d c.c_fmt ~input ~weights ~bias ~stride:c.c_stride
    ~pad:c.c_pad ~group:c.c_group

let tiled_conv c (input, weights, bias) =
  Specialize.conv c.c_fmt ~stride:c.c_stride ~pad:c.c_pad ~group:c.c_group
    ~input ~weights ~bias

let prop_conv_matches_oracle =
  QCheck.Test.make ~name:"tiled conv = Quantized.qconv2d bitwise" ~count:300
    (QCheck.make ~print:print_conv_case conv_case_gen)
    (fun c ->
      let ops = conv_operands c in
      let wide = oracle_conv c ops in
      let narrow () = (tiled_conv c ops, oracle_conv c ops) in
      match (tiled_conv c ops, Pool.with_sequential narrow) with
      | Some f, (Some f1, narrow) ->
          same_qtensor wide f && same_qtensor wide f1 && same_qtensor wide narrow
      | None, _ | _, (None, _) ->
          QCheck.Test.fail_reportf "shape guard rejected a well-formed conv")

(* Named edge shapes, run back to back on one domain from the largest
   scratch footprint down, so a call that read a word an earlier, larger
   call left behind in the per-domain patch or weight buffer would differ
   from the oracle. *)
let test_conv_edge_shapes () =
  let case ?(group = 1) ?(stride = 1) ?(pad = 0) ?(fmt = Fixed.q16_8) ~cin_g
      ~cout_g ~k ~h ~w seed =
    { c_fmt = fmt; c_group = group; c_cin_g = cin_g; c_cout_g = cout_g; c_k = k;
      c_stride = stride; c_pad = pad; c_h = h; c_w = w; c_bias = true;
      c_extreme = false; c_seed = seed }
  in
  let kk c = c.c_cin_g * c.c_k * c.c_k in
  let tile_px c = Int.max 2 ((Specialize.tile_words / kk c) land lnot 1) in
  let plane c =
    let out n = ((n + (2 * c.c_pad) - c.c_k) / c.c_stride) + 1 in
    out c.c_h * out c.c_w
  in
  let wide_cin = (Specialize.tile_words / 2 / 9) + 1 in
  let cases =
    [
      ( "field over half a tile, odd plane",
        case ~pad:1 ~cin_g:wide_cin ~cout_g:7 ~k:3 ~h:3 ~w:5 1 );
      ( "multi-tile plane, odd last tile",
        case ~pad:1 ~cin_g:1 ~cout_g:5 ~k:3 ~h:101 ~w:103 2 );
      ( "multi-tile plane, even",
        case ~group:2 ~cin_g:1 ~cout_g:4 ~k:3 ~h:100 ~w:100 3 );
      ( "cout_g mod 4 = 2",
        case ~group:2 ~pad:2 ~cin_g:3 ~cout_g:6 ~k:5 ~h:9 ~w:8 4 );
      ("k = 1", case ~cin_g:3 ~cout_g:4 ~k:1 ~h:9 ~w:7 5);
      ( "cout_g mod 4 = 1, strided",
        case ~stride:3 ~pad:1 ~cin_g:2 ~cout_g:5 ~k:4 ~h:10 ~w:11 6 );
      ( "cout_g mod 4 = 3, Q8.4",
        case ~fmt:Fixed.q8_4 ~cin_g:2 ~cout_g:3 ~k:2 ~h:5 ~w:4 7 );
      ("single output pixel", case ~cin_g:1 ~cout_g:1 ~k:3 ~h:3 ~w:3 8);
    ]
  in
  let covered what p =
    Alcotest.(check bool) ("cases include " ^ what) true
      (List.exists (fun (_, c) -> p c) cases)
  in
  covered "a plane over one tile with an odd last tile" (fun c ->
      plane c > tile_px c && plane c mod tile_px c land 1 = 1);
  covered "a two-pixel tile" (fun c -> kk c > Specialize.tile_words / 2);
  covered "an odd two-pixel plane" (fun c ->
      kk c > Specialize.tile_words / 2 && plane c land 1 = 1);
  List.iter
    (fun m ->
      covered (Printf.sprintf "cout_g mod 4 = %d" m) (fun c -> c.c_cout_g mod 4 = m))
    [ 0; 1; 2; 3 ];
  covered "k = 1" (fun c -> c.c_k = 1);
  List.iter
    (fun (name, c) ->
      let ops = conv_operands c in
      match tiled_conv c ops with
      | Some out ->
          Alcotest.(check bool) (name ^ ": equals Quantized.qconv2d") true
            (same_qtensor out (oracle_conv c ops))
      | None -> Alcotest.failf "%s: shape guard rejected a well-formed conv" name)
    cases

(* --- integer ReLU and Sign against the float formula --------------------- *)

(* Every word of Q8.4 and Q16.8, and for Q32.16 random in-format words plus
   out-of-format ints around 2^52, 2^62 and the int range's ends: the
   integer maps equal requantising the float activation under both the
   exact evaluator and a design's LUT evaluator. *)
let test_integer_relu_sign () =
  let lut_eval =
    Specialize.lut_eval (Specialize.of_design (design_of Zoo.mnist_prototxt))
  in
  let words fmt =
    let lo = Fixed.min_value fmt and hi = Fixed.max_value fmt in
    if hi - lo < 1 lsl 17 then Array.init (hi - lo + 1) (fun i -> lo + i)
    else begin
      let rng = Db_util.Rng.create 41 in
      let edges =
        List.concat_map
          (fun v -> [ v - 3; v - 1; v; v + 1; v + 3; -v - 3; -v; -v + 3 ])
          [ 0; hi; 1 lsl 31; 1 lsl 52; 1 lsl 53; 1 lsl 61; 1 lsl 62 - 256 ]
      in
      Array.of_list
        ([ min_int; min_int + 1; max_int; max_int - 1 ]
        @ edges
        @ List.init 20_000 (fun _ -> lo + Db_util.Rng.int rng (hi - lo + 1)))
    end
  in
  List.iter
    (fun fmt ->
      let data = words fmt in
      let q = { Quantized.qshape = Shape.vector (Array.length data); qdata = data } in
      List.iter
        (fun (act, name, map) ->
          List.iter
            (fun (ename, (eval : Quantized.function_eval)) ->
              let f = eval.Quantized.eval_activation act in
              let expected =
                Array.map
                  (fun v -> Fixed.of_float fmt (f (Fixed.to_float fmt v)))
                  q.Quantized.qdata
              in
              let got = (map fmt q).Quantized.qdata in
              Array.iteri
                (fun i v ->
                  if got.(i) <> expected.(i) then
                    Alcotest.failf "%s %s (%s) of %d: integer %d, float formula %d"
                      name
                      (Format.asprintf "%a" Fixed.pp_format fmt)
                      ename v got.(i) expected.(i))
                q.Quantized.qdata)
            [ ("exact", Quantized.exact_eval); ("lut", lut_eval) ])
        [ (Layer.Relu, "relu", Quantized.qrelu);
          (Layer.Sign, "sign", Quantized.qsign) ])
    Fixed.[ q8_4; q16_8; q32_16 ]

(* --- parallel bind -------------------------------------------------------- *)

(* [bind] fills its tensors in [bind_chunk]-word chunks across the pool; a
   sequential bind, a 4-wide one and the per-tensor oracle must agree on
   every node.  NIN's conv2 weights (256x96x5x5) span several chunks and
   end in a partial one. *)
let test_bind_pool_width () =
  let design = design_of Zoo.nin_prototxt in
  let net = design.Db_core.Design.network in
  let params, _ = inputs_for ~seed:29 design in
  let spec = Specialize.of_design design in
  let chunk = Specialize.bind_chunk in
  Alcotest.(check bool)
    "a tensor spans several chunks and ends in a partial one" true
    (List.exists
       (fun node ->
         (not (Layer.is_input node.Network.layer))
         && List.exists
              (fun t -> Tensor.numel t > chunk && Tensor.numel t mod chunk <> 0)
              (Params.get params node.Network.node_name))
       net.Network.nodes);
  let wide = Specialize.bind spec params in
  let narrow = Pool.with_sequential (fun () -> Specialize.bind spec params) in
  List.iter
    (fun node ->
      let name = node.Network.node_name in
      let w = Specialize.node_qparams wide ~node:name in
      Alcotest.(check bool) (name ^ ": width 4 = sequential") true
        (List.equal same_qtensor w (Specialize.node_qparams narrow ~node:name));
      if not (Layer.is_input node.Network.layer) then
        Alcotest.(check bool) (name ^ ": = Quantized.quantize") true
          (List.equal same_qtensor w
             (List.map
                (Quantized.quantize (Specialize.qformat spec))
                (Params.get params name))))
    net.Network.nodes

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
          Alcotest.test_case "tiled conv edge shapes" `Quick test_conv_edge_shapes;
          Alcotest.test_case "integer relu/sign = float formula" `Quick
            test_integer_relu_sign;
          Alcotest.test_case "bind = sequential bind" `Quick test_bind_pool_width;
        ] );
  ]
