(** Fixed-point forward propagation: the functional model of the generated
    accelerator's datapath.

    Every blob and weight is quantised to one Q-format; multiply-accumulate
    chains use a wide accumulator (as the DSP slices do) and rescale once
    per output.  Non-linear functions go through a pluggable evaluator so
    the simulator can substitute Approx-LUT interpolation for exact math;
    the default evaluator computes them exactly in float and requantises
    (zero LUT error). *)

type qtensor = { qshape : Db_tensor.Shape.t; qdata : int array }

type function_eval = {
  eval_activation : Layer.activation -> float -> float;
  eval_reciprocal : float -> float;
      (** used by average pooling (non power-of-two areas) and LRN *)
  eval_power : float -> float -> float;  (** LRN's x^beta *)
  eval_exp : float -> float;  (** softmax *)
}

val exact_eval : function_eval
(** Exact float evaluation of every non-linear function. *)

val quantize : Db_fixed.Fixed.format -> Db_tensor.Tensor.t -> qtensor

val dequantize : Db_fixed.Fixed.format -> qtensor -> Db_tensor.Tensor.t

val rescale_acc : Db_fixed.Fixed.format -> int -> int
(** Rescale a wide multiply-accumulate result ([frac*2] fractional bits)
    back to the working format: round-to-nearest, then saturate.  Exposed
    for the specialized simulation engine, whose precompiled kernels must
    rescale exactly as the generic ones do. *)

val qconv2d :
  Db_fixed.Fixed.format ->
  input:qtensor ->
  weights:qtensor ->
  bias:qtensor option ->
  stride:int ->
  pad:int ->
  group:int ->
  qtensor
(** The reference fixed-point convolution: a direct loop per output
    element, fanned out over output channels (disjoint planes, so
    bitwise-identical at any pool width).  The oracle the specialized
    engine's tiled kernel is checked against. *)

val qrelu : Db_fixed.Fixed.format -> qtensor -> qtensor
(** Integer ReLU: [max 0 v], saturated to the format.  Bitwise-equal to
    requantising [exact_eval]'s float ReLU of every word, for every int
    (words of 2^52 and above take the float formula itself). *)

val qsign : Db_fixed.Fixed.format -> qtensor -> qtensor
(** Integer Sign: the format's +1.0 for [v >= 0], -1.0 otherwise.
    Bitwise-equal to requantising [exact_eval]'s float Sign of every word.

    ReLU and Sign are comparators in hardware, so {!eval_node} runs these
    two maps whatever evaluator it is given; both evaluators in the
    repository compute them exactly. *)

val eval_node :
  Db_fixed.Fixed.format ->
  function_eval ->
  Layer.t ->
  params:qtensor list ->
  bottoms:qtensor list ->
  qtensor
(** Evaluate one non-input layer on already-quantised params and bottoms.
    This is the per-node kernel behind {!forward}; the specialized engine
    delegates float-order-sensitive layers (LRN, softmax, recurrent, ...)
    to it verbatim so both engines stay bitwise identical.  A fused
    activation is rejected: the fixed-point model runs unfused graphs. *)

val forward :
  ?eval:function_eval ->
  fmt:Db_fixed.Fixed.format ->
  Network.t ->
  Params.t ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  (string * qtensor) list
(** Full fixed-point forward pass.  Weights are quantised on entry. *)

val output :
  ?eval:function_eval ->
  fmt:Db_fixed.Fixed.format ->
  Network.t ->
  Params.t ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  Db_tensor.Tensor.t
(** Dequantised tensor of the single output blob. *)
