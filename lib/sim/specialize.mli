(** Per-design specialized simulation engine.

    [compile] partial-evaluates one generated design — the topologically
    sorted network, the folding plan's transfer schedule, and every AGU
    access pattern — into a flat trace: per-node kernel plans with
    resolved blob slots, and per-transfer closed-form [(words, cycles)]
    control steps ({!Db_mem.Access_pattern.word_count},
    {!Db_mem.Agu_sim.cycles_estimate}; no address stream is built).
    [bind] then pre-quantizes
    one parameter set against the trace, and [output] / [output_batch]
    replay it with tight integer kernels.

    The engine is bitwise-identical to the generic path
    ({!Db_nn.Quantized.output} plus the cycle-accurate AGU replay): same
    output tensors, same [sim.*] / [agu.*] counters, same exceptions at
    the same logical points, at any DEEPBURNING_JOBS.  Integer layers
    (convolution, full connection) run specialized unsafe-indexed kernels
    — sound because quantized accumulation is exact 63-bit integer math
    (checker gate DB-R003) — while float-order-sensitive layers delegate
    to {!Db_nn.Quantized.eval_node} verbatim. *)

type t
(** A compiled trace: everything derivable from the design alone. *)

type bound
(** A trace bound to one pre-quantized parameter set. *)

val compile : Db_core.Design.t -> t
(** Compile the design's trace.  The control steps are extracted from the
    checker's plant view ({!Db_core.Checker.steps_of_design}) and
    cross-checked against the raw compiled programs; a divergence raises a
    simulator-component error.  Invalid AGU patterns are recorded and
    re-raised at replay time, where the generic engine would hit them. *)

val of_design : Db_core.Design.t -> t
(** [compile] memoised per design via {!Db_core.Design_cache.Artifact}
    (identity-keyed; dropped by {!Db_core.Design_cache.clear}). *)

val qformat : t -> Db_fixed.Fixed.format
(** The design's working fixed-point format. *)

val lut_eval : t -> Db_nn.Quantized.function_eval
(** The design's Approx-LUT evaluator (the default for [output]). *)

val control_cycles : t -> int
(** Closed-form control-path cycles of one healthy whole-trace replay. *)

val replay_control : cycle_budget:int -> t -> int
(** Replay the compiled control trace under the shared watchdog budget:
    identical cycles, [agu.*] counters, spans and {!Db_util.Error.Timeout}
    payloads to replaying every transfer on the cycle-accurate
    {!Db_mem.Agu_sim} machine, without clocking a single FSM step. *)

val bind : t -> Db_nn.Params.t -> bound
(** Quantize the parameter set once, up front.  Amortises the dominant
    per-call cost of the generic engine (re-quantizing every weight on
    every forward pass) across all subsequent playbacks.  The tensors are
    quantized in chunks of {!bind_chunk} words across the domain pool;
    the result is the same at any DEEPBURNING_JOBS. *)

val bind_chunk : int
(** Words per parallel quantize task in {!bind}. *)

val spec : bound -> t

val node_qparams : bound -> node:string -> Db_nn.Quantized.qtensor list
(** The pre-quantized parameter tensors of one node (fault injection reads
    these to flip bits in the stored-weight domain). *)

val with_node_params :
  bound -> node:string -> Db_nn.Quantized.qtensor list -> bound
(** A bound trace sharing everything but one node's parameter tensors —
    O(nodes) copy, no re-quantization.  Raises a simulator-component error
    for an unknown node name. *)

val tile_words : int
(** Patch words per im2col tile of the convolution kernel (a fixed
    constant): a tile holds [max 2 (tile_words / (cin_g*k*k))] output
    pixels, rounded down to an even count, or the whole plane when that
    is smaller. *)

val conv :
  Db_fixed.Fixed.format ->
  stride:int ->
  pad:int ->
  group:int ->
  input:Db_nn.Quantized.qtensor ->
  weights:Db_nn.Quantized.qtensor ->
  bias:Db_nn.Quantized.qtensor option ->
  Db_nn.Quantized.qtensor option
(** The specialized convolution kernel on its own (im2col tiles, a
    register-blocked micro-kernel): [Some] output,
    bitwise-identical to {!Db_nn.Quantized.qconv2d} on the same operands,
    or [None] when the operands fail its shape guard (the engine then runs
    the generic kernel).  Dimension errors raise as the generic kernel's
    would. *)

val output :
  ?eval:Db_nn.Quantized.function_eval ->
  bound ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  Db_tensor.Tensor.t
(** One forward pass over the bound trace; bitwise-identical to
    {!Db_nn.Quantized.output} with the design's format and LUT evaluator.
    [?eval] overrides the evaluator (LUT fault injection). *)

val qoutput :
  ?eval:Db_nn.Quantized.function_eval ->
  bound ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  Db_nn.Quantized.qtensor
(** The raw quantized output blob (before dequantisation / classifier
    index conversion). *)

val output_batch :
  ?eval:Db_nn.Quantized.function_eval ->
  bound ->
  batch:(string * Db_tensor.Tensor.t) list list ->
  Db_tensor.Tensor.t list
(** [output] over every sample, fanned out across the domain pool; order
    preserved, bitwise-identical to the sequential loop at any
    DEEPBURNING_JOBS. *)
