(** Floating-point forward propagation: the golden reference the paper's
    accuracy experiment compares the accelerators against ("the original
    software neural networks executed on CPU"). *)

type env = (string * Db_tensor.Tensor.t) list
(** Blob environment after a forward pass, in production order. *)

val forward :
  Network.t -> Params.t -> inputs:(string * Db_tensor.Tensor.t) list -> env
(** [forward net params ~inputs] runs the whole network.  [inputs] maps each
    input node's top blob to its tensor.  Raises
    {!Db_util.Error.Deepburning_error} on a missing input or shape
    mismatch. *)

val output :
  Network.t -> Params.t -> inputs:(string * Db_tensor.Tensor.t) list ->
  Db_tensor.Tensor.t
(** Convenience: the tensor of the network's single output blob.  Fails if
    the network has several outputs. *)

val eval_layer :
  Layer.t ->
  params:Db_tensor.Tensor.t list ->
  bottoms:Db_tensor.Tensor.t list ->
  Db_tensor.Tensor.t
(** One layer's semantics, including a fused activation (applied to the
    base op's result exactly as the standalone activation node would);
    reused by the trainer and the tests. *)

val associative_encode :
  cells_per_dim:int -> active_cells:int -> Db_tensor.Tensor.t -> Db_tensor.Tensor.t
(** CMAC tile-coding used by [Associative] layers: each input dimension is
    clamped to [0,1], quantised into [cells_per_dim] cells, and the
    [active_cells] cells centred on the hit are set to [1/active_cells]
    (clipped at the edges).  Exposed for direct testing. *)
