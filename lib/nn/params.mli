(** Trainable-parameter store: maps layer-node names to their tensors,
    shaped as the node's [param_shapes] ({!Layer.param_shapes} gives the
    layouts). *)

type t

val create : unit -> t

val set : t -> string -> Db_tensor.Tensor.t list -> unit

val get : t -> string -> Db_tensor.Tensor.t list
(** Returns [[]] for a layer without parameters. *)

val mem : t -> string -> bool

val init_xavier : Db_util.Rng.t -> Network.t -> t
(** Glorot-uniform initialisation of every weighted layer (biases zero). *)

val validate : Network.t -> t -> unit
(** Checks that every weighted node has tensors of its [param_shapes].
    Raises {!Db_util.Error.Deepburning_error} otherwise. *)

val count_parameters : Network.t -> t -> int
(** Total scalar parameter count. *)

val iter : t -> (string -> Db_tensor.Tensor.t list -> unit) -> unit

val copy : t -> t
(** Deep copy (fresh tensor buffers). *)
