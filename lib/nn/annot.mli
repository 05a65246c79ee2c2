(** Per-node attribute derivation, shared by {!Network.create},
    {!Network.reannotate} and the IR verifier.  Covers every op, the
    IR-only training ops included; inference ops use {!Layer}'s
    formulas. *)

type cost = {
  macs : int;
  other_ops : int;
  param_words : int;
  input_words : int;
  output_words : int;
}
(** Documented at {!Network.cost}. *)

val zero_cost : cost

val out_shape :
  Layer.t -> in_shapes:Db_tensor.Shape.t list -> Db_tensor.Shape.t

val param_shapes :
  Layer.t -> in_shapes:Db_tensor.Shape.t list -> Db_tensor.Shape.t list
(** [[]] for a node with other than one input, training ops excepted. *)

val cost :
  Layer.t ->
  in_shapes:Db_tensor.Shape.t list ->
  out_shape:Db_tensor.Shape.t ->
  param_shapes:Db_tensor.Shape.t list ->
  cost
