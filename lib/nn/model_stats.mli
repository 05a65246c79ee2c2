(** Static model statistics: operation counts, parameter counts and the
    layer-class decomposition used by Table 1 of the paper. *)

type layer_stat = {
  stat_node : string;
  stat_layer : Layer.t;
  macs : int;  (** multiply-accumulate operations of one forward pass *)
  other_ops : int;  (** comparisons, divisions, exponentials, ... *)
  param_count : int;
  input_bytes : int;  (** feature bytes read at the datapath word size *)
  output_bytes : int;
  weight_bytes : int;
}

type t = {
  per_layer : layer_stat list;
  total_macs : int;
  total_params : int;
  total_weight_bytes : int;
}

val compute : ?bytes_per_word:int -> Network.t -> t
(** A projection of the nodes' annotated costs, input nodes excluded.
    Default [bytes_per_word] is 2 (the 16-bit datapath format). *)

type decomposition = {
  has_conv : bool;
  has_fc : bool;
  has_act : bool;
  has_dropout : bool;
  has_lrn : bool;
  has_pooling : bool;
  has_associative : bool;
  has_recurrent : bool;
}
(** One row of Table 1. *)

val decompose : Network.t -> decomposition

val pp : Format.formatter -> t -> unit
