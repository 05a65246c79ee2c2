(** Network graphs in the Caffe blob/layer style — the one graph type from
    the prototxt frontend to the RTL ([Db_ir.Graph] is this module).

    A network is a list of named layer nodes; each node consumes the blobs
    named in [bottoms] and produces the blobs named in [tops].  The graph
    must be a DAG over blobs (recurrence is internal to the
    {!Layer.Recurrent} node, mirroring the paper's [connect { direction:
    recurrent }] construct, which loops a blob back into the same layer).
    Every node carries its derived attributes (shapes, parameter shapes,
    quantization format, cost), computed once by {!create} and refreshed
    by {!reannotate} after a structural rewrite; consumers read them
    instead of re-deriving them from the layer. *)

type cost = Annot.cost = {
  macs : int;
  other_ops : int;  (** comparisons, adds, LUT lookups — non-MAC work *)
  param_words : int;  (** weight footprint in datapath words *)
  input_words : int;  (** feature words consumed *)
  output_words : int;  (** feature words produced *)
}

type node = {
  id : int;  (** position in topological order, 0-based *)
  node_name : string;
  layer : Layer.t;
  bottoms : string list;  (** consumed blobs *)
  tops : string list;  (** produced blobs *)
  in_shapes : Db_tensor.Shape.t list;  (** one per bottom, same order *)
  out_shape : Db_tensor.Shape.t;  (** every top blob carries this shape *)
  param_shapes : Db_tensor.Shape.t list;  (** expected parameter tensors *)
  fmt : Db_fixed.Fixed.format option;  (** datapath quantization, when known *)
  cost : cost;
}

type t = {
  net_name : string;
  nodes : node list;  (** in topological order after {!create} *)
}

val node :
  node_name:string -> layer:Layer.t -> bottoms:string list ->
  tops:string list -> node
(** An unannotated node, for {!create} or {!reannotate} to fill in. *)

val create : name:string -> node list -> t
(** Validates, topologically sorts and annotates the nodes.  Checks
    performed: unique node names and top names, every bottom produced by
    some top, at least one {!Layer.Input}, arity of bottoms per layer
    class (e.g. [Concat] needs >= 2, everything else exactly 1, inputs 0),
    no training op and no fused activation (both IR-only), acyclicity, and
    every layer's shape constraints ({!Layer.output_shape}).  Raises
    {!Db_util.Error.Deepburning_error} otherwise. *)

val reannotate : ?fmt:Db_fixed.Fixed.format -> t -> t
(** Recompute every node's derived attributes in list order and renumber
    ids, without re-validating or re-sorting; structural IR passes end
    with this.  [~fmt] stamps the quantization format on every node. *)

val find_node_opt : t -> string -> node option

val find_node : t -> string -> node
(** Raises {!Db_util.Error.Deepburning_error} for an unknown name. *)

val producer_opt : t -> string -> node option
(** The node whose tops include the blob. *)

val input_nodes : t -> node list

val output_blobs : t -> string list
(** Blobs produced but never consumed, in node order. *)

val layer_count : t -> int
(** Number of non-input nodes. *)

val last_node : t -> node option

val iter : t -> (node -> unit) -> unit

val fold : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val has_layer : t -> (Layer.t -> bool) -> bool

val total_macs : t -> int

val total_params : t -> int
(** Total parameter words over all nodes. *)

val pp : Format.formatter -> t -> unit
