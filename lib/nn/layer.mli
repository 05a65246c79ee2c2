(** The operator vocabulary of the DeepBurning model family — one type
    shared by the prototxt frontend and the accelerator IR
    ([Db_ir.Op] is this module).

    Covers every layer class the paper names (Section 3.1-3.2): convolution,
    pooling, full connection, recurrent, associative (CMAC), LRN/LCN,
    drop-out, activation functions, classification (k-sorter) and
    inception-style concatenation.  Two extensions exist only below the
    frontend: a [fused] activation slot on [Conv]/[Fc], set by the IR's
    activation-folding pass, and the training ops [Backward]/[Sgd_update],
    derived by the IR's training lowering.  {!Network.create} rejects
    both, so a frontend network never carries them. *)

type pool_method = Max_pool | Avg_pool

type activation =
  | Relu
  | Sigmoid
  | Tanh
  | Sign  (** hard threshold, used by Hopfield networks *)

(** What a backward op differentiates with respect to.  [Wrt_input]
    produces the upstream activation gradient (the BP datapath);
    [Wrt_params] produces the flattened weight/bias gradient vector the
    update unit consumes (the UP datapath's input). *)
type grad_wrt = Wrt_input | Wrt_params

type t =
  | Input of { shape : Db_tensor.Shape.t }
      (** Source of the network; produces the input blob. *)
  | Conv of {
      num_output : int;
      kernel_size : int;
      stride : int;
      pad : int;
      group : int;
      bias : bool;
      fused : activation option;
    }
  | Pool of { method_ : pool_method; kernel_size : int; stride : int }
  | Global_pool of pool_method
      (** NiN-style whole-map pooling down to one value per channel. *)
  | Fc of { num_output : int; bias : bool; fused : activation option }
      (** Full-connection (inner-product) layer. *)
  | Act of activation
  | Lrn of { local_size : int; alpha : float; beta : float; k : float }
  | Lcn of { window : int; epsilon : float }
      (** local contrast normalisation: subtract the spatial window mean
          and divide by the window's standard deviation (floored at
          [epsilon]), per channel.  The paper's "LRN/LCN layer" maps both
          onto the LRN unit. *)
  | Dropout of { ratio : float }
  | Softmax
  | Recurrent of { num_output : int; steps : int; bias : bool }
      (** Elman-style recurrence unrolled [steps] times:
          h <- tanh (w_in * x + w_rec * h + b), starting from h = 0.
          Hopfield networks map to this with symmetric [w_rec] (tanh
          saturates to the +-1 states), optionally followed by a {!Sign}
          activation to discretise. *)
  | Associative of { cells_per_dim : int; active_cells : int }
      (** CMAC tile-coding: quantises each input dimension into
          [cells_per_dim] cells and activates [active_cells] overlapping
          tilings; produces a sparse binary feature vector. *)
  | Concat  (** channel-wise concatenation of all bottoms (inception). *)
  | Classifier of { top_k : int }
      (** K-sorter classification layer: emits the indices of the [top_k]
          largest inputs, in decreasing order of value. *)
  | Backward of { fwd : t; wrt : grad_wrt }
      (** Training only.  Carries the forward op it differentiates; its
          inputs are [dY; ref] where [ref] is the cached forward tensor
          the kernel needs (the forward input for conv/FC/pool/relu, the
          forward output for sigmoid/tanh/softmax — both share the shape
          the annotation layer cares about). *)
  | Sgd_update of { target : string }
      (** Training only: rewrites the weight memory of node [target]. *)

val name : t -> string
(** Op-class name, e.g. ["CONV"]; written into the IR JSON dumps. *)

val activation_name : activation -> string

val reject_training_op : t -> 'a
(** Raise the classified error for a training op reaching an inference-only
    function (shape inference, parameter shapes, costs, the interpreters). *)

val is_training : t -> bool

val fused_activation : t -> activation option

val with_fused : t -> activation -> t
(** Fold an activation into a [Conv]/[Fc]; fails on any other op. *)

val is_input : t -> bool

val is_classifier : t -> bool

val is_weighted : t -> bool
(** Whether the op owns trainable parameters. *)

val has_bias : t -> bool

val num_output : t -> int option

val window : t -> (int * int) option
(** Kernel/stride of a sliding-window op (conv or pooling). *)

val expected_arity : t -> [ `Exactly of int | `At_least of int ]
(** Number of bottoms the op consumes. *)

val output_shape : t -> Db_tensor.Shape.t list -> Db_tensor.Shape.t
(** Output shape of one inference op given its bottom shapes, checking the
    op's constraints (kernel fits inside input, channel divisibility for
    groups, matching spatial extents for [Concat], ...).  Raises
    {!Db_util.Error.Deepburning_error} (component [shape-infer]) on any
    inconsistency. *)

val param_shapes : t -> bottom:Db_tensor.Shape.t -> Db_tensor.Shape.t list
(** Shapes the op's parameter tensors must have given its bottom shape;
    [[]] for unweighted ops.  Layouts:
    - [Conv]      : [weights (Cout, Cin/group, K, K)] then optional [bias (Cout)]
    - [Fc]        : [weights (Nout, Nin)] then optional [bias (Nout)]
    - [Recurrent] : [w_in (Nout, Nin)], [w_rec (Nout, Nout)], optional [bias (Nout)] *)

val costs :
  t -> bottoms:Db_tensor.Shape.t list -> output:Db_tensor.Shape.t -> int * int
(** [(macs, other_ops)] of one forward pass of an inference op, given its
    bottom and output shapes; a fused activation adds one non-MAC op per
    output element. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** e.g. [CONV(out=8 k=3 s=1 p=1 g=1)+RELU]. *)

val to_string : t -> string
