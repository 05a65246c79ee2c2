(** Fluent network construction.

    The prototxt importer is the paper's interface; this is the OCaml-side
    equivalent for programmatic use (tests, generated model sweeps):

    {[
      let net =
        Builder.(
          input (Shape.chw ~channels:1 ~height:16 ~width:16)
          |> conv ~num_output:8 ~kernel_size:5 ~pad:2
          |> relu
          |> max_pool ~kernel_size:2 ~stride:2
          |> fc ~num_output:10
          |> softmax
          |> build ~name:"little-cnn")
      ]}

    Node and blob names are generated ([conv1], [pool2], ...); each step
    consumes the previous step's top blob. *)

type t

val input : Db_tensor.Shape.t -> t

val conv :
  ?stride:int -> ?pad:int -> ?group:int -> ?bias:bool ->
  num_output:int -> kernel_size:int -> t -> t

val max_pool : kernel_size:int -> stride:int -> t -> t

val avg_pool : kernel_size:int -> stride:int -> t -> t

val global_avg_pool : t -> t

val fc : ?bias:bool -> num_output:int -> t -> t

val relu : t -> t

val sigmoid : t -> t

val tanh : t -> t

val lrn : ?local_size:int -> ?alpha:float -> ?beta:float -> ?k:float -> t -> t

val lcn : ?window:int -> ?epsilon:float -> t -> t

val dropout : ?ratio:float -> t -> t

val softmax : t -> t

val recurrent : ?bias:bool -> num_output:int -> steps:int -> t -> t

val associative : ?active_cells:int -> cells_per_dim:int -> t -> t

val classifier : top_k:int -> t -> t

val build : name:string -> t -> Network.t
(** Validates via {!Network.create}. *)
