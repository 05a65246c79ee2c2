(* The IR's operator vocabulary is the frontend's: one variant, defined in
   [Db_nn.Layer], so IR passes and the frontend's shape, parameter, cost
   and interpreter functions all speak the same type. *)

include Db_nn.Layer
