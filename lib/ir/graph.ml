(* The IR's graph is the frontend's: one type, defined in
   [Db_nn.Network], whose nodes carry the attributes (shapes, parameter
   shapes, quantization format, costs) computed once at import and
   refreshed by [reannotate] after each structural pass. *)

include Db_nn.Network
