(* Float-domain execution of an IR graph.  Per-op semantics, including a
   fused activation, are [Db_nn.Interpreter.eval_layer]'s, so pass
   pipelines can be checked semantics-preserving against the frontend
   interpreter. *)

module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape

let fail fmt = Db_util.Error.failf_at ~component:"ir-interp" fmt

let forward (g : Graph.t) params ~inputs =
  let env : (string, Tensor.t) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let blob name =
    match Hashtbl.find_opt env name with
    | Some t -> t
    | None -> fail "blob %S not available" name
  in
  Graph.iter g (fun n ->
      let out =
        match n.Graph.op with
        | Op.Input { shape } -> begin
            match n.Graph.outputs with
            | [ top ] -> begin
                match List.assoc_opt top inputs with
                | Some t ->
                    if not (Shape.equal (Tensor.shape t) shape) then
                      fail "input %S: expected shape %s, got %s" top
                        (Shape.to_string shape)
                        (Shape.to_string (Tensor.shape t));
                    t
                | None -> fail "missing input tensor for blob %S" top
              end
            | [] | _ :: _ :: _ -> fail "input node must have exactly one output"
          end
        | _ ->
            let bottoms = List.map blob n.Graph.inputs in
            let params = Db_nn.Params.get params n.Graph.node_name in
            Db_nn.Interpreter.eval_layer n.Graph.op ~params ~bottoms
      in
      List.iter
        (fun top ->
          Hashtbl.replace env top out;
          order := (top, out) :: !order)
        n.Graph.outputs);
  List.rev !order

let output (g : Graph.t) params ~inputs =
  let env = forward g params ~inputs in
  match Graph.output_blobs g with
  | [ blob ] -> List.assoc blob env
  | blobs ->
      fail "graph has %d output blobs, expected exactly one" (List.length blobs)
