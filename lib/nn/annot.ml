(* Per-node attribute derivation: output shape, parameter shapes and cost
   of one op given its input shapes — the single place these are derived.
   Inference ops delegate to [Layer]'s formulas; the training ops, which
   exist only below the frontend, are covered here.  [Network.create] and
   [Network.reannotate] apply these to every node. *)

module Shape = Db_tensor.Shape

type cost = {
  macs : int;
  other_ops : int;
  param_words : int;
  input_words : int;
  output_words : int;
}

let zero_cost =
  { macs = 0; other_ops = 0; param_words = 0; input_words = 0; output_words = 0 }

let fail fmt = Db_util.Error.failf_at ~component:"ir-annot" fmt

let sum_numel shapes =
  List.fold_left (fun acc s -> acc + Shape.numel s) 0 shapes

(* A [Backward] node's inputs are [dY; ref] (see [Layer]): the dX shape is
   the ref's shape, the dW shape is the flattened parameter vector of the
   forward op. *)
let backward_shapes = function
  | [ dy; reference ] -> (dy, reference)
  | shapes ->
      fail "backward op expects [dY; ref] inputs, got %d shapes"
        (List.length shapes)

let out_shape op ~in_shapes =
  match op with
  | Layer.Backward { fwd; wrt } -> begin
      let _, reference = backward_shapes in_shapes in
      match wrt with
      | Layer.Wrt_input -> reference
      | Layer.Wrt_params ->
          Shape.vector (sum_numel (Layer.param_shapes fwd ~bottom:reference))
    end
  | Layer.Sgd_update _ -> begin
      match in_shapes with
      | [ g ] -> g
      | shapes ->
          fail "SGD update expects one gradient input, got %d"
            (List.length shapes)
    end
  | _ -> Layer.output_shape op in_shapes

let param_shapes op ~in_shapes =
  match op, in_shapes with
  (* dX of a weighted op reads the (transposed) weight tensor, never the
     bias; dW reads no stored parameters at all. *)
  | Layer.Backward { fwd = (Layer.Conv _ | Layer.Fc _) as fwd; wrt = Layer.Wrt_input }, _
    -> begin
      let _, reference = backward_shapes in_shapes in
      match Layer.param_shapes fwd ~bottom:reference with
      | weights :: _ -> [ weights ]
      | [] -> []
    end
  | Layer.Backward _, _ -> []
  (* The update op's "parameter" is the weight memory it rewrites: the
     same flat vector as its gradient input. *)
  | Layer.Sgd_update _, [ g ] -> [ g ]
  | Layer.Sgd_update _, _ -> []
  | _, [ bottom ] -> Layer.param_shapes op ~bottom
  | _, ([] | _ :: _ :: _) -> []

let cost op ~in_shapes ~out_shape ~param_shapes =
  let macs, other_ops =
    match op with
    | Layer.Backward { fwd; wrt } ->
        (* Each forward MAC contributes one MAC to dX and one to dW; the
           non-MAC ops (pooling compares, activation derivatives) mirror
           the forward count.  dW additionally flushes one accumulator
           per gradient word. *)
        let dy, reference = backward_shapes in_shapes in
        let m, o = Layer.costs fwd ~bottoms:[ reference ] ~output:dy in
        (match wrt with
        | Layer.Wrt_input -> (m, o)
        | Layer.Wrt_params -> (m, o + Shape.numel out_shape))
    | Layer.Sgd_update _ ->
        (* Per weight word: one eta*g multiply-accumulate plus the
           momentum blend, then the write-back. *)
        let words = Shape.numel out_shape in
        (2 * words, words)
    | _ -> Layer.costs op ~bottoms:in_shapes ~output:out_shape
  in
  {
    macs;
    other_ops;
    param_words = sum_numel param_shapes;
    input_words = sum_numel in_shapes;
    output_words = Shape.numel out_shape;
  }
