module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Ops = Db_tensor.Ops

type env = (string * Tensor.t) list

let fail fmt = Db_util.Error.failf_at ~component:"interpreter" fmt

let associative_encode ~cells_per_dim ~active_cells input =
  let n = Tensor.numel input in
  let out = Tensor.create (Shape.vector (n * cells_per_dim)) in
  let weight = 1.0 /. float_of_int active_cells in
  let half = active_cells / 2 in
  for i = 0 to n - 1 do
    let x = Float.min 1.0 (Float.max 0.0 (Tensor.get input i)) in
    let centre =
      Stdlib.min (cells_per_dim - 1)
        (int_of_float (x *. float_of_int (cells_per_dim - 1) +. 0.5))
    in
    for d = -half to active_cells - half - 1 do
      let cell = centre + d in
      if cell >= 0 && cell < cells_per_dim then
        Tensor.set out ((i * cells_per_dim) + cell) weight
    done
  done;
  out

let classify_top_k ~top_k input =
  let n = Tensor.numel input in
  (* Partial selection instead of sorting all n logits: k passes, each
     picking the largest remaining value.  The ascending scan with a strict
     [>] means the lowest index wins ties — the same order as the hardware
     k-sorter's deterministic comparator network. *)
  let used = Array.make n false in
  let selected = Array.make top_k 0 in
  for rank = 0 to top_k - 1 do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if
        (not used.(i))
        && (!best < 0 || Tensor.get input i > Tensor.get input !best)
      then best := i
    done;
    if !best < 0 then fail "classify_top_k: top_k %d exceeds input size %d" top_k n;
    used.(!best) <- true;
    selected.(rank) <- !best
  done;
  Tensor.init (Shape.vector top_k) (fun i -> float_of_int selected.(i))

let recurrent_forward ~w_in ~w_rec ~bias ~steps input =
  let num_output = Shape.dim (Tensor.shape w_in) 0 in
  let state = ref (Tensor.create (Shape.vector num_output)) in
  for _step = 1 to steps do
    let drive = Ops.fully_connected ~input ~weights:w_in ~bias in
    let feedback = Ops.fully_connected ~input:!state ~weights:w_rec ~bias:None in
    state := Ops.tanh_act (Tensor.add drive feedback)
  done;
  !state

(* Local contrast normalisation: per channel, subtract the spatial window
   mean and divide by the window standard deviation floored at epsilon.
   Window edges are clipped (smaller effective windows at the borders). *)
let lcn ~window ~epsilon input =
  let shape = Tensor.shape input in
  let c = Shape.channels shape
  and h = Shape.height shape
  and w = Shape.width shape in
  let half = window / 2 in
  let out = Tensor.create shape in
  for ch = 0 to c - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let sum = ref 0.0 and sumsq = ref 0.0 and count = ref 0 in
        for dy = -half to half do
          for dx = -half to half do
            let yy = y + dy and xx = x + dx in
            if yy >= 0 && yy < h && xx >= 0 && xx < w then begin
              let v = Tensor.get3 input ~c:ch ~y:yy ~x:xx in
              sum := !sum +. v;
              sumsq := !sumsq +. (v *. v);
              incr count
            end
          done
        done;
        let n = float_of_int !count in
        let mean = !sum /. n in
        let var = Float.max 0.0 ((!sumsq /. n) -. (mean *. mean)) in
        let denom = Float.max epsilon (sqrt var) in
        Tensor.set3 out ~c:ch ~y ~x
          ((Tensor.get3 input ~c:ch ~y ~x -. mean) /. denom)
      done
    done
  done;
  out

let activate act input =
  match act with
  | Layer.Relu -> Ops.relu input
  | Layer.Sigmoid -> Ops.sigmoid input
  | Layer.Tanh -> Ops.tanh_act input
  | Layer.Sign -> Tensor.map (fun x -> if x >= 0.0 then 1.0 else -1.0) input

let eval_layer layer ~params ~bottoms =
  let one () =
    match bottoms with
    | [ b ] -> b
    | _ -> fail "layer %s expects one bottom" (Layer.name layer)
  in
  let out =
    match layer with
    | Layer.Input _ -> fail "input layers are not evaluated"
    | Layer.Conv { stride; pad; group; bias = has_bias; _ } -> begin
        match params, has_bias with
        | [ w ], false ->
            Ops.conv2d ~input:(one ()) ~weights:w ~bias:None ~stride
              ~padding:(Ops.symmetric_padding pad) ~group
        | [ w; b ], true ->
            Ops.conv2d ~input:(one ()) ~weights:w ~bias:(Some b) ~stride
              ~padding:(Ops.symmetric_padding pad) ~group
        | _ -> fail "convolution: wrong parameter tensors"
      end
    | Layer.Pool { method_ = Layer.Max_pool; kernel_size; stride } ->
        Ops.max_pool ~input:(one ()) ~kernel:kernel_size ~stride
    | Layer.Pool { method_ = Layer.Avg_pool; kernel_size; stride } ->
        Ops.avg_pool ~input:(one ()) ~kernel:kernel_size ~stride
    | Layer.Global_pool Layer.Avg_pool -> Ops.global_avg_pool ~input:(one ())
    | Layer.Global_pool Layer.Max_pool ->
        let input = one () in
        let c = Shape.channels (Tensor.shape input) in
        let hw = Tensor.numel input / c in
        Tensor.init (Shape.vector c) (fun ch ->
            let best = ref neg_infinity in
            for i = 0 to hw - 1 do
              best := Float.max !best (Tensor.get input ((ch * hw) + i))
            done;
            !best)
    | Layer.Fc { bias = has_bias; _ } -> begin
        match params, has_bias with
        | [ w ], false ->
            Ops.fully_connected ~input:(Ops.flatten (one ())) ~weights:w ~bias:None
        | [ w; b ], true ->
            Ops.fully_connected ~input:(Ops.flatten (one ())) ~weights:w
              ~bias:(Some b)
        | _ -> fail "inner product: wrong parameter tensors"
      end
    | Layer.Act act -> activate act (one ())
    | Layer.Lrn { local_size; alpha; beta; k } ->
        Ops.lrn ~input:(one ()) ~local_size ~alpha ~beta ~k
    | Layer.Lcn { window; epsilon } -> lcn ~window ~epsilon (one ())
    | Layer.Dropout { ratio } -> Ops.dropout_inference ~ratio (one ())
    | Layer.Softmax -> Ops.softmax (one ())
    | Layer.Recurrent { steps; bias = has_bias; _ } -> begin
        let input = Ops.flatten (one ()) in
        match params, has_bias with
        | [ w_in; w_rec ], false ->
            recurrent_forward ~w_in ~w_rec ~bias:None ~steps input
        | [ w_in; w_rec; b ], true ->
            recurrent_forward ~w_in ~w_rec ~bias:(Some b) ~steps input
        | _ -> fail "recurrent: wrong parameter tensors"
      end
    | Layer.Associative { cells_per_dim; active_cells } ->
        associative_encode ~cells_per_dim ~active_cells (Ops.flatten (one ()))
    | Layer.Concat -> Ops.concat_channels bottoms
    | Layer.Classifier { top_k } -> classify_top_k ~top_k (Ops.flatten (one ()))
    | Layer.Backward _ | Layer.Sgd_update _ -> Layer.reject_training_op layer
  in
  match Layer.fused_activation layer with
  | Some act -> activate act out
  | None -> out

let forward net params ~inputs =
  (* O(1) blob lookup; [order] keeps the production-order listing that the
     caller sees (including rebindings, as the old assoc list did). *)
  let env : (string, Tensor.t) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let blob name =
    match Hashtbl.find_opt env name with
    | Some t -> t
    | None -> fail "blob %S not available" name
  in
  Network.iter net (fun node ->
      let out =
        match node.Network.layer with
        | Layer.Input { shape } -> begin
            match node.Network.tops with
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
            | [] | _ :: _ :: _ -> fail "input node must have exactly one top"
          end
        | layer ->
            let bottoms = List.map blob node.Network.bottoms in
            let params = Params.get params node.Network.node_name in
            eval_layer layer ~params ~bottoms
      in
      List.iter
        (fun top ->
          Hashtbl.replace env top out;
          order := (top, out) :: !order)
        node.Network.tops);
  List.rev !order

let output net params ~inputs =
  let env = forward net params ~inputs in
  match Network.output_blobs net with
  | [ blob ] -> List.assoc blob env
  | blobs ->
      fail "network has %d output blobs, expected exactly one"
        (List.length blobs)
