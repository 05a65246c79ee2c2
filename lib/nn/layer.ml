module Shape = Db_tensor.Shape

type pool_method = Max_pool | Avg_pool

type activation = Relu | Sigmoid | Tanh | Sign

type grad_wrt = Wrt_input | Wrt_params

type t =
  | Input of { shape : Shape.t }
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
  | Fc of { num_output : int; bias : bool; fused : activation option }
  | Act of activation
  | Lrn of { local_size : int; alpha : float; beta : float; k : float }
  | Lcn of { window : int; epsilon : float }
  | Dropout of { ratio : float }
  | Softmax
  | Recurrent of { num_output : int; steps : int; bias : bool }
  | Associative of { cells_per_dim : int; active_cells : int }
  | Concat
  | Classifier of { top_k : int }
  | Backward of { fwd : t; wrt : grad_wrt }
  | Sgd_update of { target : string }

let fail fmt = Db_util.Error.failf_at ~component:"layer" fmt

let activation_name = function
  | Relu -> "RELU"
  | Sigmoid -> "SIGMOID"
  | Tanh -> "TANH"
  | Sign -> "SIGN"

let name = function
  | Backward { wrt = Wrt_input; _ } -> "BP_DX"
  | Backward { wrt = Wrt_params; _ } -> "BP_DW"
  | Sgd_update _ -> "SGD_UPDATE"
  | Input _ -> "INPUT"
  | Conv _ -> "CONV"
  | Pool _ -> "POOL"
  | Global_pool _ -> "GLOBAL_POOL"
  | Fc _ -> "FC"
  | Act act -> activation_name act
  | Lrn _ -> "LRN"
  | Lcn _ -> "LCN"
  | Dropout _ -> "DROPOUT"
  | Softmax -> "SOFTMAX"
  | Recurrent _ -> "RECURRENT"
  | Associative _ -> "ASSOCIATIVE"
  | Concat -> "CONCAT"
  | Classifier _ -> "CLASSIFIER"

let reject_training_op op =
  fail "%s is a training op and has no inference semantics" (name op)

let is_training = function
  | Backward _ | Sgd_update _ -> true
  | Input _ | Conv _ | Pool _ | Global_pool _ | Fc _ | Act _ | Lrn _ | Lcn _
  | Dropout _ | Softmax | Recurrent _ | Associative _ | Concat | Classifier _ ->
      false

let fused_activation = function
  | Conv { fused; _ } | Fc { fused; _ } -> fused
  | Input _ | Pool _ | Global_pool _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Recurrent _ | Associative _ | Concat | Classifier _
  | Backward _ | Sgd_update _ ->
      None

let with_fused op act =
  match op with
  | Conv c -> Conv { c with fused = Some act }
  | Fc f -> Fc { f with fused = Some act }
  | Input _ | Pool _ | Global_pool _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Recurrent _ | Associative _ | Concat | Classifier _
  | Backward _ | Sgd_update _ ->
      fail "cannot fuse an activation into %s" (name op)

let is_input = function
  | Input _ -> true
  | _ -> false

let is_classifier = function
  | Classifier _ -> true
  | _ -> false

let is_weighted = function
  | Conv _ | Fc _ | Recurrent _ -> true
  | Input _ | Pool _ | Global_pool _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Associative _ | Concat | Classifier _ | Backward _
  | Sgd_update _ ->
      false

let has_bias = function
  | Conv { bias; _ } | Fc { bias; _ } | Recurrent { bias; _ } -> bias
  | Input _ | Pool _ | Global_pool _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Associative _ | Concat | Classifier _ | Backward _
  | Sgd_update _ ->
      false

let num_output = function
  | Conv { num_output; _ } | Fc { num_output; _ } | Recurrent { num_output; _ }
    ->
      Some num_output
  | Input _ | Pool _ | Global_pool _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Associative _ | Concat | Classifier _ | Backward _
  | Sgd_update _ ->
      None

let window = function
  | Conv { kernel_size; stride; _ } | Pool { kernel_size; stride; _ } ->
      Some (kernel_size, stride)
  | Input _ | Global_pool _ | Fc _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Recurrent _ | Associative _ | Concat | Classifier _ | Backward _
  | Sgd_update _ ->
      None

let expected_arity = function
  | Input _ -> `Exactly 0
  | Concat -> `At_least 2
  | Backward _ -> `Exactly 2
  | Sgd_update _ -> `Exactly 1
  | Conv _ | Pool _ | Global_pool _ | Fc _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Recurrent _ | Associative _ | Classifier _ ->
      `Exactly 1

(* --- Per-op formulas: output shape, parameter shapes, forward cost ---- *)

let shape_fail fmt = Db_util.Error.failf_at ~component:"shape-infer" fmt

let one_bottom layer = function
  | [ s ] -> s
  | shapes ->
      shape_fail "layer %s expects exactly one bottom, got %d" (name layer)
        (List.length shapes)

let output_shape layer bottoms =
  match layer with
  | Input { shape } -> shape
  | Conv { num_output; kernel_size; stride; pad; group; _ } ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        shape_fail "convolution needs a CHW bottom, got %s" (Shape.to_string s);
      let cin = Shape.channels s in
      if cin mod group <> 0 then
        shape_fail "convolution group %d does not divide input channels %d" group cin;
      if num_output mod group <> 0 then
        shape_fail "convolution group %d does not divide num_output %d" group num_output;
      let oh =
        Db_tensor.Ops.conv_output_dim ~input:(Shape.height s) ~kernel:kernel_size
          ~stride ~pad_lo:pad ~pad_hi:pad
      and ow =
        Db_tensor.Ops.conv_output_dim ~input:(Shape.width s) ~kernel:kernel_size
          ~stride ~pad_lo:pad ~pad_hi:pad
      in
      Shape.chw ~channels:num_output ~height:oh ~width:ow
  | Pool { kernel_size; stride; _ } ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        shape_fail "pooling needs a CHW bottom, got %s" (Shape.to_string s);
      let oh =
        Db_tensor.Ops.conv_output_dim ~input:(Shape.height s) ~kernel:kernel_size
          ~stride ~pad_lo:0 ~pad_hi:0
      and ow =
        Db_tensor.Ops.conv_output_dim ~input:(Shape.width s) ~kernel:kernel_size
          ~stride ~pad_lo:0 ~pad_hi:0
      in
      Shape.chw ~channels:(Shape.channels s) ~height:oh ~width:ow
  | Global_pool _ ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        shape_fail "global pooling needs a CHW bottom, got %s"
          (Shape.to_string s);
      Shape.vector (Shape.channels s)
  | Fc { num_output; _ } ->
      let (_ : Shape.t) = one_bottom layer bottoms in
      Shape.vector num_output
  | Act _ | Dropout _ | Softmax -> one_bottom layer bottoms
  | Lrn _ ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        shape_fail "LRN needs a CHW bottom, got %s" (Shape.to_string s);
      s
  | Lcn { window; epsilon } ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        shape_fail "LCN needs a CHW bottom, got %s" (Shape.to_string s);
      if window <= 0 || window mod 2 = 0 then
        shape_fail "LCN window must be odd and positive";
      if epsilon <= 0.0 then shape_fail "LCN epsilon must be positive";
      s
  | Recurrent { num_output; steps; bias = _ } ->
      let (_ : Shape.t) = one_bottom layer bottoms in
      if steps <= 0 then shape_fail "recurrent layer needs steps >= 1";
      Shape.vector num_output
  | Associative { cells_per_dim; active_cells } ->
      let s = one_bottom layer bottoms in
      if cells_per_dim <= 1 then
        shape_fail "associative layer needs cells_per_dim >= 2";
      if active_cells <= 0 || active_cells > cells_per_dim then
        shape_fail "associative layer needs 0 < active_cells <= cells_per_dim";
      Shape.vector (Shape.numel s * cells_per_dim)
  | Concat -> begin
      match bottoms with
      | [] | [ _ ] -> shape_fail "concat needs at least two bottoms"
      | first :: _ ->
          List.iter
            (fun s ->
              if
                Shape.rank s <> 3
                || Shape.height s <> Shape.height first
                || Shape.width s <> Shape.width first
              then
                shape_fail "concat bottoms must be CHW with equal spatial extents")
            bottoms;
          let channels =
            List.fold_left (fun acc s -> acc + Shape.channels s) 0 bottoms
          in
          Shape.chw ~channels ~height:(Shape.height first)
            ~width:(Shape.width first)
    end
  | Classifier { top_k } ->
      let s = one_bottom layer bottoms in
      if top_k <= 0 || top_k > Shape.numel s then
        shape_fail "classifier top_k %d out of range for %s inputs" top_k
          (Shape.to_string s);
      Shape.vector top_k
  | Backward _ | Sgd_update _ -> reject_training_op layer

let param_shapes layer ~bottom =
  match layer with
  | Conv { num_output; kernel_size; group; bias; _ } ->
      let cin_g = Shape.channels bottom / group in
      let w = Shape.of_list [ num_output; cin_g; kernel_size; kernel_size ] in
      if bias then [ w; Shape.vector num_output ] else [ w ]
  | Fc { num_output; bias; _ } ->
      let w = Shape.of_list [ num_output; Shape.numel bottom ] in
      if bias then [ w; Shape.vector num_output ] else [ w ]
  | Recurrent { num_output; bias; _ } ->
      let w_in = Shape.of_list [ num_output; Shape.numel bottom ] in
      let w_rec = Shape.of_list [ num_output; num_output ] in
      if bias then [ w_in; w_rec; Shape.vector num_output ]
      else [ w_in; w_rec ]
  | Input _ | Pool _ | Global_pool _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Associative _ | Concat | Classifier _ ->
      []
  | Backward _ | Sgd_update _ -> reject_training_op layer

let costs layer ~bottoms ~output =
  let out_n = Shape.numel output in
  let macs, other_ops =
    match layer with
    | Input _ -> (0, 0)
    | Conv { kernel_size; group; _ } -> begin
        match bottoms with
        | [ bottom ] ->
            let cin_g = Shape.channels bottom / group in
            (out_n * cin_g * kernel_size * kernel_size, 0)
        | [] | _ :: _ :: _ -> (0, 0)
      end
    | Pool { kernel_size; _ } -> (0, out_n * kernel_size * kernel_size)
    | Global_pool _ -> begin
        match bottoms with [ b ] -> (0, Shape.numel b) | [] | _ :: _ :: _ -> (0, 0)
      end
    | Fc _ -> begin
        match bottoms with
        | [ b ] -> (out_n * Shape.numel b, 0)
        | [] | _ :: _ :: _ -> (0, 0)
      end
    | Act _ -> (0, out_n)
    | Lrn { local_size; _ } -> (out_n * local_size, 2 * out_n)
    | Lcn { window; _ } -> (2 * out_n * window * window, 2 * out_n)
    | Dropout _ -> (0, 0)
    | Softmax -> (0, 3 * out_n)
    | Recurrent { num_output; steps; _ } -> begin
        match bottoms with
        | [ b ] ->
            ( steps * ((num_output * Shape.numel b) + (num_output * num_output)),
              steps * num_output )
        | [] | _ :: _ :: _ -> (0, 0)
      end
    | Associative _ -> begin
        match bottoms with [ b ] -> (0, Shape.numel b) | [] | _ :: _ :: _ -> (0, 0)
      end
    | Concat -> (0, 0)
    | Classifier { top_k } -> begin
        (* k-sorter comparator count: n log k comparisons, roughly. *)
        match bottoms with
        | [ b ] ->
            let n = Shape.numel b in
            let log_k = int_of_float (Float.ceil (log (float_of_int (top_k + 1)) /. log 2.0)) in
            (0, n * Stdlib.max 1 log_k)
        | [] | _ :: _ :: _ -> (0, 0)
      end
    | Backward _ | Sgd_update _ -> reject_training_op layer
  in
  (* A fused activation adds one non-MAC op per output element, exactly
     what the standalone activation node cost. *)
  match fused_activation layer with
  | Some _ -> (macs, other_ops + out_n)
  | None -> (macs, other_ops)

let equal a b =
  match a, b with
  | Input { shape = sa }, Input { shape = sb } -> Shape.equal sa sb
  | a, b -> a = b

let rec pp fmt op =
  (match op with
  | Backward { fwd; wrt = _ } -> Format.fprintf fmt "%s[%a]" (name op) pp fwd
  | Sgd_update { target } -> Format.fprintf fmt "SGD_UPDATE(%s)" target
  | Conv { num_output; kernel_size; stride; pad; group; bias; fused = _ } ->
      Format.fprintf fmt "CONV(out=%d k=%d s=%d p=%d g=%d%s)" num_output
        kernel_size stride pad group
        (if bias then "" else " nobias")
  | Fc { num_output; bias; fused = _ } ->
      Format.fprintf fmt "FC(out=%d%s)" num_output (if bias then "" else " nobias")
  | Input { shape } -> Format.fprintf fmt "INPUT(%s)" (Shape.to_string shape)
  | Pool { method_; kernel_size; stride } ->
      Format.fprintf fmt "POOL(%s k=%d s=%d)"
        (match method_ with Max_pool -> "max" | Avg_pool -> "ave")
        kernel_size stride
  | Global_pool method_ ->
      Format.fprintf fmt "GLOBAL_POOL(%s)"
        (match method_ with Max_pool -> "max" | Avg_pool -> "ave")
  | Act act -> Format.pp_print_string fmt (activation_name act)
  | Lrn { local_size; alpha; beta; k } ->
      Format.fprintf fmt "LRN(n=%d a=%g b=%g k=%g)" local_size alpha beta k
  | Lcn { window; epsilon } -> Format.fprintf fmt "LCN(w=%d eps=%g)" window epsilon
  | Dropout { ratio } -> Format.fprintf fmt "DROPOUT(%g)" ratio
  | Softmax -> Format.pp_print_string fmt "SOFTMAX"
  | Recurrent { num_output; steps; bias } ->
      Format.fprintf fmt "RECURRENT(out=%d steps=%d%s)" num_output steps
        (if bias then "" else " nobias")
  | Associative { cells_per_dim; active_cells } ->
      Format.fprintf fmt "ASSOCIATIVE(cells=%d active=%d)" cells_per_dim
        active_cells
  | Concat -> Format.pp_print_string fmt "CONCAT"
  | Classifier { top_k } -> Format.fprintf fmt "CLASSIFIER(top%d)" top_k);
  match fused_activation op with
  | Some act -> Format.fprintf fmt "+%s" (activation_name act)
  | None -> ()

let to_string op = Format.asprintf "%a" pp op
