module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape

type t = (string, Tensor.t list) Hashtbl.t

let create () = Hashtbl.create 16

let set t name tensors = Hashtbl.replace t name tensors

let get t name = Option.value ~default:[] (Hashtbl.find_opt t name)

let mem t name = Hashtbl.mem t name

let fail fmt = Db_util.Error.failf_at ~component:"params" fmt

let fan_in_out shape =
  match Shape.to_list shape with
  | [ nout; nin ] -> (nin, nout)
  | [ cout; cin; kh; kw ] -> (cin * kh * kw, cout * kh * kw)
  | dims ->
      let n = List.fold_left ( * ) 1 dims in
      (n, n)

let init_xavier rng net =
  let t = create () in
  Network.iter net (fun node ->
      let shapes = node.Network.param_shapes in
      if shapes <> [] then begin
        (* The bias, when present, is always the last tensor. *)
        let n_weight_tensors =
          List.length shapes - Bool.to_int (Layer.has_bias node.Network.layer)
        in
        let tensors =
          List.mapi
            (fun i shape ->
              if i < n_weight_tensors then begin
                let fan_in, fan_out = fan_in_out shape in
                let bound = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
                Tensor.random_uniform rng shape ~min:(-.bound) ~max:bound
              end
              else Tensor.create shape)
            shapes
        in
        set t node.Network.node_name tensors
      end);
  t

let validate net t =
  Network.iter net (fun node ->
      let expected = node.Network.param_shapes in
      if expected <> [] then begin
        let actual = get t node.Network.node_name in
        if List.length actual <> List.length expected then
          fail "layer %S: expected %d parameter tensors, found %d"
            node.Network.node_name (List.length expected) (List.length actual);
        List.iteri
          (fun i (exp_shape : Shape.t) ->
            let act_shape = Tensor.shape (List.nth actual i) in
            if not (Shape.equal exp_shape act_shape) then
              fail "layer %S parameter %d: expected shape %s, found %s"
                node.Network.node_name i (Shape.to_string exp_shape)
                (Shape.to_string act_shape))
          expected
      end)

let count_parameters net t =
  Network.fold net ~init:0 ~f:(fun acc node ->
      List.fold_left
        (fun acc tensor -> acc + Tensor.numel tensor)
        acc
        (get t node.Network.node_name))

let iter t f = Hashtbl.iter f t

let copy t =
  let fresh = create () in
  Hashtbl.iter (fun name tensors -> Hashtbl.replace fresh name (List.map Tensor.copy tensors)) t;
  fresh
