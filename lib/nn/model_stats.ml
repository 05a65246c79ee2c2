type layer_stat = {
  stat_node : string;
  stat_layer : Layer.t;
  macs : int;
  other_ops : int;
  param_count : int;
  input_bytes : int;
  output_bytes : int;
  weight_bytes : int;
}

type t = {
  per_layer : layer_stat list;
  total_macs : int;
  total_params : int;
  total_weight_bytes : int;
}

let compute ?(bytes_per_word = 2) net =
  let per_layer =
    List.filter_map
      (fun node ->
        match node.Network.layer with
        | Layer.Input _ -> None
        | layer ->
            let c = node.Network.cost in
            Some
              {
                stat_node = node.Network.node_name;
                stat_layer = layer;
                macs = c.Network.macs;
                other_ops = c.Network.other_ops;
                param_count = c.Network.param_words;
                input_bytes = c.Network.input_words * bytes_per_word;
                output_bytes = c.Network.output_words * bytes_per_word;
                weight_bytes = c.Network.param_words * bytes_per_word;
              })
      net.Network.nodes
  in
  {
    per_layer;
    total_macs = List.fold_left (fun a s -> a + s.macs) 0 per_layer;
    total_params = List.fold_left (fun a s -> a + s.param_count) 0 per_layer;
    total_weight_bytes = List.fold_left (fun a s -> a + s.weight_bytes) 0 per_layer;
  }

type decomposition = {
  has_conv : bool;
  has_fc : bool;
  has_act : bool;
  has_dropout : bool;
  has_lrn : bool;
  has_pooling : bool;
  has_associative : bool;
  has_recurrent : bool;
}

let decompose net =
  let has pred = Network.has_layer net pred in
  {
    has_conv = has (function Layer.Conv _ -> true | _ -> false);
    has_fc = has (function Layer.Fc _ -> true | _ -> false);
    has_act =
      has (function Layer.Act _ | Layer.Softmax -> true | _ -> false);
    has_dropout = has (function Layer.Dropout _ -> true | _ -> false);
    has_lrn = has (function Layer.Lrn _ -> true | _ -> false);
    has_pooling =
      has (function Layer.Pool _ | Layer.Global_pool _ -> true | _ -> false);
    has_associative = has (function Layer.Associative _ -> true | _ -> false);
    has_recurrent = has (function Layer.Recurrent _ -> true | _ -> false);
  }

let pp fmt t =
  Format.fprintf fmt "%-16s %-28s %12s %10s@." "layer" "kind" "MACs" "params";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-16s %-28s %12d %10d@." s.stat_node
        (Format.asprintf "%a" Layer.pp s.stat_layer)
        s.macs s.param_count)
    t.per_layer;
  Format.fprintf fmt "total MACs %d, total params %d@." t.total_macs
    t.total_params
