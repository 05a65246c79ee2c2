(* Lowering [Db_nn.Network.t] into the IR.  The two share one graph type,
   already validated, sorted and annotated by [Network.create] (so carrying
   no fused or training op); lowering only stamps the datapath
   quantization format, when given, on every node. *)

let lower ?fmt (net : Db_nn.Network.t) : Graph.t =
  match fmt with
  | None -> net
  | Some _ ->
      let stamp n = { n with Graph.fmt } in
      { net with Graph.nodes = List.map stamp net.Graph.nodes }

let fail fmt = Db_util.Error.failf_at ~component:"ir-lower" fmt

(* Ops the derived BP subgraph and [Db_train.Backprop] know how to
   differentiate. *)
let differentiable = function
  | Op.Conv _ | Op.Pool _ | Op.Global_pool _ | Op.Fc _ | Op.Act _
  | Op.Dropout _ | Op.Softmax | Op.Associative _ | Op.Lrn _ ->
      true
  | Op.Input _ | Op.Lcn _ | Op.Recurrent _ | Op.Concat | Op.Classifier _
  | Op.Backward _ | Op.Sgd_update _ ->
      false

(* The cached forward tensor a backward kernel reads: sigmoid/tanh/softmax
   derivatives are functions of the forward *output*; everything else
   replays the forward *input* (receptive fields, argmax routing, ReLU
   masks).  Either way the blob shares the dX shape. *)
let backward_reference op ~bottom ~top =
  match op with
  | Op.Act (Op.Sigmoid | Op.Tanh) | Op.Softmax -> top
  | _ -> bottom

(* Training-mode lowering: the raw (unfused) forward chain, a BP subgraph
   walking it in reverse, and one SGD update node per weighted layer.
   Gradient blobs are ["d:" ^ blob], weight-gradient vectors
   ["g:" ^ node], updated-weight markers ["w:" ^ node]; the loss gradient
   seed is an input node producing ["d:" ^ final_top].  Only sequential
   single-top chains are supported — exactly the graphs the software
   [Db_train.Trainer] accepts. *)
let lower_training ?fmt (net : Db_nn.Network.t) : Graph.t =
  let nodes = net.Graph.nodes in
  let input_blobs = Hashtbl.create 4 in
  List.iter
    (fun (n : Graph.node) ->
      if Op.is_input n.Graph.layer then
        List.iter (fun top -> Hashtbl.replace input_blobs top ()) n.Graph.tops)
    nodes;
  let chain =
    List.filter (fun (n : Graph.node) -> not (Op.is_input n.Graph.layer)) nodes
  in
  (match chain with [] -> fail "network %S has no trainable layers" net.Graph.net_name | _ -> ());
  List.iter
    (fun (n : Graph.node) ->
      if not (differentiable n.Graph.layer) then
        fail "layer %S (%s) is not differentiable: cannot lower for training"
          n.Graph.node_name (Op.name n.Graph.layer);
      match n.Graph.bottoms, n.Graph.tops with
      | [ _ ], [ _ ] -> ()
      | _ ->
          fail "layer %S is not single-bottom/single-top: training lowering \
                supports sequential chains only"
            n.Graph.node_name)
    chain;
  let final_top =
    match List.rev chain with
    | last :: _ -> List.hd last.Graph.tops
    | [] -> fail "empty chain"
  in
  let seed =
    let last = List.hd (List.rev chain) in
    Graph.node ~node_name:"grad:seed"
      ~layer:(Op.Input { shape = last.Graph.out_shape })
      ~bottoms:[] ~tops:[ "d:" ^ final_top ]
  in
  (* BP nodes, last layer first.  An op whose backward yields no input
     gradient (Associative) stops propagation: layers upstream of it get
     neither dX nor dW, matching the software trainer. *)
  let bp_nodes, updated =
    let rec go acc updated propagating = function
      | [] -> (acc, updated)
      | (n : Graph.node) :: rest ->
          if not propagating then (acc, updated)
          else begin
            let bottom = List.hd n.Graph.bottoms
            and top = List.hd n.Graph.tops in
            let dy = "d:" ^ top in
            let reference = backward_reference n.Graph.layer ~bottom ~top in
            let acc, updated =
              if Op.is_weighted n.Graph.layer then
                ( Graph.node
                    ~node_name:("bp_dw:" ^ n.Graph.node_name)
                    ~layer:(Op.Backward { fwd = n.Graph.layer; wrt = Op.Wrt_params })
                    ~bottoms:[ dy; bottom ]
                    ~tops:[ "g:" ^ n.Graph.node_name ]
                  :: acc,
                  n.Graph.node_name :: updated )
              else (acc, updated)
            in
            let stops = match n.Graph.layer with Op.Associative _ -> true | _ -> false in
            if stops then (acc, updated)
            else if Hashtbl.mem input_blobs bottom then
              (* The gradient w.r.t. the network input is never consumed;
                 real FF/BP/UP designs skip computing it. *)
              go acc updated false rest
            else
              go
                (Graph.node
                   ~node_name:("bp_dx:" ^ n.Graph.node_name)
                   ~layer:(Op.Backward { fwd = n.Graph.layer; wrt = Op.Wrt_input })
                   ~bottoms:[ dy; reference ]
                   ~tops:[ "d:" ^ bottom ]
                 :: acc)
                updated true rest
          end
    in
    go [] [] true (List.rev chain)
  in
  let bp_nodes = List.rev bp_nodes in
  let up_nodes =
    List.filter_map
      (fun (n : Graph.node) ->
        if List.mem n.Graph.node_name updated then
          Some
            (Graph.node
               ~node_name:("up:" ^ n.Graph.node_name)
               ~layer:(Op.Sgd_update { target = n.Graph.node_name })
               ~bottoms:[ "g:" ^ n.Graph.node_name ]
               ~tops:[ "w:" ^ n.Graph.node_name ])
        else None)
      chain
  in
  Graph.reannotate ?fmt
    {
      Graph.net_name = net.Graph.net_name ^ ":train";
      nodes = nodes @ (seed :: bp_nodes) @ up_nodes;
    }
