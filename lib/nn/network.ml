module Shape = Db_tensor.Shape

type cost = Annot.cost = {
  macs : int;
  other_ops : int;
  param_words : int;
  input_words : int;
  output_words : int;
}

type node = {
  id : int;
  node_name : string;
  layer : Layer.t;
  bottoms : string list;
  tops : string list;
  in_shapes : Shape.t list;
  out_shape : Shape.t;
  param_shapes : Shape.t list;
  fmt : Db_fixed.Fixed.format option;
  cost : cost;
}

type t = { net_name : string; nodes : node list }

let fail fmt = Db_util.Error.failf_at ~component:"network" fmt

let node ~node_name ~layer ~bottoms ~tops =
  {
    id = 0;
    node_name;
    layer;
    bottoms;
    tops;
    in_shapes = [];
    out_shape = Shape.vector 1;
    param_shapes = [];
    fmt = None;
    cost = Annot.zero_cost;
  }

let annotate id n in_shapes =
  let out_shape = Annot.out_shape n.layer ~in_shapes in
  let param_shapes = Annot.param_shapes n.layer ~in_shapes in
  let cost = Annot.cost n.layer ~in_shapes ~out_shape ~param_shapes in
  { n with id; in_shapes; out_shape; param_shapes; cost }

(* Fusion and training ops are IR-only extensions of the vocabulary: a
   frontend network describes an inference model as written. *)
let check_node node =
  let kind = Layer.name node.layer in
  if Layer.is_training node.layer then
    fail "layer %S: training op %s cannot appear in a network" node.node_name
      kind;
  Option.iter
    (fun act ->
      fail "layer %S: fused activation %s+%s cannot appear in a network"
        node.node_name kind (Layer.activation_name act))
    (Layer.fused_activation node.layer);
  let n = List.length node.bottoms in
  match Layer.expected_arity node.layer with
  | `Exactly k when n <> k ->
      fail "layer %S (%s) expects %d bottom(s), got %d" node.node_name kind k n
  | `At_least k when n < k ->
      fail "layer %S (%s) expects at least %d bottoms, got %d" node.node_name
        kind k n
  | `Exactly _ | `At_least _ -> ()

let create ~name nodes =
  if nodes = [] then fail "network %S has no layers" name;
  let nodes = Array.of_list nodes in
  let n = Array.length nodes in
  let names = Hashtbl.create n in
  Array.iter
    (fun node ->
      if Hashtbl.mem names node.node_name then
        fail "duplicate layer name %S" node.node_name;
      Hashtbl.add names node.node_name ())
    nodes;
  (* The one blob table: blob -> index of its producing node. *)
  let producer = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i node ->
      List.iter
        (fun top ->
          if Hashtbl.mem producer top then fail "duplicate top blob %S" top;
          Hashtbl.add producer top i)
        node.tops)
    nodes;
  Array.iter check_node nodes;
  (* [sources.(i)]: the producer of each of node [i]'s bottoms, in order. *)
  let sources =
    Array.map
      (fun node ->
        List.map
          (fun bottom ->
            match Hashtbl.find_opt producer bottom with
            | Some p -> p
            | None ->
                fail "layer %S consumes unknown blob %S" node.node_name bottom)
          node.bottoms)
      nodes
  in
  if not (Array.exists (fun node -> Layer.is_input node.layer) nodes) then
    fail "network %S has no input layer" name;
  (* Kahn's algorithm over blob dependencies, annotating each node as it
     is scheduled: its producers are annotated by then. *)
  let in_degree = Array.map List.length sources in
  let dependants = Array.make n [] in
  Array.iteri
    (fun i srcs -> List.iter (fun p -> dependants.(p) <- i :: dependants.(p)) srcs)
    sources;
  let ready = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.push i ready) in_degree;
  let order = ref [] and id = ref 0 in
  while not (Queue.is_empty ready) do
    let i = Queue.pop ready in
    let in_shapes = List.map (fun p -> nodes.(p).out_shape) sources.(i) in
    let node = annotate !id nodes.(i) in_shapes in
    nodes.(i) <- node;
    order := node :: !order;
    incr id;
    List.iter
      (fun f ->
        in_degree.(f) <- in_degree.(f) - 1;
        if in_degree.(f) = 0 then Queue.push f ready)
      dependants.(i)
  done;
  if !id <> n then fail "the network graph contains a cycle over blobs";
  { net_name = name; nodes = List.rev !order }

let reannotate ?fmt t =
  let shapes = Hashtbl.create 64 in
  let blob_shape b =
    match Hashtbl.find_opt shapes b with
    | Some s -> s
    | None ->
        Db_util.Error.failf_at ~component:"ir-annot"
          "graph %S: blob %S used before being produced" t.net_name b
  in
  let nodes =
    List.mapi
      (fun id n ->
        let n = annotate id n (List.map blob_shape n.bottoms) in
        List.iter (fun top -> Hashtbl.replace shapes top n.out_shape) n.tops;
        match fmt with Some _ -> { n with fmt } | None -> n)
      t.nodes
  in
  { t with nodes }

let find_node_opt t name = List.find_opt (fun n -> n.node_name = name) t.nodes

let find_node t name =
  match find_node_opt t name with
  | Some n -> n
  | None -> fail "network %S has no node %S" t.net_name name

let producer_opt t blob = List.find_opt (fun n -> List.mem blob n.tops) t.nodes

let input_nodes t = List.filter (fun n -> Layer.is_input n.layer) t.nodes

let output_blobs t =
  let consumed = Hashtbl.create 16 in
  List.iter
    (fun node -> List.iter (fun b -> Hashtbl.replace consumed b ()) node.bottoms)
    t.nodes;
  List.concat_map
    (fun node -> List.filter (fun top -> not (Hashtbl.mem consumed top)) node.tops)
    t.nodes

let layer_count t =
  List.length (List.filter (fun n -> not (Layer.is_input n.layer)) t.nodes)

let last_node t =
  match List.rev t.nodes with [] -> None | last :: _ -> Some last

let iter t f = List.iter f t.nodes

let fold t ~init ~f = List.fold_left f init t.nodes

let has_layer t pred = List.exists (fun n -> pred n.layer) t.nodes

let total_macs t = fold t ~init:0 ~f:(fun acc n -> acc + n.cost.macs)

let total_params t = fold t ~init:0 ~f:(fun acc n -> acc + n.cost.param_words)

let pp fmt t =
  Format.fprintf fmt "network %S:@." t.net_name;
  List.iter
    (fun node ->
      Format.fprintf fmt "  %-14s %a  [%s] -> [%s]@." node.node_name Layer.pp
        node.layer
        (String.concat ", " node.bottoms)
        (String.concat ", " node.tops))
    t.nodes
