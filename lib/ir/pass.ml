(* The pass manager and the initial optimization pass set.  Each pass is
   a named graph-to-graph function; [run_passes] re-verifies the graph
   after every pass and wraps each in a [Db_obs] span so pass time shows
   up in traces.  Structural passes end with [Graph.reannotate], so the
   attributes the verifier checks are always freshly derived. *)

type pass = { pass_name : string; run : Graph.t -> Graph.t }

let fail fmt = Db_util.Error.failf_at ~component:"ir-pass" fmt

(* Recompute shapes/params/costs and renumber ids. *)
let annotate = { pass_name = "annotate"; run = Graph.reannotate ?fmt:None }

(* Dropout is the identity at inference ([Ops.dropout_inference] copies
   its input), so dropout nodes are removed and their consumers rewired
   to the dropout's source blob. *)
let elide_dropout =
  let run (g : Graph.t) =
    let subst : (string, string) Hashtbl.t = Hashtbl.create 8 in
    let rec resolve b =
      match Hashtbl.find_opt subst b with Some b' -> resolve b' | None -> b
    in
    let nodes =
      List.rev
        (List.fold_left
           (fun acc (n : Graph.node) ->
             let bottoms = List.map resolve n.Graph.bottoms in
             match n.Graph.layer, bottoms with
             | Op.Dropout _, [ src ] ->
                 List.iter
                   (fun top -> Hashtbl.replace subst top src)
                   n.Graph.tops;
                 acc
             | _ -> { n with Graph.bottoms } :: acc)
           [] g.Graph.nodes)
    in
    Graph.reannotate { g with Graph.nodes }
  in
  { pass_name = "elide-dropout"; run }

(* Fold a standalone activation into the conv/FC producing its input —
   the paper's synergy neuron computes MAC + activation in one unit.
   Eligible when the producer has no fused activation yet, produces
   exactly the one blob, and that blob has no other consumer. *)
let fold_activations =
  let run (g : Graph.t) =
    let consumer_count : (string, int) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun (n : Graph.node) ->
        List.iter
          (fun b ->
            Hashtbl.replace consumer_count b
              (1 + Option.value ~default:0 (Hashtbl.find_opt consumer_count b)))
          n.Graph.bottoms)
      g.Graph.nodes;
    (* producer-node-name -> activation node to absorb *)
    let fusions : (string, Graph.node) Hashtbl.t = Hashtbl.create 8 in
    let absorbed : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (act_node : Graph.node) ->
        match act_node.Graph.layer, act_node.Graph.bottoms with
        | Op.Act _, [ blob ] -> begin
            match Graph.producer_opt g blob with
            | Some p
              when (match p.Graph.layer with
                   | Op.Conv { fused = None; _ } | Op.Fc { fused = None; _ } ->
                       true
                   | _ -> false)
                   && p.Graph.tops = [ blob ]
                   && Hashtbl.find_opt consumer_count blob = Some 1
                   && not (Hashtbl.mem fusions p.Graph.node_name) ->
                Hashtbl.replace fusions p.Graph.node_name act_node;
                Hashtbl.replace absorbed act_node.Graph.node_name ()
            | Some _ | None -> ()
          end
        | _ -> ())
      g.Graph.nodes;
    let nodes =
      List.filter_map
        (fun (n : Graph.node) ->
          if Hashtbl.mem absorbed n.Graph.node_name then None
          else
            match Hashtbl.find_opt fusions n.Graph.node_name with
            | Some act_node ->
                let act =
                  match act_node.Graph.layer with
                  | Op.Act a -> a
                  | _ -> fail "fold-activations: non-activation absorbed"
                in
                Some
                  {
                    n with
                    Graph.layer = Op.with_fused n.Graph.layer act;
                    tops = act_node.Graph.tops;
                  }
            | None -> Some n)
        g.Graph.nodes
    in
    Graph.reannotate { g with Graph.nodes }
  in
  { pass_name = "fold-activations"; run }

(* Flatten nested concats: when a concat's input comes from another
   concat that feeds only it, splice the parent's inputs in place.
   Channel concatenation is associative, so this is exact. *)
let canonicalize_concat =
  let run (g : Graph.t) =
    let step (g : Graph.t) =
      let consumer_count : (string, int) Hashtbl.t = Hashtbl.create 32 in
      List.iter
        (fun (n : Graph.node) ->
          List.iter
            (fun b ->
              Hashtbl.replace consumer_count b
                (1 + Option.value ~default:0 (Hashtbl.find_opt consumer_count b)))
            n.Graph.bottoms)
        g.Graph.nodes;
      let spliced : (string, unit) Hashtbl.t = Hashtbl.create 4 in
      let changed = ref false in
      let splice (child : Graph.node) =
        let bottoms =
          List.concat_map
            (fun blob ->
              match Graph.producer_opt g blob with
              | Some p
                when (match p.Graph.layer with Op.Concat -> true | _ -> false)
                     && p.Graph.tops = [ blob ]
                     && Hashtbl.find_opt consumer_count blob = Some 1 ->
                  changed := true;
                  Hashtbl.replace spliced p.Graph.node_name ();
                  p.Graph.bottoms
              | Some _ | None -> [ blob ])
            child.Graph.bottoms
        in
        { child with Graph.bottoms }
      in
      let nodes =
        List.map
          (fun (n : Graph.node) ->
            match n.Graph.layer with Op.Concat -> splice n | _ -> n)
          g.Graph.nodes
      in
      let nodes =
        List.filter (fun n -> not (Hashtbl.mem spliced n.Graph.node_name)) nodes
      in
      (!changed, { g with Graph.nodes })
    in
    let rec fixpoint g =
      let changed, g = step g in
      if changed then fixpoint g else g
    in
    Graph.reannotate (fixpoint g)
  in
  { pass_name = "canonicalize-concat"; run }

let default_pipeline =
  [ elide_dropout; fold_activations; canonicalize_concat; annotate ]

let run_passes ?(verify = true) (g : Graph.t) passes =
  let check g = if verify then Verify.check_exn g in
  check g;
  List.fold_left
    (fun g p ->
      let g' =
        Db_obs.Obs.with_span ("ir.pass." ^ p.pass_name) (fun () -> p.run g)
      in
      Db_obs.Obs.incr ("ir.pass." ^ p.pass_name);
      check g';
      g')
    g passes

(* The canonical optimized form: lower, then the default pipeline. *)
let optimize ?(verify = true) g = run_passes ~verify g default_pipeline
