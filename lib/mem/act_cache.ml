(* Inter-phase activation residency for training designs.  The BP phase
   replays forward tensors (every [Backward] node's second input), so the
   FF phase must stash them somewhere between phases.  Given an on-chip
   budget this module decides which activations stay resident in the
   feature buffer and which spill to DRAM — a spilled blob is written
   once at the end of FF and read back once during BP, costing two DRAM
   transfers of its size per training step.

   The policy is greedy in BP consumption order (deepest layer first,
   i.e. the order the backward pass needs them), which is deterministic
   and keeps the tensors wanted earliest in the cheap memory. *)

module Graph = Db_ir.Graph
module Op = Db_ir.Op
module Shape = Db_tensor.Shape

let fail fmt = Db_util.Error.failf_at ~component:"act-cache" fmt

type entry = {
  blob : string;  (** forward blob name *)
  words : int;
  resident : bool;  (** held on-chip between FF and BP *)
}

type plan = {
  budget_words : int;
  entries : entry list;  (** in BP consumption order *)
  resident_words : int;
  spilled_words : int;
}

(* Forward blobs the backward pass replays, in the order BP consumes
   them: the [ref] input of each [Backward] node, first occurrence
   wins.  The dY gradient inputs are produced within the BP phase
   itself and never cross the phase boundary. *)
let replayed_blobs (g : Graph.t) =
  let blob_words : (string, int) Hashtbl.t = Hashtbl.create 32 in
  Graph.iter g (fun n ->
      List.iter
        (fun top ->
          Hashtbl.replace blob_words top (Shape.numel n.Graph.out_shape))
        n.Graph.tops);
  let seen = Hashtbl.create 16 in
  let refs = ref [] in
  Graph.iter g (fun n ->
      match n.Graph.layer, n.Graph.bottoms with
      | Op.Backward _, [ _dy; reference ] ->
          if not (Hashtbl.mem seen reference) then begin
            Hashtbl.replace seen reference ();
            let words =
              match Hashtbl.find_opt blob_words reference with
              | Some w -> w
              | None -> fail "backward node %S replays unknown blob %S"
                          n.Graph.node_name reference
            in
            refs := (reference, words) :: !refs
          end
      | Op.Backward _, _ ->
          fail "backward node %S does not have [dY; ref] inputs"
            n.Graph.node_name
      | _ -> ());
  List.rev !refs

let plan (g : Graph.t) ~budget_words =
  if budget_words < 0 then fail "negative activation budget %d" budget_words;
  let entries, resident_words, spilled_words =
    List.fold_left
      (fun (acc, res, spill) (blob, words) ->
        if res + words <= budget_words then
          ({ blob; words; resident = true } :: acc, res + words, spill)
        else ({ blob; words; resident = false } :: acc, res, spill + words))
      ([], 0, 0) (replayed_blobs g)
  in
  { budget_words; entries = List.rev entries; resident_words; spilled_words }

let total_words p = p.resident_words + p.spilled_words

(* Extra DRAM traffic per training step: each spilled word is written
   after FF and read back during BP. *)
let dram_words_per_step p = 2 * p.spilled_words

let resident p = List.filter (fun e -> e.resident) p.entries

let is_resident p blob =
  List.exists (fun e -> e.resident && e.blob = blob) p.entries

let pp fmt p =
  Format.fprintf fmt
    "activation cache: budget=%d resident=%d spilled=%d (dram %d words/step)@."
    p.budget_words p.resident_words p.spilled_words (dram_words_per_step p);
  List.iter
    (fun e ->
      Format.fprintf fmt "  %-20s %6d words  %s@." e.blob e.words
        (if e.resident then "resident" else "spill"))
    p.entries
