(* Spans recorded by the benchmark around the program's public entry
   points.  Disabled (the untraced runs) a span costs one branch; enabled,
   spans are kept in memory and written once, when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  start_ns : int64;
  stop_ns : int64;
  request : int;  (** the operation the span belongs to; 0 outside one *)
  workload : string;
}

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9

let enabled = ref false
let workload = ref ""
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1

(* The innermost open span and the current request, per domain: the serve
   load generator records from several client domains at once. *)
let current : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> (0, 0))

let with_request request f =
  if not !enabled then f ()
  else begin
    let parent, _ = Domain.DLS.get current in
    Domain.DLS.set current (parent, request);
    Fun.protect ~finally:(fun () -> Domain.DLS.set current (parent, 0)) f
  end

let span name f =
  if not !enabled then f ()
  else begin
    let parent, request = Domain.DLS.get current in
    let id = Atomic.fetch_and_add next_id 1 in
    Domain.DLS.set current (id, request);
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      Domain.DLS.set current (parent, request);
      Mutex.protect lock (fun () ->
          spans :=
            { id; name; parent; start_ns; stop_ns; request; workload = !workload }
            :: !spans)
    in
    Fun.protect ~finally:close f
  end

(* Spans recorded by child processes, already rendered. *)
let foreign : string list ref = ref []

(* Hand over everything recorded so far and start afresh. *)
let take () =
  let own = Mutex.protect lock (fun () ->
    let s = !spans in
    spans := [];
    s)
  in
  Domain.DLS.set current (0, 0);
  let f = !foreign in
  foreign := [];
  (List.rev own, List.rev f)

let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

(* Self time per span name: a span's duration minus the union of the
   intervals its direct children cover (children of one parent may
   overlap when they ran on several domains). *)
let self_times () =
  let all = Mutex.protect lock (fun () -> !spans) in
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent s) all;
  let covered s =
    let kids =
      List.sort (fun a b -> Int64.compare a.start_ns b.start_ns)
        (Hashtbl.find_all children s.id)
    in
    let total, _ =
      List.fold_left
        (fun (acc, reach) k ->
          let lo = Int64.max k.start_ns reach and hi = k.stop_ns in
          if Int64.compare hi lo > 0 then
            (acc +. (Int64.to_float (Int64.sub hi lo) *. 1e-9), hi)
          else (acc, reach))
        (0.0, s.start_ns) kids
    in
    total
  in
  let table = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = Float.max 0.0 (duration s -. covered s) in
      let prev = Option.value (Hashtbl.find_opt table s.name) ~default:0.0 in
      Hashtbl.replace table s.name (prev +. self))
    all;
  table

let to_json s =
  Printf.sprintf
    "{\"pid\":%d,\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"workload\":%S,\"request\":%d}"
    (Unix.getpid ()) s.id s.name s.parent s.start_ns s.stop_ns s.workload s.request

(* One JSON object per line: this process's spans, then its children's. *)
let write path (own, children) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun s -> output_string oc (to_json s ^ "\n")) own;
      List.iter (fun line -> output_string oc (line ^ "\n")) children)
