(* serve-mixed: an in-process daemon over a size-bounded persistent store,
   driven by an open-loop load generator.

   The mix: 70% warm /generate of small zoo models (pre-filled into the
   store during set-up), 10% cold /generate with a constraint never seen
   before (a miss, a generation and a store write), 20% /simulate of
   mnist with 1-4 samples.  The generator has one connection per job and
   times every request from when it was due, so a stall also charges the
   requests queued behind it. *)

open Common
module Serve = Db_serve.Serve
module Protocol = Db_serve.Protocol
module Store = Db_store.Disk_store

let warm_models = [ "mlp"; "cmac"; "ann0"; "lenet5"; "mnist" ]
let fixed_rate = 150.0
let fixed_seconds = 5.0
let latency_limit_ms = 50.0
let step_seconds = 1.5
let store_max_bytes = 1024 * 1024
let sim_seeds = 8

type kind = Warm | Cold | Simulate of int * int  (** seed, samples *)

let kind_name = function
  | Warm -> "serve.generate_warm"
  | Cold -> "serve.generate_cold"
  | Simulate _ -> "serve.simulate"

let body_of ~model ?constraint_script ?sim () =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"model\":\"%s\"" (Protocol.json_escape (source model));
  Option.iter
    (fun c -> Printf.bprintf b ",\"constraint\":\"%s\"" (Protocol.json_escape c))
    constraint_script;
  Option.iter (fun (seed, samples) -> Printf.bprintf b ",\"seed\":%d,\"samples\":%d" seed samples) sim;
  Buffer.add_string b "}";
  Buffer.contents b

(* Cold requests differ from every earlier one in their LUT budget. *)
let cold_counter = ref 0

let draw rng =
  let u = Db_util.Rng.int rng 100 in
  if u < 70 then
    let model = List.nth warm_models (Db_util.Rng.int rng (List.length warm_models)) in
    (Warm, "/generate", body_of ~model ())
  else if u < 80 then begin
    incr cold_counter;
    let script = constraint_script ~dsps:16 ~luts:(40000 + !cold_counter) ~bram_kb:1024 in
    (Cold, "/generate", body_of ~model:"mlp" ~constraint_script:script ())
  end
  else
    let seed = 1 + Db_util.Rng.int rng sim_seeds and samples = 1 + Db_util.Rng.int rng 4 in
    (Simulate (seed, samples), "/simulate", body_of ~model:"mnist" ~sim:(seed, samples) ())

type sample = {
  s_kind : kind;
  s_latency_ms : float;  (** from when the request was due *)
  s_late_ms : float;  (** how late the generator sent it *)
  s_status : int;
  s_digest : string;  (** the reply's output_sha256, "-" when it has none *)
}

let json_field key body =
  let pat = Printf.sprintf "\"%s\":\"" key in
  let pl = String.length pat in
  let rec find i =
    if i + pl > String.length body then None
    else if String.sub body i pl = pat then
      let stop = String.index_from body (i + pl) '"' in
      Some (String.sub body (i + pl) (stop - i - pl))
    else find (i + 1)
  in
  find 0

(* The load generator: a separate process (so its allocations and
   collections do not stop the daemon's domains) with one connection per
   job.  It reads the plan, one "span-name TAB path TAB body" line per
   request, sends request i when it is due, and prints one result line per
   request. *)
let loadgen_child ~plan_file ~port ~rate =
  let ic = open_in_bin plan_file in
  let plan =
    let rec read acc =
      match input_line ic with
      | line -> (
          match String.split_on_char '\t' line with
          | [ name; path; body ] -> read ((name, path, body) :: acc)
          | _ -> failwith "malformed plan line")
      | exception End_of_file -> Array.of_list (List.rev acc)
    in
    read []
  in
  close_in ic;
  let n = Array.length plan in
  let results = Array.make n "" in
  let next = Atomic.make 0 in
  let start = Trace.now () +. 0.005 in
  let client c () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let name, path, body = plan.(i) in
        let due = start +. (float_of_int i /. rate) in
        let wait = due -. Trace.now () in
        if wait > 0.0 then Unix.sleepf wait;
        let sent = Trace.now () in
        let status, reply =
          Trace.with_request (i + 1) (fun () ->
              Trace.span name (fun () ->
                  try
                    Protocol.request ~port ~meth:"POST" ~path
                      ~headers:[ ("x-client", Printf.sprintf "loadgen-%d" c) ]
                      ~body ()
                  with Unix.Unix_error _ -> (0, "")))
        in
        let done_ = Trace.now () in
        results.(i) <-
          Printf.sprintf "r %d %.9f %.9f %d %s" i
            ((done_ -. due) *. 1000.0)
            (Float.max 0.0 (sent -. due) *. 1000.0)
            status
            (Option.value (json_field "output_sha256" reply) ~default:"-");
        loop ()
      end
    in
    loop ()
  in
  let clients = List.init (jobs ()) (fun c -> Domain.spawn (client c)) in
  List.iter Domain.join clients;
  Array.iter print_endline results;
  List.iter (fun s -> print_endline ("span " ^ Trace.to_json s)) (fst (Trace.take ()))

(* Send [n] requests drawn from [rng], due at [rate] per second. *)
let open_loop ~port ~rng ~rate ~n =
  let plan = Array.init n (fun _ -> draw rng) in
  let plan_file = Filename.concat out_dir (Printf.sprintf "plan-%d.txt" (Unix.getpid ())) in
  let oc = open_out_bin plan_file in
  Array.iter (fun (kind, path, body) -> Printf.fprintf oc "%s\t%s\t%s\n" (kind_name kind) path body) plan;
  close_out oc;
  let lines =
    child_lines
      [ "--loadgen"; plan_file; "--port"; string_of_int port; "--rate"; Printf.sprintf "%.17g" rate;
        "--trace"; (if !Trace.enabled then "1" else "0") ]
  in
  Sys.remove plan_file;
  let results = Array.make n None in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "r"; i; lat; late; status; digest ] ->
          let i = int_of_string i in
          let kind, _, _ = plan.(i) in
          results.(i) <-
            Some
              {
                s_kind = kind;
                s_latency_ms = float_of_string lat;
                s_late_ms = float_of_string late;
                s_status = int_of_string status;
                s_digest = digest;
              }
      | "span" :: _ -> Trace.foreign := String.sub line 5 (String.length line - 5) :: !Trace.foreign
      | _ -> ())
    lines;
  Array.to_list (Array.map Option.get results)

let ok s = s.s_status = 200

(* A step meets the limit when every request succeeded, p99 latency is
   within the limit and the generator was not falling further behind
   (the last tenth of the requests was sent on time). *)
let meets_limit samples =
  let n = List.length samples in
  let tail = List.filteri (fun i _ -> i >= n - max 1 (n / 10)) samples in
  List.for_all ok samples
  && quantile 0.99 (List.map (fun s -> s.s_latency_ms) samples) <= latency_limit_ms
  && List.for_all (fun s -> s.s_late_ms <= latency_limit_ms) tail

(* Rates rise by half until a step fails, then two bisection steps. *)
let max_rate ~port ~rng =
  let step rate = meets_limit (open_loop ~port ~rng ~rate ~n:(int_of_float (rate *. step_seconds))) in
  let rec climb rate =
    if rate > 5000.0 then (rate, rate)
    else if step rate then climb (rate *. 1.5)
    else (rate /. 1.5, rate)
  in
  let lo, hi = climb fixed_rate in
  let rec bisect lo hi k =
    if k = 0 then lo
    else
      let mid = (lo +. hi) /. 2.0 in
      if step mid then bisect mid hi (k - 1) else bisect lo mid (k - 1)
  in
  bisect lo hi 2

let metrics_of port =
  let _, text = Protocol.request ~port ~meth:"GET" ~path:"/metrics" () in
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' text)

let store_entries dir =
  let count = ref 0 in
  Array.iter
    (fun shard ->
      let path = Filename.concat dir shard in
      if Sys.is_directory path then
        Array.iter
          (fun f -> if Filename.check_suffix f ".db" then incr count)
          (Sys.readdir path))
    (Sys.readdir dir);
  !count

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

type setup = { daemon : Serve.t; port : int; dir : string }

(* Pre-fill the store with the warm models, drop the in-memory cache so
   the first warm requests are store hits, start the daemon. *)
let setup index =
  ensure_out_dir ();
  let dir = Filename.concat out_dir (Printf.sprintf "store-%d-%d" (Unix.getpid ()) index) in
  if Sys.file_exists dir then remove_tree dir;
  Db_core.Design_cache.clear ();
  let cons = Db_core.Constraints.parse default_script in
  let store = Store.open_store ~max_bytes:store_max_bytes ~dir () in
  List.iter
    (fun model ->
      let net = Db_nn.Caffe.import_string (source model) in
      Store.store store
        ~key:(Db_core.Design_cache.cache_key cons net)
        (Db_core.Generator.generate cons net))
    warm_models;
  let daemon =
    Serve.start
      {
        Serve.default_config with
        Serve.port = 0;
        workers = jobs ();
        store_dir = Some dir;
        store_max_bytes = Some store_max_bytes;
      }
  in
  { daemon; port = Serve.port daemon; dir }

let teardown s =
  Serve.stop s.daemon;
  remove_tree s.dir

(* The digest /simulate reports, computed here through the simulator's
   batched entry point with the inputs the request names. *)
let tensor_digest tensors =
  let buf = Buffer.create 1024 in
  List.iter
    (fun t -> ignore (Db_tensor.Tensor.fold (fun () v -> Printf.bprintf buf "%h;" v) () t))
    tensors;
  Db_store.Sha256.hex (Buffer.contents buf)

let expected_digest (seed, samples) =
  let net = Db_nn.Caffe.import_string (source "mnist") in
  let design = Db_core.Design_cache.generate (Db_core.Constraints.parse default_script) net in
  let rng = Db_util.Rng.create seed in
  let params = Db_nn.Params.init_xavier rng net in
  let batch = random_inputs rng net samples in
  tensor_digest (Db_sim.Simulator.functional_output_batch design params ~batch)

let checks samples =
  let sims =
    List.sort_uniq compare
      (List.filter_map (fun s -> match s.s_kind with Simulate (a, b) -> Some (a, b) | _ -> None) samples)
  in
  let expected = List.map (fun k -> (k, expected_digest k)) sims in
  [
    ("every request answered 200", List.for_all ok samples);
    ( "every /simulate digest matches the benchmark's own",
      List.for_all
        (fun s ->
          match s.s_kind with
          | Simulate (a, b) -> s.s_digest = List.assoc (a, b) expected
          | _ -> true)
        samples );
  ]

type measured = {
  fixed : sample list;
  rate : float;
  stats : int * int * int * int;
  metrics_delta : string -> int;
  entries_before : int;
  entries_after : int;
}

let measure s ~rng ~with_search =
  let m0 = metrics_of s.port and st0 = Serve.stats s.daemon in
  let entries_before = store_entries s.dir in
  let fixed = open_loop ~port:s.port ~rng ~rate:fixed_rate ~n:(int_of_float (fixed_rate *. fixed_seconds)) in
  let m1 = metrics_of s.port and st1 = Serve.stats s.daemon in
  let entries_after = store_entries s.dir in
  let rate = if with_search then max_rate ~port:s.port ~rng else nan in
  let sub (a, b, c, d) (e, f, g, h) = (e - a, f - b, g - c, h - d) in
  let get m k = Option.value (List.assoc_opt k m) ~default:0 in
  {
    fixed;
    rate;
    stats = sub st0 st1;
    metrics_delta = (fun k -> get m1 k - get m0 k);
    entries_before;
    entries_after;
  }

let p50_of kind_pred m =
  median (List.filter_map (fun s -> if kind_pred s.s_kind then Some s.s_latency_ms else None) m.fixed)

let layer_metrics m =
  let requests, okc, errors, shed = m.stats in
  let d = m.metrics_delta in
  let writes = d "serve.store.miss" - d "serve.store.write_failed" in
  let hits = d "design_cache.hits" and misses = d "design_cache.misses" in
  [
    ("serve.generate_warm_ms", p50_of (fun k -> k = Warm) m);
    ("serve.generate_cold_ms", p50_of (fun k -> k = Cold) m);
    ("serve.simulate_ms", p50_of (function Simulate _ -> true | _ -> false) m);
    ("serve.requests", float_of_int requests);
    ("serve.ok", float_of_int okc);
    ("serve.errors", float_of_int errors);
    ("serve.shed", float_of_int shed);
    ("store.hits", float_of_int (d "serve.store.hit"));
    ("store.misses", float_of_int (d "serve.store.miss"));
    ("store.writes", float_of_int writes);
    ("store.evicted", float_of_int (m.entries_before + writes - m.entries_after));
    ("core.design_cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
    ("loadgen.late_ms", quantile 0.99 (List.map (fun s -> s.s_late_ms) m.fixed));
  ]

let run ~seed ~seconds:_ ~trace =
  let s, setup_s = repeat_setup ~release:teardown 3 setup in
  let rng = Db_util.Rng.create seed in
  let m =
    Fun.protect ~finally:(fun () -> teardown s) (fun () -> measure s ~rng ~with_search:true)
  in
  let lat = List.map (fun s -> s.s_latency_ms) m.fixed in
  let modeled =
    List.map
      (fun model ->
        ( model,
          modeled_of
            (Db_core.Design_cache.generate (Db_core.Constraints.parse default_script)
               (Db_nn.Caffe.import_string (source model))) ))
      warm_models
  in
  print_modeled modeled;
  Printf.printf
    "serve-mixed: %d requests at %.0f/s, p50 %.3f ms, p99 %.3f ms; p50 warm %.3f cold %.3f simulate %.3f ms; max rate %.1f/s\n"
    (List.length m.fixed) fixed_rate (median lat) (quantile 0.99 lat)
    (p50_of (fun k -> k = Warm) m) (p50_of (fun k -> k = Cold) m)
    (p50_of (function Simulate _ -> true | _ -> false) m) m.rate;
  let found = checks m.fixed in
  let failed = List.length (List.filter (fun s -> not (ok s)) m.fixed) in
  let rel = reference_rel_error "mnist" in
  if not trace then
    {
      attempted = List.length m.fixed;
      failed;
      checks = found;
      metrics =
        end_to_end ~setup_s ~op_ms:lat ~rate:m.rate ~rss:(peak_rss_mb ()) ~modeled ~rel;
    }
  else begin
    Trace.enabled := true;
    let s = setup 0 in
    let t =
      Fun.protect ~finally:(fun () -> teardown s) (fun () -> measure s ~rng ~with_search:false)
    in
    let traced = List.map (fun s -> s.s_latency_ms) t.fixed in
    {
      attempted = List.length m.fixed + List.length t.fixed;
      failed = failed + List.length (List.filter (fun s -> not (ok s)) t.fixed);
      checks = found @ List.map (fun (n, b) -> ("traced: " ^ n, b)) (checks t.fixed);
      metrics = layer_metrics t @ [ ("trace.overhead_ms", median traced -. median lat) ];
    }
  end

let probe ~seed =
  let s = setup 0 in
  let rng = Db_util.Rng.create seed in
  Fun.protect
    ~finally:(fun () -> teardown s)
    (fun () -> layer_metrics (measure s ~rng ~with_search:false))
