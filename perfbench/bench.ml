(* The benchmark command: bench.exe --workload W --seed N --seconds S --trace 0|1

   Prints human-readable figures, then as its last line one JSON object
   {correct, attempted, failed, metrics}.  Untraced runs (--trace 0)
   report the end-to-end metrics; traced runs report the per-layer
   metrics, from spans the benchmark records around the program's public
   entry points.  See README.md for what each workload and metric is. *)

open Common

let end_to_end_units =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("max_rate_per_s", "1/s");
    ("peak_rss_mb", "MiB");
    ("modeled_cycles", "cycles");
    ("modeled_dram_bytes", "bytes");
    ("modeled_luts", "LUTs");
    ("modeled_bram_kb", "KiB");
    ("output_rel_error", "ratio");
  ]

(* Per-layer metrics, grouped by the workload whose traced run measures
   them.  A traced run of another workload gets the group from a small
   traced probe of the owning workload, so every traced report is
   complete. *)
let per_layer =
  [
    ( "zoo-generate",
      [
        ("nn.import_s", "s"); ("ir.lower_s", "s"); ("core.cache_key_s", "s");
        ("core.search_s", "s"); ("core.compile_s", "s"); ("core.rtl_s", "s");
        ("hdl.emit_s", "s"); ("analysis.analyze_s", "s"); ("check.check_s", "s");
        ("sim.timing_s", "s"); ("core.compile.transfers", "count");
        ("core.compile.ns_per_transfer", "ns"); ("hdl.rtl_bytes", "bytes");
      ] );
    ( "replay-alexnet",
      [
        ("nn.params_s", "s"); ("core.generate_s", "s"); ("sim.compile_trace_s", "s");
        ("sim.bind_s", "s"); ("sim.replay_s", "s"); ("sim.replay.macs", "count");
        ("sim.replay.ns_per_mac", "ns");
      ] );
    ( "explore-faults-mnist",
      [
        ("dse.explore_s", "s"); ("dse.evaluated", "count"); ("dse.deduped", "count");
        ("dse.infeasible", "count"); ("dse.useful_ratio", "ratio");
        ("dse.candidates_per_s", "1/s"); ("core.design_cache.hits", "count");
        ("core.design_cache.misses", "count"); ("fault.campaign_s", "s");
        ("fault.injections", "count"); ("fault.injections_per_s", "1/s");
      ] );
    ( "serve-mixed",
      [
        ("serve.generate_warm_ms", "ms"); ("serve.generate_cold_ms", "ms");
        ("serve.simulate_ms", "ms"); ("serve.requests", "count"); ("serve.ok", "count");
        ("serve.errors", "count"); ("serve.shed", "count"); ("store.hits", "count");
        ("store.misses", "count"); ("store.writes", "count"); ("store.evicted", "count");
        ("core.design_cache.hit_ratio", "ratio"); ("loadgen.late_ms", "ms");
      ] );
    ("", [ ("parallel.cpu_util", "ratio"); ("trace.overhead_ms", "ms"); ("trace.spans", "count") ]);
  ]

let workloads =
  [
    ("zoo-generate", (Zoo.run, Zoo.probe));
    ("replay-alexnet", (Replay.run, Replay.probe));
    ("explore-faults-mnist", (Explore_faults.run, Explore_faults.probe));
    ("serve-mixed", (Serve_mixed.run, Serve_mixed.probe));
  ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Fill every per-layer group the workload's own traced run left out from
   a traced probe of the workload that owns it. *)
let complete_layers ~workload ~seed own =
  let own_spans, children = Trace.take () in
  let own_spans = ref own_spans and children = ref children in
  let have = Hashtbl.create 64 in
  List.iter (fun (n, v) -> Hashtbl.replace have n v) own;
  List.iter
    (fun (owner, group) ->
      if owner <> "" && List.exists (fun (n, _) -> not (Hashtbl.mem have n)) group then begin
        let _, probe = List.assoc owner workloads in
        Trace.workload := owner ^ "/probe";
        let got = probe ~seed in
        let o, c = Trace.take () in
        own_spans := !own_spans @ o;
        children := !children @ c;
        List.iter (fun (n, v) -> if not (Hashtbl.mem have n) then Hashtbl.replace have n v) got
      end)
    per_layer;
  Trace.workload := workload;
  Hashtbl.replace have "trace.spans"
    (float_of_int (List.length !own_spans + List.length !children));
  (have, (!own_spans, !children))

let main ~workload ~seed ~seconds ~trace =
  let run, _ = List.assoc workload workloads in
  Trace.workload := workload;
  let o = run ~seed ~seconds:(float_of_int seconds) ~trace in
  let metrics =
    if not trace then List.map (fun (n, u) -> (n, u, List.assoc n o.metrics)) end_to_end_units
    else begin
      Trace.enabled := true;
      let have, spans = complete_layers ~workload ~seed o.metrics in
      ensure_out_dir ();
      Trace.write
        (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed))
        spans;
      List.concat_map
        (fun (_, group) -> List.map (fun (n, u) -> (n, u, Hashtbl.find have n)) group)
        per_layer
    end
  in
  let checks =
    o.checks
    @ List.filter_map
        (fun (n, _, v) -> if Float.is_finite v then None else Some (n ^ " is a finite number", false))
        metrics
  in
  List.iter (fun (name, ok) -> if not ok then Printf.printf "CHECK FAILED: %s\n" name) checks;
  let failed = o.failed + List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let correct = failed = 0 in
  print_result ~correct ~attempted:(o.attempted + List.length checks) ~failed
    (List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let sweep = ref "" and plan = ref "" and port = ref 0 and rate = ref 0.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--zoo-sweep", Arg.Set_string sweep, "SPEC (internal) one cold zoo sweep");
      ("--loadgen", Arg.Set_string plan, "FILE (internal) open-loop load generator");
      ("--port", Arg.Set_int port, "PORT (internal) daemon port for --loadgen");
      ("--rate", Arg.Set_float rate, "R (internal) requests per second for --loadgen");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Trace.enabled := !trace = 1 && (!sweep <> "" || !plan <> "");
  if !sweep <> "" then Zoo.child !sweep
  else if !plan <> "" then Serve_mixed.loadgen_child ~plan_file:!plan ~port:!port ~rate:!rate
  else if not (List.mem_assoc !workload workloads) then begin
    prerr_endline
      ("unknown workload; expected one of: " ^ String.concat ", " (List.map fst workloads));
    exit 2
  end
  else main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
