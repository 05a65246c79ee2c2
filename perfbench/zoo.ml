(* zoo-generate: cold generation of the twelve zoo models.

   Each sweep runs in a fresh child process, so every sweep is cold: the
   design cache and the compiler's and simulator's process-wide memo
   tables start empty, as they do for a user who runs the flow once.
   Sweep 0 uses the default constraint for every model (its RTL is
   checked against the committed pin); later sweeps draw each model's
   budget from a seeded grid around the default. *)

open Common

let pin_file = Filename.concat "test" (Filename.concat "golden_ir" "zoo_rtl.md5")

let read_pins () =
  let ic = open_in_bin pin_file in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ name; digest ] -> Some (name, digest)
      | _ -> None)
    (String.split_on_char '\n' text)

let default_budget = (16, 60000, 1024)
let dsp_grid = [| 12; 14; 16; 18; 20 |]
let lut_grid = [| 48000; 54000; 60000; 66000; 72000 |]
let bram_grid = [| 768; 896; 1024; 1152; 1280 |]

let draw_budget rng =
  let pick a = a.(Db_util.Rng.int rng (Array.length a)) in
  let d = pick dsp_grid in
  let l = pick lut_grid in
  (d, l, pick bram_grid)

(* --- the child: one cold sweep ------------------------------------------ *)

(* The generation flow, stage by stage through the public entry points,
   in the order [Generator.generate] runs them. *)
let generate_design cons src =
  let net = Trace.span "nn.import" (fun () -> Db_nn.Caffe.import_string src) in
  let design =
    Trace.span "core.generate" (fun () ->
        ignore
          (Trace.span "core.cache_key" (fun () ->
               Db_core.Design_cache.cache_key cons net));
        let ir =
          Trace.span "ir.lower" (fun () ->
              let ir = Db_ir.Lower.lower ~fmt:cons.Db_core.Constraints.fmt net in
              Db_ir.Verify.check_exn ir;
              ir)
        in
        let picked =
          Trace.span "core.search" (fun () -> Db_core.Config_search.search cons ir)
        in
        let open Db_core.Config_search in
        let program =
          Trace.span "core.compile" (fun () ->
              Db_core.Compiler.compile ir ~datapath:picked.datapath
                ~schedule:picked.schedule ~layout:picked.layout)
        in
        let rtl =
          Trace.span "core.rtl" (fun () ->
              Db_core.Generator.build_rtl net picked.datapath
                ~block_set:picked.block_set ~program)
        in
        {
          Db_core.Design.network = net;
          ir;
          constraints = cons;
          datapath = picked.datapath;
          schedule = picked.schedule;
          layout = picked.layout;
          block_set = picked.block_set;
          program;
          rtl;
        })
  in
  let verilog =
    Trace.span "hdl.emit" (fun () ->
        Db_hdl.Verilog.emit_design design.Db_core.Design.rtl)
  in
  let errors =
    Trace.span "analysis.analyze" (fun () ->
        List.length (Db_analysis.Diagnostic.errors (Db_core.Design.analyze design)))
  in
  let checked =
    Trace.span "check.check" (fun () ->
        Db_core.Checker.ok (Db_core.Checker.check design))
  in
  let modeled = Trace.span "sim.timing" (fun () -> modeled_of design) in
  (design, verilog, errors, checked, modeled)

let transfers design =
  List.fold_left
    (fun acc p -> acc + List.length p.Db_core.Compiler.transfers)
    0 design.Db_core.Design.program.Db_core.Compiler.programs

(* [spec] is "model:dsps:luts:bram_kb", comma-separated.  Prints one line
   per design, then the process's figures. *)
let child spec =
  List.iteri
    (fun index item ->
      let name, dsps, luts, bram_kb =
        Scanf.sscanf item "%[^:]:%d:%d:%d" (fun n a b c -> (n, a, b, c))
      in
      let src = source name in
      let cons = Db_core.Constraints.parse (constraint_script ~dsps ~luts ~bram_kb) in
      let t0 = Trace.now () in
      let design, verilog, errors, checked, m =
        Trace.with_request (index + 1) (fun () -> generate_design cons src)
      in
      let dt = Trace.now () -. t0 in
      Printf.printf "design %s %.9f %s %d %b %d %d %d %d %d %.3f %d %d\n" name dt
        (Digest.to_hex (Digest.string verilog))
        errors checked m.m_cycles m.m_dram_bytes m.m_luts m.m_ffs m.m_dsps
        m.m_bram_kb (transfers design) (String.length verilog))
    (String.split_on_char ',' spec);
  Hashtbl.iter
    (fun name self -> Printf.printf "self %s %.9f\n" name self)
    (Trace.self_times ());
  List.iter (fun s -> print_endline ("span " ^ Trace.to_json s)) (fst (Trace.take ()));
  Printf.printf "rss %.3f\n" (peak_rss_mb ())

(* --- the parent ---------------------------------------------------------- *)

type row = {
  r_sweep : int;
  r_name : string;
  r_seconds : float;
  r_md5 : string;
  r_errors : int;
  r_checked : bool;
  r_modeled : modeled;
  r_transfers : int;
  r_rtl_bytes : int;
}

let run_sweep ~trace index plan =
  let spec =
    String.concat ","
      (List.map (fun (name, (d, l, b)) -> Printf.sprintf "%s:%d:%d:%d" name d l b) plan)
  in
  let lines =
    child_lines [ "--zoo-sweep"; spec; "--trace"; (if trace then "1" else "0") ]
  in
  let rows = ref [] and selfs = ref [] and rss = ref nan in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "design"; name; s; md5; errors; checked; cyc; dram; luts; ffs; dsps; bram; tr; bytes ] ->
          rows :=
            {
              r_sweep = index;
              r_name = name;
              r_seconds = float_of_string s;
              r_md5 = md5;
              r_errors = int_of_string errors;
              r_checked = bool_of_string checked;
              r_modeled =
                {
                  m_cycles = int_of_string cyc;
                  m_dram_bytes = int_of_string dram;
                  m_luts = int_of_string luts;
                  m_ffs = int_of_string ffs;
                  m_dsps = int_of_string dsps;
                  m_bram_kb = float_of_string bram;
                };
              r_transfers = int_of_string tr;
              r_rtl_bytes = int_of_string bytes;
            }
            :: !rows
      | [ "self"; name; s ] -> selfs := (name, float_of_string s) :: !selfs
      | "span" :: _ ->
          Trace.foreign := String.sub line 5 (String.length line - 5) :: !Trace.foreign
      | [ "rss"; mb ] -> rss := float_of_string mb
      | _ -> ())
    lines;
  (List.rev !rows, !selfs, !rss)

let big = [ "alexnet"; "nin"; "vgg16" ]

type measured = {
  rows : row list;
  selfs : (string * float) list;  (** summed over sweeps *)
  rss : float;
  measured_s : float;
  child_cpu_s : float;
}

(* Sweeps of [models] until [seconds] have passed, at least [min_sweeps]. *)
let measure ?(models = List.map fst zoo) ~trace ~seed ~seconds ~min_sweeps () =
  let rng = Db_util.Rng.create seed in
  let children_cpu () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let c0 = children_cpu () in
  let t0 = Trace.now () in
  let rec loop i acc =
    let elapsed = Trace.now () -. t0 in
    if i >= min_sweeps && elapsed >= seconds then (List.rev acc, elapsed)
    else
      let plan =
        List.map (fun m -> (m, if i = 0 then default_budget else draw_budget rng)) models
      in
      loop (i + 1) (run_sweep ~trace i plan :: acc)
  in
  let sweeps, elapsed = loop 0 [] in
  let selfs = Hashtbl.create 32 in
  List.iter
    (fun (_, s, _) ->
      List.iter
        (fun (n, v) ->
          Hashtbl.replace selfs n (v +. Option.value (Hashtbl.find_opt selfs n) ~default:0.0))
        s)
    sweeps;
  {
    rows = List.concat_map (fun (r, _, _) -> r) sweeps;
    selfs = List.of_seq (Hashtbl.to_seq selfs);
    rss = List.fold_left (fun acc (_, _, r) -> Float.max acc r) 0.0 sweeps;
    measured_s = elapsed;
    child_cpu_s = children_cpu () -. c0;
  }

let checks pins m =
  let defaults = List.filter (fun r -> r.r_sweep = 0) m.rows in
  let default_of name = List.find (fun r -> r.r_name = name) defaults in
  let per_design =
    List.concat_map
      (fun r ->
        [
          (Printf.sprintf "sweep %d %s: zero analysis errors" r.r_sweep r.r_name, r.r_errors = 0);
          (Printf.sprintf "sweep %d %s: checker ok" r.r_sweep r.r_name, r.r_checked);
        ])
      m.rows
  in
  let pinned =
    List.map
      (fun (name, _) ->
        ( Printf.sprintf "%s: default RTL matches %s" name pin_file,
          List.assoc_opt name pins = Some (default_of name).r_md5 ))
      zoo
  in
  (* A design drawn again at the default budget must repeat exactly. *)
  let repeated =
    List.filter_map
      (fun r ->
        if r.r_sweep > 0 && r.r_md5 = (default_of r.r_name).r_md5 then
          Some
            ( Printf.sprintf "sweep %d %s: modeled figures repeat" r.r_sweep r.r_name,
              r.r_modeled = (default_of r.r_name).r_modeled )
        else None)
      m.rows
  in
  per_design @ pinned @ repeated

let layer_metrics t =
  let self n = Option.value (List.assoc_opt n t.selfs) ~default:0.0 in
  let transfers = sum (List.map (fun r -> float_of_int r.r_transfers) t.rows) in
  List.map (fun n -> (n ^ "_s", self n))
    [ "nn.import"; "ir.lower"; "core.cache_key"; "core.search"; "core.compile";
      "core.rtl"; "hdl.emit"; "analysis.analyze"; "check.check"; "sim.timing" ]
  @ [
      ("core.compile.transfers", transfers);
      ("core.compile.ns_per_transfer", self "core.compile" *. 1e9 /. transfers);
      ("hdl.rtl_bytes", sum (List.map (fun r -> float_of_int r.r_rtl_bytes) t.rows));
    ]

let run ~seed ~seconds ~trace =
  (* Set-up: the pin file, and every model source parsed once. *)
  let pins, setup_s =
    repeat_setup 9 (fun _ ->
        let pins = read_pins () in
        List.iter (fun (_, src) -> ignore (Db_nn.Caffe.import_string src)) zoo;
        pins)
  in
  let m = measure ~trace:false ~seed ~seconds ~min_sweeps:3 () in
  let defaults = List.filter (fun r -> r.r_sweep = 0) m.rows in
  print_modeled (List.map (fun r -> (r.r_name, r.r_modeled)) defaults);
  let lat = List.map (fun r -> r.r_seconds *. 1000.0) m.rows in
  let sweep_big =
    List.map
      (fun i ->
        sum
          (List.filter_map
             (fun r -> if r.r_sweep = i && List.mem r.r_name big then Some r.r_seconds else None)
             m.rows))
      (List.sort_uniq compare (List.map (fun r -> r.r_sweep) m.rows))
  in
  let small =
    List.filter_map
      (fun r -> if List.mem r.r_name big then None else Some (r.r_seconds *. 1000.0))
      m.rows
  in
  Printf.printf
    "zoo-generate: %d sweeps, %d designs in %.2f s; big-three sweep median %.3f s; small design median %.3f ms\n"
    (List.length sweep_big) (List.length m.rows) m.measured_s (median sweep_big)
    (median small);
  let found = checks pins m in
  if not trace then
    {
      attempted = List.length m.rows;
      failed = 0;
      checks = found;
      metrics =
        end_to_end ~setup_s ~op_ms:lat
          ~rate:(float_of_int (List.length m.rows) /. m.measured_s)
          ~rss:(Float.max m.rss (peak_rss_mb ()))
          ~modeled:(List.map (fun r -> (r.r_name, r.r_modeled)) defaults)
          ~rel:(reference_rel_error "mnist");
    }
  else begin
    let t = measure ~trace:true ~seed ~seconds ~min_sweeps:3 () in
    let traced = List.map (fun r -> r.r_seconds *. 1000.0) t.rows in
    {
      attempted = List.length m.rows + List.length t.rows;
      failed = 0;
      checks = found @ checks pins t;
      metrics =
        layer_metrics t
        @ [
            ("parallel.cpu_util", t.child_cpu_s /. (t.measured_s *. float_of_int (jobs ())));
            ("trace.overhead_ms", median traced -. median lat);
          ];
    }
  end

(* The generation layers over the nine small models, for traced runs of
   workloads that generate no zoo sweep. *)
let probe ~seed =
  let small = List.filter (fun m -> not (List.mem m big)) (List.map fst zoo) in
  layer_metrics (measure ~models:small ~trace:true ~seed ~seconds:0.0 ~min_sweeps:1 ())
