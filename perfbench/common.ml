(* Helpers shared by the workloads: statistics, process figures, the zoo,
   seeded inputs and the reference comparisons the checks use. *)

let jobs = Db_parallel.Pool.job_count

(* Everything a run writes (traces, the serve workload's store) goes
   under this directory of the checkout. *)
let out_dir = ".perfbench-out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let sorted xs = List.sort Float.compare xs

(* Nearest-rank quantile, [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

(* Run [setup] [n] times (with the index), each from a collected heap,
   releasing every result but the last; return the last and the median
   set-up time. *)
let repeat_setup ?(release = ignore) n setup =
  let last = ref None and times = ref [] in
  for i = 1 to n do
    Option.iter release !last;
    last := None;
    Gc.full_major ();
    let t0 = Trace.now () in
    last := Some (setup i);
    times := (Trace.now () -. t0) :: !times
  done;
  (Option.get !last, median !times)

(* Peak resident set of this process (VmHWM), MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> nan
      in
      loop ())

(* CPU seconds this process has used, all domains. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run this executable again with [args]; return its standard output
   lines once it has exited, failing unless it exited with 0. *)
let child_lines args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  if status <> Unix.WEXITED 0 then failwith ("child process failed: " ^ List.hd args);
  List.rev !lines

(* The twelve zoo models the RTL pin covers, in pin order. *)
let zoo =
  Db_workloads.Model_zoo.
    [
      ("mlp", mlp_prototxt);
      ("cmac", cmac_prototxt);
      ("mnist", mnist_prototxt);
      ("cifar", cifar_prototxt);
      ("cifar-lite", cifar_lite_prototxt);
      ("alexnet", alexnet_prototxt);
      ("nin", nin_prototxt);
      ("googlenet-like", googlenet_like_prototxt);
      ("hopfield", hopfield_prototxt ~cities:5);
      ("lenet5", lenet5_prototxt);
      ("vgg16", vgg16_prototxt);
      ( "ann0",
        ann_prototxt ~name:"ann0" ~inputs:1 ~hidden1:8 ~hidden2:8 ~outputs:2 );
    ]

let source name = List.assoc name zoo

let default_script = Db_serve.Serve.default_constraint_script

let constraint_script ~dsps ~luts ~bram_kb =
  Printf.sprintf
    {|constraint { device: "zynq-7045" dsps: %d luts: %d ffs: 40000 bram_kb: %d }|}
    dsps luts bram_kb

let input_of (net : Db_nn.Network.t) =
  match Db_nn.Network.input_nodes net with
  | node :: _ -> (
      match node.Db_nn.Network.layer with
      | Db_nn.Layer.Input { shape } -> (List.hd node.Db_nn.Network.tops, shape)
      | _ -> failwith "input node carries no shape")
  | [] -> failwith "network has no input node"

let random_inputs rng net n =
  let blob, shape = input_of net in
  List.init n (fun _ ->
      [ (blob, Db_tensor.Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0) ])

(* Relative L2 distance of [approx] from [golden]. *)
let rel_error ~golden ~approx =
  let g = Db_tensor.Tensor.to_array golden and a = Db_tensor.Tensor.to_array approx in
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = a.(i) -. x in
      num := !num +. (d *. d);
      den := !den +. (x *. x))
    g;
  sqrt !num /. Float.max (sqrt !den) 1e-300

let bitwise_equal a b =
  let a = Db_tensor.Tensor.to_array a and b = Db_tensor.Tensor.to_array b in
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Relative error of the accelerator's output against the float
   interpreter on one fixed input, fixed weights and the default
   constraint: an accuracy figure that repeats exactly on every run. *)
let reference_rel_error model =
  let net = Db_nn.Caffe.import_string (source model) in
  let design = Db_core.Design_cache.generate (Db_core.Constraints.parse default_script) net in
  let params = Db_nn.Params.init_xavier (Db_util.Rng.create 1) net in
  let inputs = List.hd (random_inputs (Db_util.Rng.create 0) net 1) in
  rel_error
    ~golden:(Db_nn.Interpreter.output net params ~inputs)
    ~approx:(Db_sim.Simulator.functional_output design params ~inputs)

(* Modeled figures of one design: deterministic functions of the design. *)
type modeled = {
  m_cycles : int;
  m_dram_bytes : int;
  m_luts : int;
  m_ffs : int;
  m_dsps : int;
  m_bram_kb : float;
}

let modeled_of design =
  let r = Db_sim.Simulator.timing design in
  let u = Db_core.Design.resource_usage design in
  {
    m_cycles = r.Db_sim.Simulator.total_cycles;
    m_dram_bytes = r.Db_sim.Simulator.dram_bytes;
    m_luts = u.Db_fpga.Resource.luts;
    m_ffs = u.Db_fpga.Resource.ffs;
    m_dsps = u.Db_fpga.Resource.dsps;
    m_bram_kb = float_of_int u.Db_fpga.Resource.bram_bits /. 8192.0;
  }

let modeled_metrics rows =
  let total f = List.fold_left (fun acc (_, m) -> acc +. f m) 0.0 rows in
  [
    ("modeled_cycles", total (fun m -> float_of_int m.m_cycles));
    ("modeled_dram_bytes", total (fun m -> float_of_int m.m_dram_bytes));
    ("modeled_luts", total (fun m -> float_of_int m.m_luts));
    ("modeled_bram_kb", total (fun m -> m.m_bram_kb));
  ]

let print_modeled rows =
  Printf.printf "%-16s %14s %14s %8s %8s %5s %9s\n" "model" "cycles" "dram_bytes"
    "luts" "ffs" "dsps" "bram_kb";
  List.iter
    (fun (name, m) ->
      Printf.printf "%-16s %14d %14d %8d %8d %5d %9.1f\n" name m.m_cycles
        m.m_dram_bytes m.m_luts m.m_ffs m.m_dsps m.m_bram_kb)
    rows

(* The end-to-end metrics, in the form every workload reports them. *)
let end_to_end ~setup_s ~op_ms ~rate ~rss ~modeled ~rel =
  [
    ("setup_s", setup_s);
    ("latency_p50_ms", median op_ms);
    ("max_rate_per_s", rate);
    ("peak_rss_mb", rss);
  ]
  @ modeled_metrics modeled
  @ [ ("output_rel_error", rel) ]

(* Outcome of one workload run, before it is printed. *)
type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  metrics : (string * float) list;
}
