(* Tests for db_util: deterministic RNG and statistics. *)

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Db_util.Rng.create 7 and b = Db_util.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same stream" (Db_util.Rng.next_int64 a) (Db_util.Rng.next_int64 b)
  done

let test_rng_copy_independent () =
  let a = Db_util.Rng.create 3 in
  let c = Db_util.Rng.copy a in
  let va = Db_util.Rng.next_int64 a in
  let vc = Db_util.Rng.next_int64 c in
  Alcotest.(check int64) "copy continues identically" va vc;
  let (_ : int64) = Db_util.Rng.next_int64 a in
  (* a is now one ahead of c *)
  Alcotest.(check bool)
    "streams diverge after unequal draws" true
    (Db_util.Rng.next_int64 a <> Db_util.Rng.next_int64 c)

let test_rng_int_bounds () =
  let rng = Db_util.Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Db_util.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of range: %d" v
  done

let test_rng_float_bounds () =
  let rng = Db_util.Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Db_util.Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %g" v
  done

let test_rng_uniform_mean () =
  let rng = Db_util.Rng.create 17 in
  let xs = Array.init 20_000 (fun _ -> Db_util.Rng.uniform rng ~min:(-1.0) ~max:1.0) in
  let mean = Db_util.Stats.mean xs in
  if Float.abs mean > 0.03 then Alcotest.failf "uniform mean biased: %g" mean

let test_rng_gaussian_moments () =
  let rng = Db_util.Rng.create 19 in
  let xs =
    Array.init 20_000 (fun _ -> Db_util.Rng.gaussian rng ~mean:2.0 ~stddev:3.0)
  in
  let mean = Db_util.Stats.mean xs and sd = Db_util.Stats.stddev xs in
  if Float.abs (mean -. 2.0) > 0.1 then Alcotest.failf "gaussian mean: %g" mean;
  if Float.abs (sd -. 3.0) > 0.1 then Alcotest.failf "gaussian stddev: %g" sd

let test_shuffle_permutation () =
  let rng = Db_util.Rng.create 23 in
  let arr = Array.init 50 (fun i -> i) in
  Db_util.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_split_independence () =
  let a = Db_util.Rng.create 29 in
  let b = Db_util.Rng.split a in
  Alcotest.(check bool)
    "split streams differ" true
    (Db_util.Rng.next_int64 a <> Db_util.Rng.next_int64 b)

let test_stats_mean () = check_float "mean" 2.0 (Db_util.Stats.mean [| 1.0; 2.0; 3.0 |])

let test_stats_sum_kahan () =
  (* Sum of many tiny values plus a large one: naive summation loses the
     tiny ones, compensated summation keeps them. *)
  let xs = Array.make 10_001 1e-8 in
  xs.(0) <- 1e8;
  let total = Db_util.Stats.sum xs in
  check_float "kahan" 1e8 (total -. 1e-4)

let test_stats_stddev () =
  (* Population stddev: deviations are all exactly 1. *)
  check_float "stddev" 1.0 (Db_util.Stats.stddev [| 1.0; 3.0; 1.0; 3.0 |])

let test_stats_geomean () =
  check_float "geomean" 2.0 (Db_util.Stats.geomean [| 1.0; 4.0 |])

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Db_util.Stats.percentile xs 50.0);
  check_float "p0" 1.0 (Db_util.Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Db_util.Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Db_util.Stats.percentile xs 25.0)

let test_stats_min_max () =
  let mn, mx = Db_util.Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) mn;
  check_float "max" 7.0 mx

let test_rel_accuracy_exact () =
  let golden = [| 1.0; -2.0; 3.0 |] in
  check_float "identical vectors are 100%" 100.0
    (Db_util.Stats.rel_distance_accuracy ~golden ~approx:golden)

let test_rel_accuracy_degrades () =
  let golden = [| 1.0; 1.0 |] in
  let close = Db_util.Stats.rel_distance_accuracy ~golden ~approx:[| 1.01; 0.99 |] in
  let far = Db_util.Stats.rel_distance_accuracy ~golden ~approx:[| 1.5; 0.5 |] in
  Alcotest.(check bool) "closer is better" true (close > far);
  Alcotest.(check bool) "clamped at 0" true (far >= 0.0)

let test_error_message () =
  Alcotest.check_raises "failf_at prefixes component"
    (Db_util.Error.Deepburning_error "unit-test: boom 42") (fun () ->
      Db_util.Error.failf_at ~component:"unit-test" "boom %d" 42)

(* Every [~component:"..."] literal under lib/ and bin/ names a registered
   component, so no failure class is Internal by omission: components for
   broken internal invariants are registered as Internal explicitly. *)
let test_error_registry_complete () =
  let rec sources dir =
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if name.[0] = '.' then acc
        else if Sys.is_directory path then sources path @ acc
        else if Filename.check_suffix name ".ml" then path :: acc
        else acc)
      [] (Sys.readdir dir)
  in
  (* In a file split at '"', a literal is the piece after one ending in
     the label. *)
  let rec literals = function
    | before :: literal :: rest
      when String.ends_with ~suffix:"~component:" before ->
        literal :: literals rest
    | _ :: rest -> literals rest
    | [] -> []
  in
  let components =
    List.sort_uniq compare
      (List.concat_map
         (fun path ->
           literals
             (String.split_on_char '"'
                (In_channel.with_open_bin path In_channel.input_all)))
         (sources "../lib" @ sources "../bin"))
  in
  Alcotest.(check bool) "found the components" true (List.length components > 40);
  Alcotest.(check (list string)) "unregistered components" []
    (List.filter (fun c -> Db_util.Error.component_class c = None) components)

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "copy" `Quick test_rng_copy_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
        Alcotest.test_case "split" `Quick test_split_independence;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "kahan sum" `Quick test_stats_sum_kahan;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "min max" `Quick test_stats_min_max;
        Alcotest.test_case "Eq(1) exact" `Quick test_rel_accuracy_exact;
        Alcotest.test_case "Eq(1) monotone" `Quick test_rel_accuracy_degrades;
        Alcotest.test_case "error format" `Quick test_error_message;
        Alcotest.test_case "error registry complete" `Quick
          test_error_registry_complete;
      ] );
  ]
