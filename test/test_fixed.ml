(* Tests for db_fixed: Q-format arithmetic and quantisation properties. *)

module Fixed = Db_fixed.Fixed

let q = Fixed.q16_8

let check_float = Alcotest.(check (float 1e-9))

let test_format_validation () =
  Alcotest.check_raises "frac >= total"
    (Invalid_argument "Fixed.format: frac_bits out of [0, total_bits)")
    (fun () -> ignore (Fixed.format ~total_bits:8 ~frac_bits:8));
  Alcotest.check_raises "too wide"
    (Invalid_argument "Fixed.format: total_bits out of [2, 32]") (fun () ->
      ignore (Fixed.format ~total_bits:33 ~frac_bits:4))

let test_ranges () =
  Alcotest.(check int) "max" 32767 (Fixed.max_value q);
  Alcotest.(check int) "min" (-32768) (Fixed.min_value q);
  check_float "resolution" (1.0 /. 256.0) (Fixed.resolution q);
  check_float "max float" (32767.0 /. 256.0) (Fixed.max_float q)

let test_roundtrip_simple () =
  check_float "1.5 exact" 1.5 (Fixed.to_float q (Fixed.of_float q 1.5));
  check_float "-0.25 exact" (-0.25) (Fixed.to_float q (Fixed.of_float q (-0.25)))

let test_rounding () =
  (* Values between representable points round to nearest. *)
  let lsb = Fixed.resolution q in
  let x = 3.0 +. (lsb *. 0.4) in
  check_float "rounds down" 3.0 (Fixed.to_float q (Fixed.of_float q x));
  let y = 3.0 +. (lsb *. 0.6) in
  check_float "rounds up" (3.0 +. lsb) (Fixed.to_float q (Fixed.of_float q y))

let test_saturation () =
  Alcotest.(check int) "positive sat" (Fixed.max_value q) (Fixed.of_float q 1e9);
  Alcotest.(check int) "negative sat" (Fixed.min_value q) (Fixed.of_float q (-1e9));
  Alcotest.(check int) "add sat" (Fixed.max_value q)
    (Fixed.add q (Fixed.max_value q) 1);
  Alcotest.(check int) "sub sat" (Fixed.min_value q)
    (Fixed.sub q (Fixed.min_value q) 1)

let test_nan_is_zero () = Alcotest.(check int) "nan" 0 (Fixed.of_float q Float.nan)

let test_mul_known () =
  let a = Fixed.of_float q 1.5 and b = Fixed.of_float q 2.0 in
  check_float "1.5 * 2" 3.0 (Fixed.to_float q (Fixed.mul q a b));
  let c = Fixed.of_float q (-0.5) in
  check_float "2 * -0.5" (-1.0) (Fixed.to_float q (Fixed.mul q b c))

let test_mul_saturates () =
  let big = Fixed.of_float q 100.0 in
  Alcotest.(check int) "100*100 saturates" (Fixed.max_value q)
    (Fixed.mul q big big)

let test_shift_right_approx () =
  let v = Fixed.of_float q 4.0 in
  check_float "div by 4" 1.0 (Fixed.to_float q (Fixed.shift_right_approx q v 2));
  (* Arithmetic shift preserves sign. *)
  let n = Fixed.of_float q (-4.0) in
  check_float "negative div" (-1.0) (Fixed.to_float q (Fixed.shift_right_approx q n 2))

let test_formats_stock () =
  List.iter
    (fun (fmt, expect) ->
      Alcotest.(check string)
        "pp" expect
        (Format.asprintf "%a" Fixed.pp_format fmt))
    [
      (Fixed.q16_8, "Q8.8");
      (Fixed.q8_4, "Q4.4");
      (Fixed.q24_12, "Q12.12");
      (Fixed.q32_16, "Q16.16");
    ]

let test_tensor_quantise () =
  let t = Db_tensor.Tensor.of_array (Db_tensor.Shape.vector 3) [| 0.5; -1.25; 300.0 |] in
  let qs = Fixed.quantize_tensor q t in
  let back = Fixed.dequantize_tensor q ~shape:(Db_tensor.Shape.vector 3) qs in
  check_float "0.5" 0.5 (Db_tensor.Tensor.get back 0);
  check_float "-1.25" (-1.25) (Db_tensor.Tensor.get back 1);
  check_float "saturated" (Fixed.max_float q) (Db_tensor.Tensor.get back 2)

(* qcheck properties *)

let in_range = QCheck.float_range (-100.0) 100.0

let prop_roundtrip_bound =
  QCheck.Test.make ~name:"quantisation error <= half LSB" ~count:500 in_range
    (fun x ->
      let err = Float.abs (Fixed.to_float q (Fixed.of_float q x) -. x) in
      err <= Fixed.roundtrip_error_bound q +. 1e-12)

let prop_add_matches_float =
  QCheck.Test.make ~name:"fixed add tracks float add" ~count:300
    QCheck.(pair (float_range (-50.0) 50.0) (float_range (-50.0) 50.0))
    (fun (x, y) ->
      let fx = Fixed.of_float q x and fy = Fixed.of_float q y in
      let sum = Fixed.to_float q (Fixed.add q fx fy) in
      Float.abs (sum -. (x +. y)) <= (2.0 *. Fixed.resolution q) +. 1e-12)

let prop_mul_error_bound =
  QCheck.Test.make ~name:"fixed mul tracks float mul" ~count:300
    QCheck.(pair (float_range (-8.0) 8.0) (float_range (-8.0) 8.0))
    (fun (x, y) ->
      let fx = Fixed.of_float q x and fy = Fixed.of_float q y in
      let p = Fixed.to_float q (Fixed.mul q fx fy) in
      (* Each operand carries <= LSB/2 error, products amplify by |x|,|y|. *)
      let bound =
        Fixed.resolution q
        *. (0.5 +. ((Float.abs x +. Float.abs y +. 1.0) /. 2.0))
      in
      Float.abs (p -. (x *. y)) <= bound +. 1e-9)

let prop_saturate_idempotent =
  QCheck.Test.make ~name:"saturate is idempotent" ~count:300 QCheck.int
    (fun v -> Fixed.saturate q (Fixed.saturate q v) = Fixed.saturate q v)

(* [quantize_tensor] is [of_float] element-wise, bit for bit: arbitrary
   floats mixed with the cases its hoisted loop must keep exact — signed
   zeros, NaN, infinities, exact half-LSB ties, and magnitudes that
   saturate. *)
let prop_quantize_tensor_is_of_float =
  let value fmt =
    let lsb = Fixed.resolution fmt in
    QCheck.Gen.(
      frequency
        [
          (3, float);
          (3, float_range (-300.0) 300.0);
          (2, map (fun m -> (float_of_int m +. 0.5) *. lsb) (int_range (-70000) 70000));
          ( 2,
            oneofl
              [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
                Fixed.max_float fmt *. 2.0; Fixed.min_float fmt *. 2.0;
                1e300; -1e300; Float.max_float; -.Float.max_float ] );
        ])
  in
  let case =
    QCheck.Gen.(
      let* fmt = oneofl Fixed.[ q8_4; q16_8; q24_12; q32_16 ] in
      let+ xs = array_size (int_range 1 64) (value fmt) in
      (fmt, xs))
  in
  QCheck.Test.make ~name:"quantize_tensor = of_float element-wise" ~count:500
    (QCheck.make
       ~print:(fun (fmt, xs) ->
         Printf.sprintf "Q%d.%d [%s]" fmt.Fixed.total_bits fmt.Fixed.frac_bits
           (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") xs))))
       case)
    (fun (fmt, xs) ->
      let t = Db_tensor.Tensor.of_array (Db_tensor.Shape.vector (Array.length xs)) xs in
      Fixed.quantize_tensor fmt t = Array.map (Fixed.of_float fmt) xs)

(* [quantize_into] over any split of the index range, filled in any order,
   is [quantize_tensor] — the contract [Specialize.bind] relies on to fill
   one tensor from several domains.  Stale destination words (NaN inputs
   included) must be overwritten, not left in place. *)
let prop_quantize_into_splits =
  let case =
    QCheck.Gen.(
      let* fmt = oneofl Fixed.[ q8_4; q16_8; q24_12; q32_16 ] in
      let* xs =
        array_size (int_range 1 200)
          (frequency
             [ (6, float_range (-300.0) 300.0);
               (1, oneofl [ Float.nan; Float.infinity; -0.0; 1e300 ]) ])
      in
      let n = Array.length xs in
      let* cuts = list_size (int_range 0 6) (int_range 0 n) in
      let+ reversed = bool in
      (fmt, xs, List.sort_uniq compare (0 :: n :: cuts), reversed))
  in
  QCheck.Test.make ~name:"quantize_into over split ranges = quantize_tensor"
    ~count:300
    (QCheck.make
       ~print:(fun (fmt, xs, cuts, reversed) ->
         Printf.sprintf "Q%d.%d n=%d cuts=[%s] reversed=%b" fmt.Fixed.total_bits
           fmt.Fixed.frac_bits (Array.length xs)
           (String.concat ";" (List.map string_of_int cuts))
           reversed)
       case)
    (fun (fmt, xs, cuts, reversed) ->
      let t = Db_tensor.Tensor.of_array (Db_tensor.Shape.vector (Array.length xs)) xs in
      let src = Db_tensor.Tensor.data t in
      let dst = Array.make (Array.length xs) 12345 in
      let rec ranges = function
        | a :: (b :: _ as rest) -> (a, b - a) :: ranges rest
        | [ _ ] | [] -> []
      in
      let ranges = ranges cuts in
      List.iter
        (fun (pos, len) -> Fixed.quantize_into fmt src ~pos ~len dst)
        (if reversed then List.rev ranges else ranges);
      dst = Fixed.quantize_tensor fmt t)

let test_quantize_into_bounds () =
  let t = Db_tensor.Tensor.of_array (Db_tensor.Shape.vector 4) [| 1.; 2.; 3.; 4. |] in
  let src = Db_tensor.Tensor.data t in
  let rejects name ~pos ~len ~dst_len =
    Alcotest.(check bool) name true
      (match Fixed.quantize_into q src ~pos ~len (Array.make dst_len 0) with
       | () -> false
       | exception Invalid_argument _ -> true)
  in
  rejects "past the source" ~pos:2 ~len:3 ~dst_len:8;
  rejects "past the destination" ~pos:0 ~len:4 ~dst_len:3;
  rejects "negative position" ~pos:(-1) ~len:1 ~dst_len:4;
  rejects "negative length" ~pos:1 ~len:(-1) ~dst_len:4;
  let dst = Array.make 4 7 in
  Fixed.quantize_into q src ~pos:1 ~len:2 dst;
  Alcotest.(check (array int)) "only the range is written"
    [| 7; Fixed.of_float q 2.; Fixed.of_float q 3.; 7 |] dst

let prop_mul_commutative =
  QCheck.Test.make ~name:"fixed mul commutative" ~count:300
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let a = Fixed.saturate q a and b = Fixed.saturate q b in
      Fixed.mul q a b = Fixed.mul q b a)

let suite =
  [
    ( "fixed.unit",
      [
        Alcotest.test_case "format validation" `Quick test_format_validation;
        Alcotest.test_case "ranges" `Quick test_ranges;
        Alcotest.test_case "round trip" `Quick test_roundtrip_simple;
        Alcotest.test_case "round to nearest" `Quick test_rounding;
        Alcotest.test_case "saturation" `Quick test_saturation;
        Alcotest.test_case "nan" `Quick test_nan_is_zero;
        Alcotest.test_case "multiply" `Quick test_mul_known;
        Alcotest.test_case "multiply saturates" `Quick test_mul_saturates;
        Alcotest.test_case "shifting latch" `Quick test_shift_right_approx;
        Alcotest.test_case "stock formats" `Quick test_formats_stock;
        Alcotest.test_case "tensor quantise" `Quick test_tensor_quantise;
        Alcotest.test_case "quantize_into bounds" `Quick test_quantize_into_bounds;
      ] );
    ( "fixed.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_roundtrip_bound;
          prop_add_matches_float;
          prop_mul_error_bound;
          prop_saturate_idempotent;
          prop_mul_commutative;
          prop_quantize_tensor_is_of_float;
          prop_quantize_into_splits;
        ] );
  ]
