(* Per-design specialized simulation engine: partial-evaluates a generated
   design's schedule, folding plan and AGU address patterns into a flat
   compiled trace, then replays it with tight loops.

   The contract is bitwise identity with the generic engine
   ({!Quantized.forward} + {!Db_mem.Agu_sim}): same outputs, same observable
   counters, same exceptions at the same logical points, at any
   DEEPBURNING_JOBS.  Two facts make the fast paths sound:

   - the quantized conv / FC kernels accumulate in native ints, and the
     checker's DB-R003 gate proves every accumulator fits 62 bits, so the
     specialized kernels may hoist, unroll and skip bounds checks without
     changing a single bit — integer addition is associative;
   - a healthy AGU pattern's word and cycle counts have closed forms
     ({!Db_mem.Access_pattern.word_count},
     {!Db_mem.Agu_sim.cycles_estimate}), so control replay reduces to
     summing precomputed per-transfer cycle counts under the same
     watchdog; no address stream is ever materialised.

   ReLU and Sign run the generic engine's own integer maps
   ({!Quantized.qrelu}, {!Quantized.qsign}).  Float-order-sensitive layers
   (LRN, LCN, softmax, recurrent, sigmoid/tanh maps, pooling with
   reciprocals, ...) delegate to the generic
   {!Quantized.eval_node} verbatim, as does any node whose parameters fail
   the fast path's shape guard — the guard failure cases re-run the generic
   kernel so error behaviour stays identical too. *)

module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Fixed = Db_fixed.Fixed
module Design = Db_core.Design
module Compiler = Db_core.Compiler
module Network = Db_nn.Network
module Layer = Db_nn.Layer
module Quantized = Db_nn.Quantized
module Params = Db_nn.Params
module Pool = Db_parallel.Pool

(* The specialized engine must be indistinguishable from the generic one,
   so its functional errors carry the interpreter's component. *)
let qfail fmt = Db_util.Error.failf_at ~component:"quantized" fmt

let sfail fmt = Db_util.Error.failf_at ~component:"simulator" fmt

(* --- compiled control trace ---------------------------------------------- *)

type control_step =
  | Healthy of { words : int; cycles : int }
  | Invalid of exn
      (** the exception pattern validation raised, replayed at the same
          point the generic engine would hit it *)

(* --- compiled functional plan --------------------------------------------- *)

type kernel =
  | K_input of { top : string; shape : Shape.t }
  | K_bad_input  (** input node without exactly one top *)
  | K_conv of { stride : int; pad : int; group : int; has_bias : bool }
  | K_fc of { has_bias : bool }
  | K_act of Layer.activation
  | K_generic

type node_plan = {
  np_name : string;
  np_layer : Layer.t;
  np_bottoms : (string * int) array;  (** blob name, producing slot *)
  np_kernel : kernel;
}

type out_spec =
  | Out_single of { slot : int; classifier : bool }
  | Out_multi of int

type t = {
  sp_network : string;
  sp_fmt : Fixed.format;
  sp_eval : Quantized.function_eval;
  sp_plan : node_plan array;
  sp_out : out_spec;
  sp_control : control_step array;
  sp_control_cycles : int;  (** healthy whole-trace replay cost *)
}

let qformat t = t.sp_fmt

let lut_eval t = t.sp_eval

let control_cycles t = t.sp_control_cycles

(* --- trace compilation ---------------------------------------------------- *)

(* The control trace is compiled from the checker's plant view of the
   schedule — the exact program/transfer enumeration Mem_safety proves —
   and cross-checked against the raw compiled programs the generic replay
   iterates.  Any divergence means the two views of the schedule have
   drifted apart, which is a compiler bug, not a simulation result. *)
let compile_control (design : Design.t) =
  let raw =
    List.concat_map
      (fun (p : Compiler.fold_program) ->
        List.map (fun (tr : Compiler.transfer) -> tr.Compiler.pattern) p.Compiler.transfers)
      design.Design.program.Compiler.programs
  in
  let plant_view =
    List.concat_map
      (fun (s : Db_check.Mem_safety.step) ->
        List.map
          (fun (a : Db_check.Mem_safety.access) -> a.Db_check.Mem_safety.ac_pattern)
          s.Db_check.Mem_safety.st_accesses)
      (Db_core.Checker.steps_of_design design)
  in
  if raw <> plant_view then
    sfail "trace compiler: compiled transfers diverge from the checker plant view";
  Array.of_list
    (List.map
       (fun p ->
         match Db_mem.Access_pattern.validate p with
         | () ->
             Healthy
               {
                 words = Db_mem.Access_pattern.word_count p;
                 cycles = Db_mem.Agu_sim.cycles_estimate p;
               }
         | exception e -> Invalid e)
       raw)

let compile (design : Design.t) =
  Db_obs.Obs.with_span "simulate.compile_trace"
    ~attrs:[ ("network", design.Design.network.Network.net_name) ]
  @@ fun () ->
  let net = design.Design.network in
  let fmt = design.Design.datapath.Db_sched.Datapath.fmt in
  let blob_slot = Hashtbl.create 16 in
  let plans = ref [] in
  let next = ref 0 in
  Network.iter net (fun node ->
      let slot = !next in
      incr next;
      let kernel =
        match node.Network.layer with
        | Layer.Input { shape } -> begin
            match node.Network.tops with
            | [ top ] -> K_input { top; shape }
            | [] | _ :: _ :: _ -> K_bad_input
          end
        | Layer.Conv { stride; pad; group; bias; _ } ->
            K_conv { stride; pad; group; has_bias = bias }
        | Layer.Fc { bias; _ } -> K_fc { has_bias = bias }
        | Layer.Act act -> K_act act
        | _ -> K_generic
      in
      let np_bottoms =
        Array.of_list
          (List.map
             (fun b ->
               (b, Option.value ~default:(-1) (Hashtbl.find_opt blob_slot b)))
             node.Network.bottoms)
      in
      List.iter (fun top -> Hashtbl.replace blob_slot top slot) node.Network.tops;
      plans :=
        { np_name = node.Network.node_name; np_layer = node.Network.layer;
          np_bottoms; np_kernel = kernel }
        :: !plans);
  let sp_out =
    match Network.output_blobs net with
    | [ blob ] ->
        (* Same classifier detection as [Quantized.output]: indices stay
           integers instead of being dequantised. *)
        let classifier =
          match List.rev net.Network.nodes with
          | last :: _ -> Layer.is_classifier last.Network.layer
          | [] -> false
        in
        Out_single { slot = Hashtbl.find blob_slot blob; classifier }
    | blobs -> Out_multi (List.length blobs)
  in
  let sp_control = compile_control design in
  let sp_control_cycles =
    Array.fold_left
      (fun acc -> function Healthy { cycles; _ } -> acc + cycles | Invalid _ -> acc)
      0 sp_control
  in
  {
    sp_network = net.Network.net_name;
    sp_fmt = fmt;
    sp_eval = Lut_eval.of_luts design.Design.program.Compiler.luts;
    sp_plan = Array.of_list (List.rev !plans);
    sp_out;
    sp_control;
    sp_control_cycles;
  }

module Cache = Db_core.Design_cache.Artifact (struct
  type nonrec t = t
end)

let of_design design = Cache.find design ~compile

(* --- control replay -------------------------------------------------------- *)

(* Exact replica of the generic [Simulator.replay_control] semantics: the
   per-transfer budget pre-check fires with the cycles spent so far; a
   mid-transfer overrun re-raises at budget + 1 (the generic path's
   [max_cycles + 1] watchdog cycle folded into the running total); [agu.*]
   counters are recorded per healthy transfer exactly as
   [Agu_sim.run_to_completion] records them on success. *)
let replay_control ~cycle_budget t =
  Db_obs.Obs.with_span "simulate.replay" @@ fun () ->
  let spent = ref 0 in
  Array.iter
    (fun step ->
      if cycle_budget - !spent <= 0 then
        Db_util.Error.timeout ~component:"simulator" ~cycles:!spent
          ~budget:cycle_budget;
      match step with
      | Invalid e -> raise e
      | Healthy { words; cycles } ->
          if cycles > cycle_budget - !spent then
            Db_util.Error.timeout ~component:"simulator"
              ~cycles:(cycle_budget + 1) ~budget:cycle_budget;
          if Db_obs.Obs.enabled () then begin
            Db_obs.Obs.incr "agu.runs";
            Db_obs.Obs.incr ~by:cycles "agu.cycles";
            Db_obs.Obs.incr ~by:words "agu.addresses";
            Db_obs.Obs.incr ~by:(cycles - words) "agu.stall_cycles"
          end;
          spent := !spent + cycles)
    t.sp_control;
  !spent

(* --- specialized kernels --------------------------------------------------- *)

(* Unsafe-indexed convolution as im2col tiles feeding a register-blocked
   micro-kernel.  Only entered once [conv]'s guard has proved every index
   the loops compute is in bounds.

   Per group, the output plane is walked in tiles of pixels whose receptive
   fields fill at most [tile_words] words.  Each tile's fields are written
   to a pair-interleaved patch: tap [t] (order ic, ky, kx) of tile pixel
   [2q + j] lands at [(q*kk + t)*2 + j], padding taps as 0, and an odd last
   pixel gets a zero partner.  Per block of four output channels the four
   weight rows are interleaved into [wp.(4t + j)], with the four scaled
   biases after them, and [micro_4x2] runs each pixel pair against them.
   The [cout_g mod 4] tail channels run [micro_1x2] over the same patch,
   reading their weight row in place.

   Accumulation is native-int arithmetic, which wraps mod 2^63, and padding
   taps add a literal 0, so the reordered sums are bitwise-identical to the
   generic kernel's. *)

(* Patch words per tile: 512 KiB, so a tile's patch stays in L2 while every
   channel block streams over it.  A field wider than half of it still gets
   a tile of two pixels. *)
let tile_words = 65536

(* Per-domain patch and packed-weight buffers, grown on demand and reused
   by every later call on the domain.  Every word a call reads it has
   written first, so a previous call's contents never leak through.  Only
   [conv_kernel] touches them, and it never enters the pool, so no other
   task can run on this domain while a call holds them. *)
type scratch = { mutable patch : int array; mutable wp : int array }

let scratch_key = Domain.DLS.new_key (fun () -> { patch = [||]; wp = [||] })

(* Channels [j0] and [j0 + 1] of a packed block against the pixel pair
   whose patch starts at [pi]: raw sums into [out] at [o] (and [o + 1] when
   [pair]), one channel row [plane] apart.  Four accumulators, two running
   indices and the two buffers are all the loop keeps live, which fits the
   amd64 register file; eight accumulators do not, and spill on every tap.
   Taps run backwards, two per iteration, so the loop test compares
   against the start. *)
let[@inline never] micro_2x2 (patch : int array) (wp : int array) ~pi ~kk ~j0
    (out : int array) ~o ~plane ~pair =
  let b0 = Array.unsafe_get wp ((4 * kk) + j0)
  and b1 = Array.unsafe_get wp ((4 * kk) + j0 + 1) in
  let a00 = ref b0 and a01 = ref b0 and a10 = ref b1 and a11 = ref b1 in
  let p = ref (pi + (2 * kk)) and wi = ref ((4 * kk) + j0) in
  if kk land 1 = 1 then begin
    p := !p - 2;
    wi := !wi - 4;
    let x0 = Array.unsafe_get patch !p and x1 = Array.unsafe_get patch (!p + 1) in
    let w = Array.unsafe_get wp !wi in
    a00 := !a00 + (x0 * w);
    a01 := !a01 + (x1 * w);
    let w = Array.unsafe_get wp (!wi + 1) in
    a10 := !a10 + (x0 * w);
    a11 := !a11 + (x1 * w)
  end;
  while !p > pi do
    p := !p - 4;
    wi := !wi - 8;
    let x0 = Array.unsafe_get patch !p and x1 = Array.unsafe_get patch (!p + 1) in
    let w = Array.unsafe_get wp !wi in
    a00 := !a00 + (x0 * w);
    a01 := !a01 + (x1 * w);
    let w = Array.unsafe_get wp (!wi + 1) in
    a10 := !a10 + (x0 * w);
    a11 := !a11 + (x1 * w);
    let x0 = Array.unsafe_get patch (!p + 2)
    and x1 = Array.unsafe_get patch (!p + 3) in
    let w = Array.unsafe_get wp (!wi + 4) in
    a00 := !a00 + (x0 * w);
    a01 := !a01 + (x1 * w);
    let w = Array.unsafe_get wp (!wi + 5) in
    a10 := !a10 + (x0 * w);
    a11 := !a11 + (x1 * w)
  done;
  Array.unsafe_set out o !a00;
  Array.unsafe_set out (o + plane) !a10;
  if pair then begin
    Array.unsafe_set out (o + 1) !a01;
    Array.unsafe_set out (o + plane + 1) !a11
  end

(* Four packed channels against one pixel pair, as two register-resident
   halves, then the eight sums rescaled in place. *)
let micro_4x2 fmt patch wp ~pi ~kk out ~o ~plane ~pair =
  micro_2x2 patch wp ~pi ~kk ~j0:0 out ~o ~plane ~pair;
  micro_2x2 patch wp ~pi ~kk ~j0:2 out ~o:(o + (2 * plane)) ~plane ~pair;
  for j = 0 to 3 do
    let oj = o + (j * plane) in
    Array.unsafe_set out oj (Quantized.rescale_acc fmt (Array.unsafe_get out oj));
    if pair then
      Array.unsafe_set out (oj + 1)
        (Quantized.rescale_acc fmt (Array.unsafe_get out (oj + 1)))
  done

(* One channel, its weight row read in place at [wbase], against one pixel
   pair. *)
let[@inline never] micro_1x2 fmt (patch : int array) (wdata : int array) ~pi
    ~wbase ~kk ~bias (out : int array) ~o ~pair =
  let a0 = ref bias and a1 = ref bias in
  for t = 0 to kk - 1 do
    let w = Array.unsafe_get wdata (wbase + t) in
    a0 := !a0 + (Array.unsafe_get patch (pi + (2 * t)) * w);
    a1 := !a1 + (Array.unsafe_get patch (pi + (2 * t) + 1) * w)
  done;
  Array.unsafe_set out o (Quantized.rescale_acc fmt !a0);
  if pair then Array.unsafe_set out (o + 1) (Quantized.rescale_acc fmt !a1)

(* Writes the receptive fields of output pixels [p0, p0 + np) of the group
   whose inputs start at [ibase] into [patch], pair-interleaved. *)
let fill_patch (patch : int array) (idata : int array) ~ibase ~cin_g ~h ~w ~k
    ~stride ~pad ~ow ~p0 ~np =
  let kk = cin_g * k * k in
  for l = 0 to np - 1 do
    let p = p0 + l in
    let iy0 = (p / ow * stride) - pad and ix0 = (p mod ow * stride) - pad in
    (* Taps [ky_lo, ky_hi) x [kx_lo, kx_hi) fall inside the input. *)
    let ky_lo = Int.min k (Int.max 0 (-iy0)) in
    let ky_hi = Int.max ky_lo (Int.min k (h - iy0)) in
    let kx_lo = Int.min k (Int.max 0 (-ix0)) in
    let kx_hi = Int.max kx_lo (Int.min k (w - ix0)) in
    let dst_l = (l / 2 * kk * 2) + (l land 1) in
    for ic = 0 to cin_g - 1 do
      let src_c = ibase + (ic * h * w) + (iy0 * w) + ix0 in
      for ky = 0 to k - 1 do
        let d = dst_l + (2 * ((ic * k * k) + (ky * k))) in
        if ky < ky_lo || ky >= ky_hi then
          for kx = 0 to k - 1 do
            Array.unsafe_set patch (d + (2 * kx)) 0
          done
        else begin
          for kx = 0 to kx_lo - 1 do
            Array.unsafe_set patch (d + (2 * kx)) 0
          done;
          let s = src_c + (ky * w) in
          for kx = kx_lo to kx_hi - 1 do
            Array.unsafe_set patch (d + (2 * kx)) (Array.unsafe_get idata (s + kx))
          done;
          for kx = kx_hi to k - 1 do
            Array.unsafe_set patch (d + (2 * kx)) 0
          done
        end
      done
    done
  done;
  if np land 1 = 1 then begin
    let d = (np / 2 * kk * 2) + 1 in
    for t = 0 to kk - 1 do
      Array.unsafe_set patch (d + (2 * t)) 0
    done
  end

let conv_kernel fmt ~(input : Quantized.qtensor) ~(weights : Quantized.qtensor)
    ~bias ~stride ~pad ~group ~cin_g ~cout ~k ~h ~w ~oh ~ow =
  let idata = input.Quantized.qdata and wdata = weights.Quantized.qdata in
  let out = Array.make (cout * oh * ow) 0 in
  let cout_g = cout / group in
  let kk = cin_g * k * k in
  let plane = oh * ow in
  let bias_of oc =
    match bias with
    | None -> 0
    | Some (bt : Quantized.qtensor) ->
        Array.unsafe_get bt.Quantized.qdata oc lsl fmt.Fixed.frac_bits
  in
  (* Pixels per tile: even, at least one pair, and no more than the plane
     needs, so a small conv does not grow a full-size patch. *)
  let tile_px =
    Int.min (Int.max 2 ((tile_words / kk) land lnot 1)) (plane + (plane land 1))
  in
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.patch < tile_px * kk then sc.patch <- Array.make (tile_px * kk) 0;
  if Array.length sc.wp < (4 * kk) + 4 then sc.wp <- Array.make ((4 * kk) + 4) 0;
  let patch = sc.patch and wp = sc.wp in
  let blocks = cout_g / 4 in
  for g = 0 to group - 1 do
    let oc_lo = g * cout_g in
    let p0 = ref 0 in
    while !p0 < plane do
      let np = Int.min tile_px (plane - !p0) in
      fill_patch patch idata ~ibase:(g * cin_g * h * w) ~cin_g ~h ~w ~k ~stride
        ~pad ~ow ~p0:!p0 ~np;
      for blk = 0 to blocks - 1 do
        let oc0 = oc_lo + (4 * blk) in
        for j = 0 to 3 do
          let row = (oc0 + j) * kk in
          for t = 0 to kk - 1 do
            Array.unsafe_set wp ((4 * t) + j) (Array.unsafe_get wdata (row + t))
          done;
          Array.unsafe_set wp ((4 * kk) + j) (bias_of (oc0 + j))
        done;
        let o = (oc0 * plane) + !p0 in
        for q = 0 to (np - 1) / 2 do
          micro_4x2 fmt patch wp ~pi:(2 * q * kk) ~kk out ~o:(o + (2 * q)) ~plane
            ~pair:((2 * q) + 1 < np)
        done
      done;
      for oc = oc_lo + (4 * blocks) to oc_lo + cout_g - 1 do
        let b = bias_of oc in
        let o = (oc * plane) + !p0 in
        for q = 0 to (np - 1) / 2 do
          micro_1x2 fmt patch wdata ~pi:(2 * q * kk) ~wbase:(oc * kk) ~kk ~bias:b
            out ~o:(o + (2 * q)) ~pair:((2 * q) + 1 < np)
        done
      done;
      p0 := !p0 + np
    done
  done;
  { Quantized.qshape = Shape.chw ~channels:cout ~height:oh ~width:ow; qdata = out }

let fc_kernel fmt ~(input : Quantized.qtensor) ~(weights : Quantized.qtensor)
    ~bias ~nin ~nout =
  let idata = input.Quantized.qdata and wdata = weights.Quantized.qdata in
  let out = Array.make nout 0 in
  for o = 0 to nout - 1 do
    let base = o * nin in
    let acc =
      ref
        (match bias with
        | None -> 0
        | Some (bt : Quantized.qtensor) ->
            Array.unsafe_get bt.Quantized.qdata o lsl fmt.Fixed.frac_bits)
    in
    for i = 0 to nin - 1 do
      acc :=
        !acc + (Array.unsafe_get wdata (base + i) * Array.unsafe_get idata i)
    done;
    Array.unsafe_set out o (Quantized.rescale_acc fmt !acc)
  done;
  { Quantized.qshape = Shape.vector nout; qdata = out }

let numel_matches (q : Quantized.qtensor) =
  Array.length q.Quantized.qdata = Shape.numel q.Quantized.qshape

let conv fmt ~stride ~pad ~group ~(input : Quantized.qtensor)
    ~(weights : Quantized.qtensor) ~bias =
  (* Dimension extraction in the generic kernel's order, so a malformed
     weight shape raises the same error here. *)
  let ish = input.Quantized.qshape in
  let cin = Shape.channels ish and h = Shape.height ish and w = Shape.width ish in
  let wsh = weights.Quantized.qshape in
  let cout = Shape.dim wsh 0 and cin_g = Shape.dim wsh 1 and k = Shape.dim wsh 2 in
  let oh =
    Db_tensor.Ops.conv_output_dim ~input:h ~kernel:k ~stride ~pad_lo:pad ~pad_hi:pad
  in
  let ow =
    Db_tensor.Ops.conv_output_dim ~input:w ~kernel:k ~stride ~pad_lo:pad ~pad_hi:pad
  in
  let guard =
    group > 0 && cin mod group = 0 && cout mod group = 0
    && cin_g = cin / group && Shape.rank wsh = 4
    && Shape.dim wsh 3 = k
    && Array.length input.Quantized.qdata = cin * h * w
    && numel_matches weights
    && (match bias with
       | None -> true
       | Some (bt : Quantized.qtensor) -> Array.length bt.Quantized.qdata >= cout)
  in
  if guard then
    Some
      (conv_kernel fmt ~input ~weights ~bias ~stride ~pad ~group ~cin_g ~cout
         ~k ~h ~w ~oh ~ow)
  else None

(* --- bound traces ---------------------------------------------------------- *)

type bound = {
  bd_spec : t;
  bd_qparams : Quantized.qtensor list array;  (** pre-quantized, per slot *)
}

(* Words per quantize task in [bind]: scheduling costs nothing next to
   64Ki conversions, and AlexNet's 61M weights still make ~900 tasks to
   spread over the pool. *)
let bind_chunk = 65536

(* Every output tensor is allocated first, in plan order (so a missing
   parameter raises where it always did), then all of them are filled as
   one flat list of fixed-size chunks in a single parallel loop.  Chunks
   write disjoint ranges with [of_float]'s per-element operations, so the
   result is the same at any pool width. *)
let bind t params =
  let chunks = ref [] in
  let bd_qparams =
    Array.map
      (fun np ->
        match np.np_kernel with
        | K_input _ | K_bad_input -> []
        | K_conv _ | K_fc _ | K_act _ | K_generic ->
            List.map
              (fun tensor ->
                let src = Tensor.data tensor in
                let qdata = Array.make (Bigarray.Array1.dim src) 0 in
                for c = 0 to (Array.length qdata - 1) / bind_chunk do
                  chunks := (src, qdata, c * bind_chunk) :: !chunks
                done;
                { Quantized.qshape = Tensor.shape tensor; qdata })
              (Params.get params np.np_name))
      t.sp_plan
  in
  let chunks = Array.of_list !chunks in
  Pool.parallel_for ~chunk:1 ~lo:0 ~hi:(Array.length chunks) (fun i ->
      let src, dst, pos = chunks.(i) in
      Fixed.quantize_into t.sp_fmt src ~pos
        ~len:(Int.min bind_chunk (Array.length dst - pos))
        dst);
  { bd_spec = t; bd_qparams }

let spec bound = bound.bd_spec

let node_slot bound ~node =
  let found = ref (-1) in
  Array.iteri
    (fun i np -> if np.np_name = node then found := i)
    bound.bd_spec.sp_plan;
  if !found < 0 then sfail "specialized trace has no node %S" node;
  !found

let node_qparams bound ~node = bound.bd_qparams.(node_slot bound ~node)

let with_node_params bound ~node qparams =
  let qp = Array.copy bound.bd_qparams in
  qp.(node_slot bound ~node) <- qparams;
  { bound with bd_qparams = qp }

(* --- functional playback --------------------------------------------------- *)

let eval_slots ?eval bound ~inputs =
  let t = bound.bd_spec in
  let fmt = t.sp_fmt in
  let eval = Option.value eval ~default:t.sp_eval in
  let n = Array.length t.sp_plan in
  let slots =
    Array.make n { Quantized.qshape = Shape.scalar; qdata = [||] }
  in
  for i = 0 to n - 1 do
    let np = Array.unsafe_get t.sp_plan i in
    let generic qparams bottoms =
      Quantized.eval_node fmt eval np.np_layer ~params:qparams ~bottoms
    in
    let result =
      match np.np_kernel with
      | K_bad_input -> qfail "input node must have exactly one top"
      | K_input { top; shape } -> begin
          match List.assoc_opt top inputs with
          | Some tensor ->
              if not (Shape.equal (Tensor.shape tensor) shape) then
                qfail "input %S: shape mismatch" top;
              Quantized.quantize fmt tensor
          | None -> qfail "missing input tensor for blob %S" top
        end
      | (K_conv _ | K_fc _ | K_act _ | K_generic) as kernel -> (
          let bottoms =
            List.map
              (fun (name, slot) ->
                if slot < 0 then qfail "blob %S not available" name
                else slots.(slot))
              (Array.to_list np.np_bottoms)
          in
          let qparams = bound.bd_qparams.(i) in
          match kernel, qparams, bottoms with
          | K_conv { stride; pad; group; has_bias }, _, [ input ] -> begin
              match qparams, has_bias with
              | ([ weights ], false | [ weights; _ ], true) -> (
                  let bias =
                    match qparams with [ _; b ] -> Some b | _ -> None
                  in
                  match conv fmt ~stride ~pad ~group ~input ~weights ~bias with
                  | Some out -> out
                  | None -> generic qparams bottoms)
              | _ -> generic qparams bottoms
            end
          | K_fc { has_bias }, _, [ input ] -> begin
              match qparams, has_bias with
              | ([ weights ], false | [ weights; _ ], true) ->
                  let bias =
                    match qparams with [ _; b ] -> Some b | _ -> None
                  in
                  let wsh = weights.Quantized.qshape in
                  let nout = Shape.dim wsh 0 and nin = Shape.dim wsh 1 in
                  if Array.length input.Quantized.qdata <> nin then
                    qfail "fc: input size mismatch";
                  let guard =
                    Shape.rank wsh = 2 && numel_matches weights
                    && (match bias with
                       | None -> true
                       | Some bt -> Array.length bt.Quantized.qdata >= nout)
                  in
                  if guard then fc_kernel fmt ~input ~weights ~bias ~nin ~nout
                  else generic qparams bottoms
              | _ -> generic qparams bottoms
            end
          | K_act Layer.Relu, _, [ input ] -> Quantized.qrelu fmt input
          | K_act Layer.Sign, _, [ input ] -> Quantized.qsign fmt input
          | K_act act, _, [ input ] ->
              (* [eval_node] runs [qmap fmt (eval.eval_activation act)] and
                 ignores the node's parameters; the same map with the
                 evaluator dispatched once, outside the element loop. *)
              let f = eval.Quantized.eval_activation act in
              let src = input.Quantized.qdata in
              let out =
                Array.map
                  (fun v -> Fixed.of_float fmt (f (Fixed.to_float fmt v)))
                  src
              in
              { input with Quantized.qdata = out }
          | _ -> generic qparams bottoms)
    in
    Array.unsafe_set slots i result
  done;
  slots

let qoutput ?eval bound ~inputs =
  let t = bound.bd_spec in
  let slots = eval_slots ?eval bound ~inputs in
  match t.sp_out with
  | Out_multi n -> qfail "network has %d output blobs, expected one" n
  | Out_single { slot; _ } -> slots.(slot)

let output ?eval bound ~inputs =
  let t = bound.bd_spec in
  let slots = eval_slots ?eval bound ~inputs in
  match t.sp_out with
  | Out_multi n -> qfail "network has %d output blobs, expected one" n
  | Out_single { slot; classifier } ->
      let q = slots.(slot) in
      if classifier then
        Tensor.of_array q.Quantized.qshape
          (Array.map float_of_int q.Quantized.qdata)
      else Quantized.dequantize t.sp_fmt q

(* Batched playback: samples are independent forward passes over one bound
   trace, so they fan out across the domain pool.  The functional path
   records no per-sample counters (only [pool.*] scheduling counters, which
   were never part of the determinism contract), and each sample's
   arithmetic is self-contained — the batch is bitwise-identical to a
   sequential loop at any DEEPBURNING_JOBS. *)
let output_batch ?eval bound ~batch =
  Pool.map_list (fun inputs -> output ?eval bound ~inputs) batch
