(* Tests that drive the deepburning executable: the exit code and the
   message it prints for invalid input. *)

let exe = "../bin/deepburning.exe"

(* Run the CLI with [args]; its exit code and trimmed standard error. *)
let run_cli args =
  let err = Filename.temp_file "deepburning-cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command exe ~stdout:Filename.null ~stderr:err args)
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, String.trim text)

(* A validation error: exit 4 with the classified message. *)
let expect_validation message args =
  Alcotest.(check (pair int string))
    (String.concat " " args)
    (4, "deepburning: " ^ message)
    (run_cli args)

let explore_cases =
  [
    ("--budget=0", "dse: budget must be positive (got 0)");
    ("--population=0", "dse: population must be positive (got 0)");
    ("--epsilon=0", "dse-archive: epsilon must be positive (got 0)");
    ("--objectives=speed", "objective: unknown objective \"speed\"");
    ("--objectives=", "dse: at least one objective axis is required");
  ]

(* Shape errors surface at import, with the message the CLI prints. *)
let shape_cases =
  [
    ("kernel_too_large", "tensor: conv_output_dim: kernel larger than padded input");
    ( "group_mismatch",
      "shape-infer: convolution group 2 does not divide input channels 3" );
    ("topk_out_of_range", "shape-infer: classifier top_k 9 out of range for 4 inputs");
  ]

let model name = Filename.concat "shape_errors" (name ^ ".prototxt")

let import_error name =
  let src = In_channel.with_open_bin (model name) In_channel.input_all in
  match Db_nn.Caffe.import_string src with
  | (_ : Db_nn.Network.t) -> None
  | exception Db_util.Error.Deepburning_error msg -> Some msg

let suite =
  [
    ( "cli.explore exit codes",
      List.map
        (fun (arg, message) ->
          Alcotest.test_case arg `Quick (fun () ->
              expect_validation message [ "explore"; "ann0"; arg ]))
        explore_cases );
    ( "cli.shape errors",
      List.map
        (fun (name, message) ->
          Alcotest.test_case name `Quick (fun () ->
              Alcotest.(check (option string)) "import error" (Some message)
                (import_error name);
              List.iter (expect_validation message)
                [
                  [ "stats"; "-m"; model name ];
                  [ "ir"; model name ];
                  [ "generate"; "-m"; model name ];
                ]))
        shape_cases );
  ]
