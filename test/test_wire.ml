(* The socket layer under every NDJSON peer, over real socketpairs and
   listeners, plus a byte fuzzer over the decoders that read its lines
   and the on-disk records (checkpoint journal, ledger, spans): whatever
   arrives on a socket or sits in a file, a decoder answers Ok/Error
   (or None) and never raises. *)

module J = Vliw_util.Json
module Ndjson = Vliw_util.Ndjson
module Wire = Vliw_util.Wire
module Request = Vliw_service.Request
module Protocol = Vliw_dist.Protocol
module Checkpoint = Vliw_experiments.Checkpoint
module Ledger = Vliw_telemetry.Ledger
module Span = Vliw_telemetry.Span

let pair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Read until the peer's stream ends; the lines seen and how it ended. *)
let drain conn =
  let rec loop acc =
    match Wire.read conn with
    | Wire.Lines ls -> loop (List.rev_append ls acc)
    | (Wire.Eof _ | Wire.Reset) as last -> (List.rev acc, last)
  in
  loop []

let test_large_line () =
  let ours, theirs = pair () in
  let big = String.init (2 lsl 20) (fun i -> Char.chr (97 + (i mod 26))) in
  let doc = J.Obj [ ("blob", J.Str big) ] in
  (* the line is larger than the socket buffer: the write only finishes
     while someone reads *)
  let writer =
    Domain.spawn (fun () ->
        Wire.write_line theirs doc;
        Unix.close theirs)
  in
  let lines, last = drain (Wire.conn ~max_line_bytes:(4 lsl 20) ours) in
  Domain.join writer;
  close ours;
  (match lines with
  | [ Ok d ] -> Alcotest.(check bool) "document intact" true (d = doc)
  | _ -> Alcotest.failf "expected one document, got %d" (List.length lines));
  Alcotest.(check bool) "then a clean EOF" true (last = Wire.Eof None)

let test_truncated_eof () =
  let ours, theirs = pair () in
  Wire.write_line theirs (J.Obj [ ("n", J.Num 1.0) ]);
  ignore (Unix.write_substring theirs "{\"n\":" 0 5);
  Unix.close theirs;
  let lines, last = drain (Wire.conn ours) in
  close ours;
  Alcotest.(check int) "the complete line arrives" 1 (List.length lines);
  Alcotest.(check bool) "the cut line is Truncated" true
    (last = Wire.Eof (Some Ndjson.Truncated))

let test_peer_close () =
  let ours, theirs = pair () in
  Unix.close theirs;
  let conn = Wire.conn ours in
  Alcotest.(check bool) "EOF, not an exception" true
    (Wire.read conn = Wire.Eof None);
  close ours

(* Worker maps exactly these errors to an orderly hang-up. *)
let test_write_to_closed_peer () =
  Wire.ignore_sigpipe ();
  let ours, theirs = pair () in
  Unix.close theirs;
  (match Wire.write_line ours (J.Obj [ ("n", J.Num 1.0) ]) with
  | () -> Alcotest.fail "write to a closed peer succeeded"
  | exception
      Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
    ());
  close ours

let temp_path name =
  let dir = Filename.temp_file "vliwwire" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Filename.concat dir name

(* A socket file nobody listens on is reclaimed; a regular file at the
   path is left alone and the bind fails. *)
let test_listen_stale_and_foreign () =
  let path = temp_path "stale.sock" in
  let dead = Wire.listen (Wire.Socket path) in
  Unix.close dead;
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists path);
  let fd = Wire.listen (Wire.Socket path) in
  let client = Wire.connect (Wire.Socket path) in
  Alcotest.(check bool) "reclaimed path accepts" true (Wire.accept fd <> None);
  close client;
  Wire.close_listener (Wire.Socket path) fd;
  Alcotest.(check bool) "close_listener unlinks" false (Sys.file_exists path);
  let oc = open_out path in
  output_string oc "not a socket";
  close_out oc;
  (match Wire.listen (Wire.Socket path) with
  | fd ->
    close fd;
    Alcotest.fail "bound over a regular file"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check string) "regular file untouched" "not a socket"
    (In_channel.with_open_bin path In_channel.input_all)

(* --- decoder fuzzing --------------------------------------------------- *)

(* Every line through every wire decoder; an exception is the failure. *)
let decode_all bytes =
  let reader = Ndjson.reader ~max_line_bytes:4096 () in
  let lines =
    Ndjson.feed reader bytes @ Option.to_list (Ndjson.close reader)
  in
  List.iter
    (function
      | Ok doc ->
        ignore (Request.of_json doc);
        ignore (Protocol.to_worker_of_json doc);
        ignore (Protocol.from_worker_of_json doc)
      | Error (_ : Ndjson.error) -> ())
    lines;
  true

let encoded_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Ndjson.line (Request.to_json r)) Test_service.request_gen;
        map
          (fun m -> Ndjson.line (Protocol.to_worker_to_json m))
          Test_dist.to_worker_gen;
        map
          (fun m -> Ndjson.line (Protocol.from_worker_to_json m))
          Test_dist.from_worker_gen;
      ])

(* One byte of a valid encoding replaced: the inputs that get furthest
   into a decoder before something is wrong. *)
let mutate valid_gen =
  QCheck.Gen.(
    let* line = valid_gen in
    let* pos = int_bound (String.length line - 1) in
    let* byte = char in
    return (String.mapi (fun i c -> if i = pos then byte else c) line))

let mutated_gen = mutate encoded_gen

let arbitrary_gen =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (9, char); (1, return '\n') ])
      (int_bound 300))

let fuzz ?(decode = decode_all) name gen =
  QCheck.Test.make ~count:1000 ~name
    (QCheck.make ~print:String.escaped gen)
    (fun bytes ->
      try decode bytes
      with e -> QCheck.Test.fail_reportf "exception %s" (Printexc.to_string e))

(* --- on-disk decoder fuzzing ------------------------------------------- *)

let name_gen = QCheck.Gen.(string_size ~gen:printable (int_range 1 6))

let journal_gen =
  QCheck.Gen.(
    let* scheme_names = list_size (int_range 1 3) name_gen in
    let* mix_names = list_size (int_range 1 3) name_gen in
    let* seed = ui64 in
    let* telemetry = bool in
    let record =
      let* mix = oneofl mix_names in
      let* scheme = oneofl scheme_names in
      let* row_seed = ui64 in
      let* ipc_bits = ui64 in
      let* attempts = int_bound 3 in
      let* counters = option (list_size (int_bound 3) (pair name_gen nat)) in
      return
        {
          Checkpoint.mix;
          scheme;
          row_seed;
          ipc = Int64.float_of_bits ipc_bits;
          attempts;
          counters;
        }
    in
    let* records = list_size (int_bound 4) record in
    let meta =
      { Checkpoint.scale = "quick"; seed; scheme_names; mix_names; telemetry }
    in
    return
      (Checkpoint.to_string
         (List.fold_left Checkpoint.add (Checkpoint.create meta) records)))

let ledger_gen =
  QCheck.Gen.(
    let* mix = name_gen in
    let* scheme = name_gen in
    let* ipc_bits = ui64 in
    let* seed = ui64 in
    let* counters = list_size (int_bound 3) (pair name_gen nat) in
    let* gauges = list_size (int_bound 3) (pair name_gen float) in
    let cell =
      {
        Ledger.mix;
        scheme;
        ipc = Int64.float_of_bits ipc_bits;
        elapsed_s = 0.5;
        started_s = 0.25;
        worker = 1;
        attempts = 1;
        degraded = false;
      }
    in
    return
      (J.to_string
         (Ledger.to_json
            (Ledger.make ~counters ~gauges ~cells:[| cell |] ~cmd:"exp"
               ~label:"fuzz" ~scale:"quick" ~seed ~jobs:2
               ~scheme_names:[ scheme ] ~mix_names:[ mix ] ~wall_s:1.0 ()))))

let span_json_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> J.to_string (Span.to_json s)) Test_dist.span_gen;
        map
          (fun l -> J.to_string (Span.list_to_json l))
          (list_size (int_bound 3) Test_dist.span_gen);
      ])

let disk_gen = QCheck.Gen.oneof [ journal_gen; ledger_gen; span_json_gen ]

(* The bytes as a journal file, and the whole text and each of its lines
   through [Json.parse] into the ledger and span decoders. *)
let decode_disk =
  let path = Filename.temp_file "vliwsim_fuzz" ".journal" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  fun bytes ->
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
    (match Checkpoint.load ~path with Ok _ | Error (_ : string) -> ());
    List.iter
      (fun text ->
        match J.parse text with
        | Ok doc ->
          ignore (Ledger.of_json doc : Ledger.run option);
          (match Span.of_json doc with Ok _ | Error (_ : string) -> ());
          (match Span.list_of_json doc with Ok _ | Error (_ : string) -> ())
        | Error (_ : string) -> ())
      (bytes :: String.split_on_char '\n' bytes);
    true

let suite =
  ( "wire",
    [
      Alcotest.test_case "a 2 MiB line arrives whole" `Quick test_large_line;
      Alcotest.test_case "EOF mid-line is Truncated" `Quick test_truncated_eof;
      Alcotest.test_case "peer close is EOF" `Quick test_peer_close;
      Alcotest.test_case "write to a closed peer raises" `Quick
        test_write_to_closed_peer;
      Alcotest.test_case "listen: stale and foreign paths" `Quick
        test_listen_stale_and_foreign;
      QCheck_alcotest.to_alcotest
        (fuzz "decoders: arbitrary bytes never raise" arbitrary_gen);
      QCheck_alcotest.to_alcotest
        (fuzz "decoders: mutated lines never raise" mutated_gen);
      QCheck_alcotest.to_alcotest
        (fuzz ~decode:decode_disk "on-disk decoders: arbitrary bytes never raise"
           arbitrary_gen);
      QCheck_alcotest.to_alcotest
        (fuzz ~decode:decode_disk "on-disk decoders: mutated records never raise"
           (mutate disk_gen));
    ] )
