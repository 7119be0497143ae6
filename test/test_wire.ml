(* The socket layer under every NDJSON peer, over real socketpairs and
   listeners, plus a byte fuzzer over the decoders that read its lines:
   whatever arrives on a socket, a decoder answers Ok or Error and
   never raises. *)

module J = Vliw_util.Json
module Ndjson = Vliw_util.Ndjson
module Wire = Vliw_util.Wire
module Request = Vliw_service.Request
module Protocol = Vliw_dist.Protocol

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

(* One byte of a valid line replaced: the inputs that get furthest into
   a decoder before something is wrong. *)
let mutated_gen =
  QCheck.Gen.(
    let* line = encoded_gen in
    let* pos = int_bound (String.length line - 1) in
    let* byte = char in
    return (String.mapi (fun i c -> if i = pos then byte else c) line))

let arbitrary_gen =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (9, char); (1, return '\n') ])
      (int_bound 300))

let fuzz name gen =
  QCheck.Test.make ~count:1000 ~name
    (QCheck.make ~print:String.escaped gen)
    (fun bytes ->
      try decode_all bytes
      with e -> QCheck.Test.fail_reportf "exception %s" (Printexc.to_string e))

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
    ] )
