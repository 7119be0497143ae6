(* Table-driven exit-code contract of the vliwsim binary.

   The convention (documented in bin/vliwsim.ml): 0 success, 1 runtime
   error, 2 usage error — uniformly across subcommands, diagnostics on
   stderr. Each case invokes the real executable (declared as a dune
   test dependency) as a subprocess. *)

(* The CLI next to this test binary in the build tree, so the suite
   runs from any working directory. *)
let vliwsim =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/vliwsim.exe"

let run_cli args =
  (* stdout/stderr silenced: only the exit code is under test here *)
  match Sys.command
    (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote vliwsim) args) with
  | n -> n

let cases =
  [
    (* usage errors: exit 2 *)
    ("exp no-such-experiment -q", 2);
    ("exp fig4 --scale bogus -q", 2);
    ("exp fig10 --resume -q", 2);
    (* --resume without --checkpoint *)
    ("exp fig10 --max-retries=-1 -q", 2);
    ("no-such-subcommand", 2);
    ("exp", 2);
    (* missing positional argument *)
    ("run --scheme NOPE --scale quick", 2);
    ("run --mix NOPE --scale quick", 2);
    ("run --benchmarks nope --scale quick", 2);
    ("trace --mix NOPE", 2);
    ("compile --benchmark nope", 2);
    ("compile --mode nope", 2);
    ("profile no-such-experiment -q", 2);
    ("serve", 2);
    (* no --socket/--tcp listener *)
    ("submit", 2);
    (* no --socket/--tcp endpoint *)
    ("submit --socket /tmp/x.sock --op bogus", 2);
    ("submit --socket /tmp/x.sock --scale bogus", 2);
    ("dist --workers 0", 2);
    (* no transport at all *)
    ("dist --workers=-1", 2);
    ("dist --resume", 2);
    (* --resume without --checkpoint *)
    ("exp fig10 --workers=-1 -q", 2);
    ("exp fig10 --replicates=-1 -q", 2);
    ("worker --connect /tmp/x.sock --connect-tcp 9", 2);
    (* conflicting transports *)
    ("runs merge --runs-dir /tmp/x", 2);
    (* no source ledgers *)
    ("runs merge --runs-dir /tmp/x /nonexistent-vliw-ledger", 2);
    (* source without a ledger file *)
    (* runtime errors: exit 1 (journal path in a missing directory) *)
    ("exp fig10 --scale quick -q --checkpoint /nonexistent-dir/x/ck", 1);
    (* a library-level Invalid_argument surfaces as a diagnostic + exit
       1 (runtime error), never exit 2 (reserved for usage problems) *)
    ("run --scale quick --trace-len 0", 1);
    ("submit --socket /nonexistent-dir/absent.sock", 1);
    (* no daemon listening *)
    (* successes: exit 0 *)
    ("schemes", 0);
    ("benchmarks", 0);
    ("exp list", 0);
    ("runs gc --dry-run --runs-dir /nonexistent-vliw-ledger", 0);
    (* gc of an absent ledger is an empty no-op *)
    ("exp fig5 -q", 0);
    ("--version", 0);
    ("--help", 0);
    ("exp --help", 0);
  ]

let test_exit_codes () =
  List.iter
    (fun (args, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "vliwsim %s -> exit %d" args expected)
        expected (run_cli args))
    cases

(* --- run ledger / report flow ----------------------------------------- *)

let contains ~needle haystack =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let read_file path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

(* End-to-end contract of the observability surface: every run records a
   ledger entry, runs list/show/diff/export-metrics/lint and report obey
   the exit-code convention, diagnostics go to stderr and data to
   stdout. *)
let test_runs_and_report_flow () =
  let dir = Filename.temp_file "vliwcli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let runs_dir = Filename.concat dir "runs" in
  let out = Filename.concat dir "out.txt"
  and err = Filename.concat dir "err.txt" in
  let cli args =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s" (Filename.quote vliwsim) args out err)
  in
  let quick = Printf.sprintf "run --scheme 2SC3 --mix LLHH --scale quick --runs-dir %s" runs_dir in
  (* two identical runs and one with a perturbed seed *)
  Alcotest.(check int) "run records a ledger entry" 0 (cli quick);
  Alcotest.(check bool) "recording note on stderr" true
    (contains ~needle:"recorded run r1" (read_file err));
  Alcotest.(check bool) "simulation data on stdout" true
    (contains ~needle:"IPC" (read_file out));
  Alcotest.(check int) "second identical run" 0 (cli quick);
  Alcotest.(check int) "perturbed-seed run" 0 (cli (quick ^ " --seed 7"));
  (* --no-ledger leaves the store untouched *)
  Alcotest.(check int) "opt-out run" 0 (cli (quick ^ " --no-ledger"));
  (* list: table on stdout *)
  Alcotest.(check int) "runs list" 0
    (cli (Printf.sprintf "runs list --runs-dir %s" runs_dir));
  let listing = read_file out in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " listed") true
        (contains ~needle listing))
    [ "r1"; "r2"; "r3" ];
  Alcotest.(check bool) "opt-out run not recorded" false
    (contains ~needle:"r4" listing);
  (* show *)
  Alcotest.(check int) "runs show" 0
    (cli (Printf.sprintf "runs show --runs-dir %s r1" runs_dir));
  Alcotest.(check bool) "show prints the fingerprint" true
    (contains ~needle:"fingerprint" (read_file out));
  (* diff: identical runs exit 0, drifted runs exit 1 and name the cell *)
  Alcotest.(check int) "diff identical" 0
    (cli (Printf.sprintf "runs diff --runs-dir %s r1 r2" runs_dir));
  Alcotest.(check bool) "diff reports bit-identical" true
    (contains ~needle:"bit-identical" (read_file out));
  Alcotest.(check int) "diff drifted" 1
    (cli (Printf.sprintf "runs diff --runs-dir %s r1 r3" runs_dir));
  Alcotest.(check bool) "diff names the first drifting cell" true
    (contains ~needle:"first drift at (LLHH, 2SC3)" (read_file out));
  (* export-metrics round-trips through the in-repo linter *)
  let prom = Filename.concat dir "metrics.prom" in
  Alcotest.(check int) "export-metrics" 0
    (cli (Printf.sprintf "runs export-metrics --runs-dir %s latest -o %s" runs_dir prom));
  Alcotest.(check int) "lint accepts our exposition" 0
    (cli (Printf.sprintf "runs lint %s" prom));
  let bad = Filename.concat dir "bad.prom" in
  Out_channel.with_open_bin bad (fun oc ->
      output_string oc "bogus{ 1\nno_type_line 2\n");
  Alcotest.(check int) "lint rejects a broken exposition" 1
    (cli (Printf.sprintf "runs lint %s" bad));
  Alcotest.(check bool) "violations on stderr" true
    (contains ~needle:"violation" (read_file err));
  (* report: one self-contained file *)
  let html = Filename.concat dir "report.html" in
  Alcotest.(check int) "report" 0
    (cli (Printf.sprintf "report --runs-dir %s --run r1 -o %s" runs_dir html));
  let doc = read_file html in
  Alcotest.(check bool) "report has inline SVG" true (contains ~needle:"<svg" doc);
  Alcotest.(check bool) "report has no scripts" false
    (contains ~needle:"<script" doc);
  Alcotest.(check bool) "report has no external URLs" false
    (contains ~needle:"http" doc);
  (* usage errors: unknown id, empty ledger *)
  Alcotest.(check int) "unknown run id" 2
    (cli (Printf.sprintf "runs show --runs-dir %s r99" runs_dir));
  Alcotest.(check int) "empty ledger is a usage error" 2
    (cli (Printf.sprintf "runs show --runs-dir %s latest" (Filename.concat dir "void")));
  Alcotest.(check int) "report on empty ledger" 2
    (cli (Printf.sprintf "report --runs-dir %s" (Filename.concat dir "void")));
  Alcotest.(check int) "lint on a missing file" 2
    (cli (Printf.sprintf "runs lint %s" (Filename.concat dir "nope.prom")));
  (* listing an empty ledger is informational, not an error *)
  Alcotest.(check int) "runs list on empty ledger" 0
    (cli (Printf.sprintf "runs list --runs-dir %s" (Filename.concat dir "void")));
  Alcotest.(check string) "empty listing keeps stdout clean" ""
    (read_file out)

(* --log-json flag plumbing: accepted under -q, the stream file is
   created even when the experiment emits no sweep events. The stream's
   content is covered at the library level (test_observability) and the
   full `exp fig10 --log-json` path by the CI smoke job — a quick fig10
   sweep is too slow for the unit suite. *)
let test_log_json_stream () =
  let dir = Filename.temp_file "vliwcli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let events = Filename.concat dir "events.ndjson" in
  Alcotest.(check int) "exp with --log-json succeeds" 0
    (Sys.command
       (Printf.sprintf "%s exp fig5 -q --no-ledger --log-json %s >/dev/null 2>&1"
          (Filename.quote vliwsim) events));
  Alcotest.(check bool) "stream file created" true (Sys.file_exists events)

(* `top` labels a dist worker by what it is doing: busy while it holds
   cells, idle once it has greeted the coordinator and holds none,
   starting before that. A test-side listener answers the one stats
   request with a canned coordinator reply. *)
let test_top_worker_labels () =
  let module J = Vliw_util.Json in
  let module Wire = Vliw_util.Wire in
  let dir = Filename.temp_file "vliwtop" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let endpoint = Wire.Socket (Filename.concat dir "top.sock") in
  let out = Filename.concat dir "out.txt" in
  let listener = Wire.listen endpoint in
  let worker id ready cells =
    J.Obj
      [ ("worker", J.Num (float_of_int id)); ("ready", J.Bool ready);
        ("cells", J.Num (float_of_int cells)) ]
  in
  let reply =
    J.Obj
      [ ("reply", J.Str "stats"); ("kind", J.Str "dist");
        ("workers", J.List [ worker 0 true 2; worker 1 true 0; worker 2 false 0 ]) ]
  in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process vliwsim
      [| vliwsim; "top"; "--once"; "--socket"; Wire.endpoint_name endpoint |]
      Unix.stdin out_fd Unix.stderr
  in
  Unix.close out_fd;
  (match Unix.select [ listener ] [] [] 30.0 with
  | [], _, _ -> Alcotest.fail "top never connected"
  | _ -> (
    match Wire.accept listener with
    | None -> Alcotest.fail "accept failed"
    | Some conn ->
      let rec await_request () =
        match Wire.read conn with
        | Wire.Lines [] -> await_request ()
        | _ -> ()
      in
      await_request ();
      Wire.write_line (Wire.fd conn) reply;
      Unix.close (Wire.fd conn)));
  Wire.close_listener endpoint listener;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "top --once exits 0" true (status = Unix.WEXITED 0);
  let frame = read_file out in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " shown") true (contains ~needle frame))
    [ "worker 0    busy  cells=2"; "worker 1    idle  cells=0";
      "worker 2    starting  cells=0" ]

let suite =
  ( "cli",
    [
      Alcotest.test_case "exit code contract" `Quick test_exit_codes;
      Alcotest.test_case "runs and report flow" `Quick test_runs_and_report_flow;
      Alcotest.test_case "--log-json event stream" `Quick test_log_json_stream;
      Alcotest.test_case "top labels dist workers" `Quick test_top_worker_labels;
    ] )
