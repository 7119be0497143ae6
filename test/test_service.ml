(* The sweep service: NDJSON framing, the request codec, the
   backfilling batch planner, the content-addressed cell cache, ledger
   gc — and one in-process end-to-end daemon session proving the
   acceptance contract: a sweep submitted twice simulates zero cells
   the second time and both responses are bit-identical to a local run
   of the same configuration. *)

module J = Vliw_util.Json
module Ndjson = Vliw_util.Ndjson
module Request = Vliw_service.Request
module Scheduler = Vliw_service.Scheduler
module Cache = Vliw_service.Cache
module Server = Vliw_service.Server
module Ledger = Vliw_telemetry.Ledger
module E = Vliw_experiments

(* --- NDJSON framing ---------------------------------------------------- *)

let ok_doc = function
  | Ok d -> d
  | Error e -> Alcotest.failf "expected a document, got: %s" (Ndjson.error_message e)

let test_ndjson_reassembly () =
  let r = Ndjson.reader () in
  (* one line split across three feeds, then two lines in one feed *)
  Alcotest.(check int) "partial line yields nothing" 0
    (List.length (Ndjson.feed r {|{"op":|}));
  Alcotest.(check int) "still partial" 0
    (List.length (Ndjson.feed r {|"ping"|}));
  (match Ndjson.feed r "}\n" with
  | [ Ok d ] ->
    Alcotest.(check string) "reassembled doc" {|{"op":"ping"}|} (J.to_string d)
  | other -> Alcotest.failf "expected one doc, got %d results" (List.length other));
  (match Ndjson.feed r "{\"a\":1}\r\n\n{\"b\":2}\n" with
  | [ Ok a; Ok b ] ->
    (* CRLF tolerated, blank line skipped *)
    Alcotest.(check string) "first" {|{"a":1}|} (J.to_string a);
    Alcotest.(check string) "second" {|{"b":2}|} (J.to_string b)
  | rs -> Alcotest.failf "expected two docs, got %d results" (List.length rs));
  Alcotest.(check bool) "clean close" true (Ndjson.close r = None)

let test_ndjson_malformed () =
  let r = Ndjson.reader () in
  (match Ndjson.feed r "{not json}\n{\"ok\":true}\n" with
  | [ Error (Ndjson.Malformed _); Ok d ] ->
    (* a bad line is one error; the stream resyncs at the newline *)
    Alcotest.(check string) "survivor" {|{"ok":true}|} (J.to_string d)
  | rs -> Alcotest.failf "expected [malformed; ok], got %d results" (List.length rs));
  Alcotest.(check bool) "error is explained" true
    (String.length (Ndjson.error_message (Ndjson.Malformed { msg = "x" })) > 0)

let test_ndjson_oversized () =
  let r = Ndjson.reader ~max_line_bytes:8 () in
  let results = Ndjson.feed r (String.make 100 'x' ^ "\ntrue\n") in
  (match results with
  | [ Error (Ndjson.Oversized { limit }) ; Ok d ] ->
    (* exactly one Oversized per over-budget line, next line intact *)
    Alcotest.(check int) "reported limit" 8 limit;
    Alcotest.(check string) "next line parsed" "true" (J.to_string d)
  | rs -> Alcotest.failf "expected [oversized; ok], got %d results" (List.length rs));
  (* the overflow must not have been buffered *)
  let r2 = Ndjson.reader ~max_line_bytes:4 () in
  ignore (Ndjson.feed r2 (String.make 1_000_000 'y'));
  Alcotest.(check bool) "oversized close reports truncation" true
    (Ndjson.close r2 = Some (Error Ndjson.Truncated))

let test_ndjson_truncated () =
  let r = Ndjson.reader () in
  ignore (Ndjson.feed r {|{"op":"ping"|});
  Alcotest.(check bool) "EOF mid-line is Truncated" true
    (Ndjson.close r = Some (Error Ndjson.Truncated));
  Alcotest.(check bool) "close after close is clean" true (Ndjson.close r = None)

(* --- request codec ----------------------------------------------------- *)

let test_request_defaults () =
  let parse s = Request.of_line s in
  (match parse {|{"op":"submit"}|} with
  | Ok (Request.Submit s) ->
    Alcotest.(check string) "default scale" "default" s.scale;
    Alcotest.(check string) "default tag" "" s.tag;
    Alcotest.(check bool) "default seed" true
      (s.seed = E.Common.default_seed);
    Alcotest.(check int) "default priority" 0 s.priority;
    Alcotest.(check (list string)) "default mixes" [] s.mixes
  | _ -> Alcotest.fail "bare submit should parse with defaults");
  (match parse {|{"op":"submit","seed":"0x2a","priority":3}|} with
  | Ok (Request.Submit s) ->
    Alcotest.(check bool) "hex seed" true (s.seed = 42L);
    Alcotest.(check int) "priority" 3 s.priority
  | _ -> Alcotest.fail "hex seed should parse");
  List.iter
    (fun (line, what) ->
      match parse line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should be rejected" what)
    [
      ({|{"op":"nope"}|}, "unknown op");
      ({|{"noop":true}|}, "missing op");
      ({|{"op":42}|}, "non-string op");
      ({|{"op":"submit","seed":"zebra"}|}, "unparseable seed");
      ({|{"op":"submit","priority":"high"}|}, "non-integer priority");
      ({|{"op":"submit","mixes":"LLHH"}|}, "non-list mixes");
      ({|{"op":"submit","mixes":[1]}|}, "non-string mix entry");
    ]

(* Any request; strings are arbitrary bytes — the JSON layer owns
   escaping. Also the seed corpus of the wire fuzzer (Test_wire). *)
let request_gen =
  let gen_submit =
    QCheck.Gen.(
      let* tag = string_size (int_bound 12) in
      let* scale = oneofl [ "quick"; "default"; "full"; "weird" ] in
      let* seed = ui64 in
      let* priority = int_range (-5) 100 in
      let* mixes = list_size (int_bound 3) (string_size (int_bound 6)) in
      let* schemes = list_size (int_bound 3) (string_size (int_bound 6)) in
      let* trace =
        option
          (map2
             (fun t p -> { Request.trace_id = t; parent_span = p })
             ui64 (option ui64))
      in
      return
        (Request.Submit { tag; scale; seed; priority; mixes; schemes; trace }))
  in
  QCheck.Gen.(
    frequency
      [
        (4, gen_submit);
        (1, oneofl [ Request.Ping; Request.Stats; Request.Metrics; Request.Shutdown ]);
      ])

(* Round-trip property: any request encodes to JSON and decodes back to
   itself. *)
let test_request_roundtrip =
  let arb =
    QCheck.make ~print:(fun r -> J.to_string (Request.to_json r)) request_gen
  in
  QCheck.Test.make ~count:200 ~name:"service: request <-> JSON round-trip" arb
    (fun req ->
      match Request.of_line (J.to_string (Request.to_json req)) with
      | Ok req' -> req' = req
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

(* --- scheduler --------------------------------------------------------- *)

let job jid ~priority ~arrival cells =
  { Scheduler.jid; priority; arrival; cells }

let test_scheduler_priority_fifo () =
  (* higher priority first; FIFO within a priority *)
  let q =
    [
      job "a" ~priority:0 ~arrival:1 [ 1; 2 ];
      job "b" ~priority:5 ~arrival:2 [ 3 ];
      job "c" ~priority:0 ~arrival:0 [ 4 ];
    ]
  in
  let batch, rest = Scheduler.plan ~capacity:10 q in
  Alcotest.(check (list (pair string int)))
    "dispatch order is rank order"
    [ ("b", 3); ("c", 4); ("a", 1); ("a", 2) ]
    batch;
  Alcotest.(check int) "queue drained" 0 (List.length rest)

let test_scheduler_backfill () =
  (* head job fills the batch; a small job backfills the idle slots
     while a bigger better-ranked one waits whole *)
  let q =
    [
      job "head" ~priority:9 ~arrival:0 [ 1; 2; 3 ];
      job "big" ~priority:5 ~arrival:1 [ 4; 5; 6; 7 ];
      job "small" ~priority:0 ~arrival:2 [ 8 ];
    ]
  in
  let batch, rest = Scheduler.plan ~capacity:4 q in
  Alcotest.(check (list (pair string int)))
    "small job backfills the idle slot"
    [ ("head", 1); ("head", 2); ("head", 3); ("small", 8) ]
    batch;
  (match rest with
  | [ j ] ->
    Alcotest.(check string) "big job waits intact" "big" j.Scheduler.jid;
    Alcotest.(check int) "with all its cells" 4 (List.length j.Scheduler.cells)
  | _ -> Alcotest.fail "exactly one job should remain");
  (* nothing fits whole: the best-ranked leftover fills partially so no
     slot idles *)
  let batch2, rest2 =
    Scheduler.plan ~capacity:2
      [
        job "x" ~priority:1 ~arrival:0 [ 1; 2; 3 ];
        job "y" ~priority:0 ~arrival:1 [ 4; 5; 6 ];
      ]
  in
  Alcotest.(check (list (pair string int)))
    "partial fill from the best-ranked job"
    [ ("x", 1); ("x", 2) ]
    batch2;
  Alcotest.(check int) "both jobs survive" 2 (List.length rest2)

let test_scheduler_edges () =
  Alcotest.(check bool) "zero capacity plans nothing" true
    (fst (Scheduler.plan ~capacity:0 [ job "a" ~priority:0 ~arrival:0 [ 1 ] ]) = []);
  Alcotest.(check bool) "empty queue plans nothing" true
    (Scheduler.plan ~capacity:8 ([] : int Scheduler.job list) = ([], []));
  (* a fully drained head cascades into the next job *)
  let batch, rest =
    Scheduler.plan ~capacity:5
      [
        job "a" ~priority:1 ~arrival:0 [ 1; 2 ];
        job "b" ~priority:0 ~arrival:1 [ 3; 4; 5 ];
      ]
  in
  Alcotest.(check int) "all five dispatched" 5 (List.length batch);
  Alcotest.(check int) "nothing left" 0 (List.length rest)

(* --- cache ------------------------------------------------------------- *)

let mk_run ?(cmd = "exp") ?(policy = "static") ?(label = "t") ~cells () =
  Ledger.make ~cells ~policy ~cmd ~label ~scale:"quick" ~seed:42L ~jobs:1
    ~scheme_names:[ "C4" ] ~mix_names:[ "LLHH" ] ~wall_s:0.1 ()

let mk_cell ?(ipc = 3.25) ?(degraded = false) mix scheme =
  {
    Ledger.mix;
    scheme;
    ipc = (if degraded then Float.nan else ipc);
    elapsed_s = 0.1;
    started_s = 0.0;
    worker = 0;
    attempts = 1;
    degraded;
  }

let temp_dir () =
  let dir = Filename.temp_file "vliwsvc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let test_cache_keys () =
  let key = Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLHH" ~scheme:"C4" in
  Alcotest.(check string) "key is stable" key
    (Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLHH" ~scheme:"C4");
  let others =
    [
      Cache.cell_key ~scale:"default" ~seed:42L ~mix:"LLHH" ~scheme:"C4";
      Cache.cell_key ~scale:"quick" ~seed:43L ~mix:"LLHH" ~scheme:"C4";
      Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLLL" ~scheme:"C4";
      Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLHH" ~scheme:"1S";
    ]
  in
  List.iter
    (fun k -> Alcotest.(check bool) "every dimension changes the key" false (k = key))
    others

let test_cache_ingestion_policy () =
  Alcotest.(check bool) "exp/static is cacheable" true
    (Cache.cacheable_run (mk_run ~cells:[||] ()));
  Alcotest.(check bool) "serve/static is cacheable" true
    (Cache.cacheable_run (mk_run ~cmd:"serve" ~cells:[||] ()));
  (* `run` seeds the simulation differently; adaptive results depend on
     controller state — neither may feed the content-addressed cache *)
  Alcotest.(check bool) "run records are not cacheable" false
    (Cache.cacheable_run (mk_run ~cmd:"run" ~cells:[||] ()));
  Alcotest.(check bool) "adaptive records are not cacheable" false
    (Cache.cacheable_run (mk_run ~policy:"greedy" ~cells:[||] ()))

let test_cache_preload () =
  let dir = temp_dir () in
  ignore (Ledger.append ~dir (mk_run ~cells:[| mk_cell "LLHH" "C4" |] ()));
  ignore
    (Ledger.append ~dir
       (mk_run ~cmd:"run" ~cells:[| mk_cell "LLHH" "1S" |] ()));
  ignore
    (Ledger.append ~dir
       (mk_run ~cells:[| mk_cell ~degraded:true "LLLL" "C4" |] ()));
  let cache = Cache.create () in
  let n = Cache.preload cache ~dir in
  (* only the exp/static, non-degraded cell makes it in *)
  Alcotest.(check int) "one cell preloaded" 1 n;
  Alcotest.(check int) "cache size" 1 (Cache.size cache);
  Alcotest.(check bool) "the right cell" true
    (Cache.find cache
       ~key:(Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLHH" ~scheme:"C4")
    = Some 3.25);
  Alcotest.(check bool) "degraded cell absent" true
    (Cache.find cache
       ~key:(Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLLL" ~scheme:"C4")
    = None);
  (* nan never enters through add either *)
  Cache.add cache ~key:"k" ~ipc:Float.nan;
  Alcotest.(check int) "nan add is a no-op" 1 (Cache.size cache)

(* --- ledger gc and id assignment --------------------------------------- *)

let test_ledger_gc () =
  let dir = temp_dir () in
  let cells_a = [| mk_cell "LLHH" "C4" |] in
  let cells_b = [| mk_cell ~ipc:2.5 "LLHH" "C4" |] in
  ignore (Ledger.append ~dir (mk_run ~label:"old" ~cells:cells_a ()));
  ignore (Ledger.append ~dir (mk_run ~label:"new" ~cells:cells_a ()));
  ignore (Ledger.append ~dir (mk_run ~label:"drift" ~cells:cells_b ()));
  (* dry run touches nothing *)
  let dry = Ledger.gc ~dry_run:true ~dir () in
  Alcotest.(check int) "dry run finds the duplicate" 1
    (List.length dry.Ledger.dropped);
  Alcotest.(check int) "dry run leaves the file" 3
    (List.length (Ledger.load ~dir));
  let report = Ledger.gc ~dir () in
  Alcotest.(check (list string))
    "duplicate dropped (oldest)" [ "r1" ]
    (List.map (fun r -> r.Ledger.id) report.Ledger.dropped);
  Alcotest.(check (list string))
    "newest duplicate and the drift witness survive" [ "r2"; "r3" ]
    (List.map (fun r -> r.Ledger.id) (Ledger.load ~dir));
  (* idempotence *)
  let again = Ledger.gc ~dir () in
  Alcotest.(check int) "second gc drops nothing" 0
    (List.length again.Ledger.dropped);
  (* ids after gc never collide with survivors: max+1, not count+1 *)
  let fresh = Ledger.append ~dir (mk_run ~label:"post-gc" ~cells:cells_a ()) in
  Alcotest.(check string) "fresh id skips the gap" "r4" fresh.Ledger.id

(* --- prepared rows ----------------------------------------------------- *)

(* A prepared grid row simulated per scheme must be bit-identical to the
   sweep engine's own cells — this is what makes cache entries
   interchangeable with exp results. *)
let test_simulate_prepared_bit_identity () =
  let scale = E.Common.Quick and seed = 7L in
  let scheme_names = [ "C4"; "1S" ] and mix_names = [ "LLHH"; "MMMM" ] in
  let _, _, cells =
    E.Sweep.run_cells ~scale ~seed ~scheme_names ~mix_names ()
  in
  List.iter
    (fun mix ->
      let pr = E.Sweep.prepare_row ~scale ~seed mix in
      Alcotest.(check string) "prepared mix name" mix pr.E.Sweep.name;
      List.iter
        (fun scheme ->
          let ipc =
            E.Sweep.simulate_prepared pr
              (E.Sweep.static_column (Vliw_merge.Catalog.find_exn scheme))
          in
          let reference =
            match
              Array.find_opt
                (fun (c : E.Sweep.cell) -> c.mix = mix && c.scheme = scheme)
                cells
            with
            | Some c -> c.ipc
            | None -> Alcotest.failf "no reference cell for %s/%s" mix scheme
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s bit-identical" mix scheme)
            true
            (Int64.bits_of_float ipc = Int64.bits_of_float reference))
        scheme_names)
    mix_names

(* --- end-to-end daemon ------------------------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec retry n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Unix.sleepf 0.05;
      retry (n - 1)
  in
  retry 100

let send_line fd doc =
  let line = Ndjson.line doc in
  let rec push off =
    if off < String.length line then
      push (off + Unix.write_substring fd line off (String.length line - off))
  in
  push 0

(* Read reply lines until [stop] returns [Some _] for one of them. *)
let read_until fd stop =
  let reader = Ndjson.reader () in
  let buf = Bytes.create 4096 in
  let rec loop acc =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Alcotest.fail "server closed the connection unexpectedly"
    | n ->
      let docs =
        List.map ok_doc (Ndjson.feed reader ~len:n (Bytes.unsafe_to_string buf))
      in
      let acc = acc @ docs in
      (match List.find_map stop docs with
      | Some v -> (v, acc)
      | None -> loop acc)
  in
  loop []

let member_str key doc =
  match J.member key doc with Some (J.Str s) -> Some s | _ -> None

let member_num key doc =
  match J.member key doc with Some (J.Num v) -> Some v | _ -> None

let done_reply doc =
  if member_str "reply" doc = Some "done" then Some doc else None

let submit_req ~tag ~mixes ~schemes =
  Request.to_json
    (Request.Submit
       {
         tag;
         scale = "quick";
         seed = 42L;
         priority = 0;
         mixes;
         schemes;
         trace = None;
       })

let test_daemon_end_to_end () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "svc.sock" in
  let runs_dir = Filename.concat dir "_runs" in
  let server =
    Domain.spawn (fun () ->
        Server.run
          {
            Server.default_config with
            socket_path = Some socket;
            runs_dir;
            jobs = 2;
          })
  in
  Fun.protect
    ~finally:(fun () -> Domain.join server)
    (fun () ->
      let mixes = [ "LLHH" ] and schemes = [ "C4"; "1S" ] in
      let fd = connect socket in
      (* ping first: the transport is alive *)
      send_line fd (Request.to_json Request.Ping);
      let pong, _ =
        read_until fd (fun d ->
            if member_str "reply" d = Some "pong" then Some d else None)
      in
      ignore pong;
      (* malformed and oversized lines get error replies, connection
         survives *)
      ignore (Unix.write_substring fd "{broken\n" 0 8);
      let err1, _ =
        read_until fd (fun d -> member_str "error" d)
      in
      Alcotest.(check bool) "malformed line rejected" true
        (String.length err1 > 0);
      send_line fd (J.Obj [ ("op", J.Str "submit"); ("scale", J.Str "saturn") ]);
      let err2, _ = read_until fd (fun d -> member_str "error" d) in
      Alcotest.(check bool) "unknown scale rejected" true
        (String.length err2 > 0);
      (* cold submit: everything simulates *)
      send_line fd (submit_req ~tag:"cold" ~mixes ~schemes);
      let done1, lines1 = read_until fd done_reply in
      Alcotest.(check (option (float 0.0))) "all cells simulated" (Some 2.0)
        (member_num "simulated" done1);
      Alcotest.(check (option (float 0.0))) "no cache hits yet" (Some 0.0)
        (member_num "cached" done1);
      let events =
        List.filter (fun d -> J.member "ev" d <> None) lines1
      in
      Alcotest.(check bool) "event stream present" true
        (List.length events >= 3 (* started + 2 cells + finished *));
      (* warm submit: zero simulations, bit-identical digest *)
      send_line fd (submit_req ~tag:"warm" ~mixes ~schemes);
      let done2, _ = read_until fd done_reply in
      Alcotest.(check (option (float 0.0))) "second submit simulates nothing"
        (Some 0.0)
        (member_num "simulated" done2);
      Alcotest.(check (option (float 0.0))) "second submit all cached" (Some 2.0)
        (member_num "cached" done2);
      Alcotest.(check (option string)) "digests bit-identical"
        (member_str "digest" done1)
        (member_str "digest" done2);
      (* stats reflect the session *)
      send_line fd (Request.to_json Request.Stats);
      let s, _ =
        read_until fd (fun d ->
            if member_str "reply" d = Some "stats" then Some d else None)
      in
      Alcotest.(check (option (float 0.0))) "stats cache size" (Some 2.0)
        (member_num "cache_cells" s);
      (* metrics op yields a lintable exposition *)
      send_line fd (Request.to_json Request.Metrics);
      let m, _ =
        read_until fd (fun d ->
            if member_str "reply" d = Some "metrics" then Some d else None)
      in
      (match member_str "exposition" m with
      | Some text ->
        Alcotest.(check (list string)) "exposition lints clean" []
          (Vliw_telemetry.Openmetrics.lint text)
      | None -> Alcotest.fail "metrics reply carries no exposition");
      (* graceful shutdown *)
      send_line fd (Request.to_json Request.Shutdown);
      let _, _ =
        read_until fd (fun d ->
            if member_str "reply" d = Some "shutting_down" then Some d
            else None)
      in
      Unix.close fd);
  (* both jobs are on the ledger and bit-identical — to each other and
     to a local run of the same configuration *)
  (match Ledger.load ~dir:runs_dir with
  | [ a; b ] ->
    Alcotest.(check string) "serve records" "serve" a.Ledger.cmd;
    Alcotest.(check bool) "served grids diff Identical" true
      (Ledger.diff a b = Ledger.Identical);
    Alcotest.(check int) "warm run took zero attempts" 0
      (Array.fold_left (fun acc c -> acc + c.Ledger.attempts) 0 b.Ledger.cells);
    let _, _, local =
      E.Sweep.run_cells ~scale:E.Common.Quick ~seed:42L
        ~scheme_names:[ "C4"; "1S" ] ~mix_names:[ "LLHH" ] ()
    in
    Array.iter
      (fun (c : Ledger.cell) ->
        let reference =
          match
            Array.find_opt
              (fun (l : E.Sweep.cell) ->
                l.mix = c.mix && l.scheme = c.scheme)
              local
          with
          | Some l -> l.ipc
          | None -> Alcotest.failf "no local cell for %s/%s" c.mix c.scheme
        in
        Alcotest.(check bool)
          (Printf.sprintf "served %s/%s == local run" c.mix c.scheme)
          true
          (Int64.bits_of_float c.ipc = Int64.bits_of_float reference))
      a.Ledger.cells;
    Alcotest.(check string) "fingerprint matches a local exp's" a.Ledger.fingerprint
      (Ledger.fingerprint_of ~scale:"quick" ~seed:42L
         ~scheme_names:[ "C4"; "1S" ] ~mix_names:[ "LLHH" ] ())
  | rs -> Alcotest.failf "expected 2 ledger records, found %d" (List.length rs));
  (* the socket file is gone after graceful shutdown *)
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

(* --- tracing ----------------------------------------------------------- *)

module Span = Vliw_telemetry.Span

let submit_json ?trace ?(mixes = [ "LLHH" ]) ?(schemes = [ "C4" ]) ~seed ~tag
    () =
  Request.to_json
    (Request.Submit
       { tag; scale = "quick"; seed; priority = 0; mixes; schemes; trace })

(* Spin a daemon, hand [f] a connected fd, shut down gracefully, join. *)
let with_daemon ?(jobs = 1) ?tracer ?max_line_bytes dir f =
  let socket = Filename.concat dir "svc.sock" in
  let runs_dir = Filename.concat dir "_runs" in
  let cfg =
    {
      Server.default_config with
      socket_path = Some socket;
      runs_dir;
      jobs;
      tracer;
      max_line_bytes =
        Option.value max_line_bytes
          ~default:Server.default_config.Server.max_line_bytes;
    }
  in
  let server = Domain.spawn (fun () -> Server.run cfg) in
  (* The shutdown goes out on a fresh connection even when [f] raises (a
     failed check), so the daemon always exits and the join returns; a
     daemon that is already gone refuses the connection. *)
  let shutdown () =
    match connect socket with
    | exception Unix.Unix_error _ -> ()
    | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_line fd (Request.to_json Request.Shutdown);
          ignore
            (read_until fd (fun d ->
                 if member_str "reply" d = Some "shutting_down" then Some d
                 else None)))
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown ();
      Domain.join server)
    (fun () ->
      let fd = connect socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd))

(* A traced submit gets its span tree back on the done reply, the
   lifecycle spans decompose the reported latency, and the forest is
   well-nested once the client adds its own root — the serve half of
   the tracing acceptance contract. *)
let test_daemon_traced_submit () =
  let dir = temp_dir () in
  let client = Span.collector ~seed:0xc0ffeeL () in
  let trace = Span.fresh_id client in
  let croot = Span.fresh_id client in
  with_daemon ~jobs:1 dir (fun fd ->
      let t_send = Unix.gettimeofday () in
      send_line fd
        (submit_json
           ~trace:{ Request.trace_id = trace; parent_span = Some croot }
           ~seed:42L ~tag:"traced" ());
      let done1, _ = read_until fd done_reply in
      let t_done = Unix.gettimeofday () in
      Alcotest.(check (option string))
        "trace id echoed"
        (Some (Span.id_to_hex trace))
        (member_str "trace" done1);
      let spans =
        match J.member "spans" done1 with
        | Some j -> (
          match Span.list_of_json j with
          | Ok ss -> ss
          | Error e -> Alcotest.fail ("reply spans undecodable: " ^ e))
        | None -> Alcotest.fail "done reply carries no spans"
      in
      Alcotest.(check bool) "all spans in the request's trace" true
        (List.for_all (fun s -> s.Span.trace = trace) spans);
      let root =
        match List.filter (fun s -> s.Span.kind = Span.Submit) spans with
        | [ r ] -> r
        | _ -> Alcotest.fail "expected exactly one submit root"
      in
      Alcotest.(check bool) "root parented to the client span" true
        (root.Span.parent = Some croot);
      Alcotest.(check bool) "children hang off the root" true
        (List.for_all
           (fun s -> s.Span.id = root.Span.id || s.Span.parent = Some root.Span.id)
           spans);
      let durs k =
        List.filter_map
          (fun s -> if s.Span.kind = k then Some s.Span.dur_s else None)
          spans
      in
      (match
         (durs Span.Queue_wait, durs Span.Schedule, durs Span.Simulate_cell,
          durs Span.Ledger_append)
       with
      | [ qw ], [ sched ], [ sim ], [ led ] ->
        let wall =
          match member_num "wall_s" done1 with
          | Some w -> w
          | None -> Alcotest.fail "done reply carries no wall_s"
        in
        let parts = qw +. sched +. sim +. led in
        Alcotest.(check bool)
          (Printf.sprintf
             "lifecycle spans (%.4fs) decompose the reported latency (%.4fs)"
             parts wall)
          true
          (parts <= wall +. 0.01 && wall -. parts <= 0.25)
      | _ -> Alcotest.fail "expected one span per lifecycle kind");
      (* the client's own root over the reply closes the forest *)
      let cspan =
        {
          Span.trace;
          id = croot;
          parent = None;
          kind = Span.Submit;
          name = "client";
          lane = "client";
          start_s = t_send;
          dur_s = t_done -. t_send;
        }
      in
      Alcotest.(check (list string)) "merged forest well-nested" []
        (Span.validate ~slack_s:0.05 (cspan :: spans));
      (* an untraced submit on the same connection gets no spans back *)
      send_line fd (submit_json ~seed:42L ~tag:"plain" ());
      let done2, _ = read_until fd done_reply in
      Alcotest.(check bool) "untraced reply has no spans" true
        (J.member "spans" done2 = None);
      Alcotest.(check bool) "untraced reply has no trace id" true
        (J.member "trace" done2 = None))

(* A serve job runs each sharing class of a row as one batch unit: a
   cold job over C4/3CCC/2SC3/3SCC still reports every cell simulated
   (none cached) but records one [simulate_cell] span per class, and
   repeating it is answered wholly from the cache with the same bits. *)
let test_daemon_shares_classes () =
  let dir = temp_dir () in
  let tracer = Span.collector ~seed:0x5a4eL () in
  let schemes = [ "C4"; "3CCC"; "2SC3"; "3SCC" ]
  and mixes = [ "LLHH"; "MMMM" ] in
  (* checked once the daemon is down: a failed check inside would leave
     it running *)
  let cold, warm =
    with_daemon ~jobs:2 ~tracer dir (fun fd ->
        let trace = Some { Request.trace_id = 0x5a4eL; parent_span = None } in
        send_line fd
          (submit_json ?trace ~mixes ~schemes ~seed:42L ~tag:"cold" ());
        let cold, _ = read_until fd done_reply in
        send_line fd (submit_json ~mixes ~schemes ~seed:42L ~tag:"warm" ());
        let warm, _ = read_until fd done_reply in
        (cold, warm))
  in
  Alcotest.(check (option (float 0.0))) "cold: nothing cached" (Some 0.0)
    (member_num "cached" cold);
  Alcotest.(check (option (float 0.0))) "cold: every cell simulated" (Some 8.0)
    (member_num "simulated" cold);
  let spans =
    match Option.map Span.list_of_json (J.member "spans" cold) with
    | Some (Ok ss) -> ss
    | _ -> Alcotest.fail "cold done reply carries no spans"
  in
  Alcotest.(check int) "one simulate_cell span per class (2 per row)" 4
    (List.length (List.filter (fun s -> s.Span.kind = Span.Simulate_cell) spans));
  Alcotest.(check (option (float 0.0))) "warm: every cell cached" (Some 8.0)
    (member_num "cached" warm);
  Alcotest.(check (option (float 0.0))) "warm: nothing simulated" (Some 0.0)
    (member_num "simulated" warm);
  let _, _, local =
    E.Sweep.run_cells ~scale:E.Common.Quick ~seed:42L ~scheme_names:schemes
      ~mix_names:mixes ()
  in
  List.iter
    (fun doc ->
      Alcotest.(check (option string)) "served grid == local sweep"
        (Some (Ledger.grid_digest (Array.map E.Sweep.ledger_cell local)))
        (member_str "digest" doc))
    [ cold; warm ]

(* Tracing is observation-only: a daemon with a collector (and a traced
   request) produces the same grid bits as an untraced daemon serving an
   untraced request, at jobs 1 and 4. *)
let serve_once ~jobs ~seed ~traced =
  let dir = temp_dir () in
  let tracer = if traced then Some (Span.collector ~seed:99L ()) else None in
  let digest =
    with_daemon ~jobs ?tracer dir (fun fd ->
        let trace =
          if traced then
            Some { Request.trace_id = 0xabcL; parent_span = None }
          else None
        in
        send_line fd
          (submit_json ?trace ~schemes:[ "C4"; "1S" ] ~seed ~tag:"obs" ());
        let d, _ = read_until fd done_reply in
        match member_str "digest" d with
        | Some dg -> dg
        | None -> Alcotest.fail "done reply carries no digest")
  in
  match Ledger.load ~dir:(Filename.concat dir "_runs") with
  | [ r ] -> (digest, r)
  | rs -> Alcotest.failf "expected 1 ledger record, found %d" (List.length rs)

let test_tracing_observation_only =
  QCheck.Test.make ~count:2
    ~name:"serve: tracing is observation-only (jobs 1 and 4)"
    QCheck.(int_bound 1000)
    (fun seed_i ->
      let seed = Int64.of_int seed_i in
      List.for_all
        (fun jobs ->
          let d_plain, r_plain = serve_once ~jobs ~seed ~traced:false in
          let d_traced, r_traced = serve_once ~jobs ~seed ~traced:true in
          d_plain = d_traced && Ledger.diff r_plain r_traced = Ledger.Identical)
        [ 1; 4 ])

(* An oversized traced request is poisoned and discarded: error reply,
   connection alive, and the daemon's span buffer records only the jobs
   that actually ran. *)
let test_traced_oversized_request () =
  let dir = temp_dir () in
  let tracer = Span.collector ~seed:5L () in
  let trace = Span.fresh_id tracer in
  let croot = Span.fresh_id tracer in
  with_daemon ~jobs:1 ~tracer ~max_line_bytes:2048 dir (fun fd ->
      (* a traced submit inflated past the line budget *)
      let fat =
        submit_json
          ~trace:{ Request.trace_id = trace; parent_span = Some croot }
          ~mixes:(List.init 400 (fun i -> Printf.sprintf "M%04d" i))
          ~seed:42L ~tag:"fat" ()
      in
      Alcotest.(check bool) "request really over budget" true
        (String.length (J.to_string fat) > 2048);
      send_line fd fat;
      let err, _ = read_until fd (fun d -> member_str "error" d) in
      Alcotest.(check bool) "oversized line rejected" true
        (String.length err > 0);
      (* same connection, same trace ids: a well-sized retry succeeds *)
      send_line fd
        (submit_json
           ~trace:{ Request.trace_id = trace; parent_span = Some croot }
           ~seed:42L ~tag:"retry" ());
      let d, _ = read_until fd done_reply in
      Alcotest.(check (option string))
        "retry traced under the same trace"
        (Some (Span.id_to_hex trace))
        (member_str "trace" d));
  (* the daemon's buffer holds exactly the retry job's spans — nothing
     leaked in from the poisoned line *)
  let spans = Span.spans tracer in
  Alcotest.(check bool) "span buffer non-empty" true (List.length spans > 0);
  Alcotest.(check bool) "only the surviving trace recorded" true
    (List.for_all (fun s -> s.Span.trace = trace) spans);
  match List.filter (fun s -> s.Span.kind = Span.Submit) spans with
  | [ root ] ->
    Alcotest.(check bool) "single root, client-parented" true
      (root.Span.parent = Some croot)
  | rs -> Alcotest.failf "expected one submit root, found %d" (List.length rs)

(* --- daemon instances ---------------------------------------------------- *)

let spawn_daemon ~socket ~runs_dir =
  Domain.spawn (fun () ->
      Server.run
        { Server.default_config with socket_path = Some socket; runs_dir })

let reply kind d = if member_str "reply" d = Some kind then Some d else None

let request fd req kind =
  send_line fd (Request.to_json req);
  fst (read_until fd (reply kind))

let shutdown_daemon socket server =
  let fd = connect socket in
  ignore (request fd Request.Shutdown "shutting_down");
  Unix.close fd;
  Domain.join server

let submits_counter socket =
  let fd = connect socket in
  let s = request fd Request.Stats "stats" in
  Unix.close fd;
  Option.bind (J.member "counters" s) (member_num "service.submits")

(* Counters belong to one run: a daemon started later in the same
   process begins at zero and leaves the first daemon's numbers alone. *)
(* The event contract holds for a serve job: a job mixing cached and
   cold cells streams [sweep_started] first, one [cell_finished] per
   cell with [completed] 1..total, every cached cell marked
   ["cached": true] with 0 attempts, and a numeric ETA once a cold cell
   has finished. *)
let test_daemon_mixed_job_events () =
  let dir = temp_dir () in
  let schemes = [ "C4"; "1S"; "2SS" ] in
  let lines =
    with_daemon ~jobs:1 dir (fun fd ->
        send_line fd (submit_json ~seed:42L ~tag:"warm-up" ());
        let _ = read_until fd done_reply in
        send_line fd (submit_json ~schemes ~seed:42L ~tag:"mixed" ());
        let d, lines = read_until fd done_reply in
        Alcotest.(check (option (float 0.0))) "one cell cached" (Some 1.0)
          (member_num "cached" d);
        Alcotest.(check (option (float 0.0))) "two cells simulated" (Some 2.0)
          (member_num "simulated" d);
        lines)
  in
  let events =
    List.filter_map
      (fun d -> Option.map (fun ev -> (ev, d)) (member_str "ev" d))
      lines
  in
  (match events with
  | ("sweep_started", _) :: _ -> ()
  | _ -> Alcotest.fail "sweep_started is not the job's first event");
  let finished =
    List.filter_map
      (fun (ev, d) -> if ev = "cell_finished" then Some d else None)
      events
  in
  Alcotest.(check (list (float 0.0))) "completed counts 1..total" [ 1.0; 2.0; 3.0 ]
    (List.filter_map (member_num "completed") finished);
  Alcotest.(check (list string)) "one cell_finished per cell" [ "1S"; "2SS"; "C4" ]
    (List.sort compare (List.filter_map (member_str "scheme") finished));
  List.iter
    (fun d ->
      let cached = J.member "cached" d = Some (J.Bool true) in
      Alcotest.(check bool) "only C4 was cached"
        (member_str "scheme" d = Some "C4")
        cached;
      Alcotest.(check (option (float 0.0)))
        "a cached cell took 0 attempts, a cold one 1"
        (Some (if cached then 0.0 else 1.0))
        (member_num "attempts" d))
    finished;
  Alcotest.(check bool) "the last cell carries a numeric ETA" true
    (member_num "eta_s" (List.nth finished 2) <> None)

let test_daemon_counters_per_instance () =
  let dir = temp_dir () in
  let sock_a = Filename.concat dir "a.sock" in
  let sock_b = Filename.concat dir "b.sock" in
  let a = spawn_daemon ~socket:sock_a ~runs_dir:(Filename.concat dir "runs_a") in
  let fd = connect sock_a in
  send_line fd (submit_json ~seed:5L ~tag:"a" ());
  ignore (read_until fd done_reply);
  Unix.close fd;
  let b = spawn_daemon ~socket:sock_b ~runs_dir:(Filename.concat dir "runs_b") in
  let fd = connect sock_b in
  ignore (request fd Request.Ping "pong");
  Unix.close fd;
  Alcotest.(check (option (float 0.0))) "A keeps its submit" (Some 1.0)
    (submits_counter sock_a);
  Alcotest.(check (option (float 0.0))) "B starts from zero" (Some 0.0)
    (submits_counter sock_b);
  shutdown_daemon sock_a a;
  shutdown_daemon sock_b b

(* A second daemon on a live socket path fails to start instead of
   taking the path; the first keeps serving and still cleans up. *)
let test_daemon_keeps_live_socket () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "svc.sock" in
  let a = spawn_daemon ~socket ~runs_dir:(Filename.concat dir "runs_a") in
  let fd = connect socket in
  ignore (request fd Request.Ping "pong");
  Unix.close fd;
  (match
     Server.run
       {
         Server.default_config with
         socket_path = Some socket;
         runs_dir = Filename.concat dir "runs_b";
       }
   with
  | () -> Alcotest.fail "second daemon started on a live socket path"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  let fd = connect socket in
  ignore (request fd Request.Ping "pong");
  Unix.close fd;
  shutdown_daemon socket a;
  Alcotest.(check bool) "socket unlinked at shutdown" false (Sys.file_exists socket)

let suite =
  ( "service",
    [
      Alcotest.test_case "ndjson: chunk reassembly" `Quick test_ndjson_reassembly;
      Alcotest.test_case "ndjson: malformed lines" `Quick test_ndjson_malformed;
      Alcotest.test_case "ndjson: oversized lines" `Quick test_ndjson_oversized;
      Alcotest.test_case "ndjson: truncated stream" `Quick test_ndjson_truncated;
      Alcotest.test_case "request: defaults and rejects" `Quick test_request_defaults;
      QCheck_alcotest.to_alcotest test_request_roundtrip;
      Alcotest.test_case "scheduler: priority + FIFO" `Quick test_scheduler_priority_fifo;
      Alcotest.test_case "scheduler: backfilling" `Quick test_scheduler_backfill;
      Alcotest.test_case "scheduler: edge cases" `Quick test_scheduler_edges;
      Alcotest.test_case "cache: key dimensions" `Quick test_cache_keys;
      Alcotest.test_case "cache: ingestion policy" `Quick test_cache_ingestion_policy;
      Alcotest.test_case "cache: ledger preload" `Quick test_cache_preload;
      Alcotest.test_case "ledger: gc + id assignment" `Quick test_ledger_gc;
      Alcotest.test_case "prepared rows bit-identical to sweep" `Quick
        test_simulate_prepared_bit_identity;
      Alcotest.test_case "daemon: cold/warm end-to-end" `Quick
        test_daemon_end_to_end;
      Alcotest.test_case "daemon: traced submit round-trip" `Quick
        test_daemon_traced_submit;
      QCheck_alcotest.to_alcotest test_tracing_observation_only;
      Alcotest.test_case "daemon: a cold job simulates each class once" `Quick
        test_daemon_shares_classes;
      Alcotest.test_case "daemon: oversized traced request poisoned" `Quick
        test_traced_oversized_request;
      Alcotest.test_case "daemon: a mixed job reports every cell" `Quick
        test_daemon_mixed_job_events;
      Alcotest.test_case "daemon: counters are per instance" `Quick
        test_daemon_counters_per_instance;
      Alcotest.test_case "daemon: a live socket path is not taken" `Quick
        test_daemon_keeps_live_socket;
    ] )
