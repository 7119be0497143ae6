(* The distributed sweep: the pure shard planner (union == grid, no
   overlap, for arbitrary shapes — the paper-scale correctness
   obligation), the wire codec's bit-exact float round-trip, the worker
   loop over a real socketpair, and the coordinator end-to-end with
   attached in-process workers — including the acceptance property that
   a distributed sweep at any shard size and worker count, with and
   without an injected worker death, merges a grid bit-identical to a
   single-process run. Plus the ledger merge dedup regression and the
   replicate confidence-interval math. *)

module J = Vliw_util.Json
module Ndjson = Vliw_util.Ndjson
module Plan = Vliw_dist.Plan
module Protocol = Vliw_dist.Protocol
module Worker = Vliw_dist.Worker
module Coordinator = Vliw_dist.Coordinator
module Ledger = Vliw_telemetry.Ledger
module Span = Vliw_telemetry.Span
module E = Vliw_experiments

let all_mixes = Vliw_workloads.Mixes.names
let all_schemes = List.map (fun (e : Vliw_merge.Catalog.entry) -> e.name) Vliw_merge.Catalog.all

(* --- shard planner ----------------------------------------------------- *)

(* Satellite: the planner property. The multiset union of every shard's
   cells must equal seeds x mixes x schemes exactly — nothing dropped,
   nothing duplicated — for any grid shape, worker count and shard
   size. Pure, no processes. *)
let test_plan_partition =
  QCheck.Test.make ~name:"plan: shards partition the grid exactly" ~count:300
    QCheck.(
      quad
        (int_range 1 9 (* mixes *))
        (int_range 1 16 (* schemes *))
        (int_range 1 8 (* workers *))
        (pair (int_range 0 2 (* seeds - 1, 0 allowed via list *)) (option (int_range 1 50))))
    (fun (n_mixes, n_schemes, workers, (n_seeds, shard_size)) ->
      let mix_names = List.filteri (fun i _ -> i < n_mixes) all_mixes in
      let scheme_names = List.filteri (fun i _ -> i < n_schemes) all_schemes in
      let seeds = List.init n_seeds (fun i -> Int64.of_int (i * 7919)) in
      let shards =
        Plan.make ?shard_size ~workers ~seeds ~mix_names ~scheme_names ()
      in
      (* every shard id dense and in order *)
      List.iteri
        (fun i (s : Plan.shard) ->
          if s.shard_id <> i then QCheck.Test.fail_reportf "non-dense id %d at %d" s.shard_id i;
          if s.cells = [] then QCheck.Test.fail_reportf "empty shard %d" i)
        shards;
      (* per seed: concatenating its shards' cells reproduces the
         mix-major grid exactly (order included) *)
      let grid = Plan.cells_of_grid ~mix_names ~scheme_names in
      List.for_all
        (fun seed ->
          let mine =
            List.concat_map
              (fun (s : Plan.shard) -> if s.seed = seed then s.cells else [])
              shards
          in
          mine = grid)
        seeds
      && Plan.total_cells shards = List.length seeds * List.length grid)

let test_plan_edges () =
  Alcotest.(check int) "empty grid plans as []" 0
    (List.length
       (Plan.make ~workers:3 ~seeds:[] ~mix_names:all_mixes
          ~scheme_names:all_schemes ()));
  Alcotest.(check int) "no schemes plans as []" 0
    (List.length
       (Plan.make ~workers:3 ~seeds:[ 1L ] ~mix_names:all_mixes
          ~scheme_names:[] ()));
  Alcotest.check_raises "workers < 1 rejected"
    (Invalid_argument "Plan.make: workers < 1") (fun () ->
      ignore
        (Plan.make ~workers:0 ~seeds:[ 1L ] ~mix_names:[ "LLHH" ]
           ~scheme_names:[ "C4" ] ()));
  Alcotest.check_raises "shard_size < 1 rejected"
    (Invalid_argument "Plan.make: shard_size < 1") (fun () ->
      ignore
        (Plan.make ~shard_size:0 ~workers:1 ~seeds:[ 1L ]
           ~mix_names:[ "LLHH" ] ~scheme_names:[ "C4" ] ()));
  (* default size: clamped to [1 .. cells], ~4 shards per worker *)
  Alcotest.(check int) "default size floors at 1" 1
    (Plan.default_shard_size ~workers:64 ~cells_per_seed:9);
  Alcotest.(check int) "default size caps at the grid" 1
    (Plan.default_shard_size ~workers:1 ~cells_per_seed:1);
  Alcotest.(check int) "144 cells / 2 workers -> 18-cell shards" 18
    (Plan.default_shard_size ~workers:2 ~cells_per_seed:144)

(* --- wire protocol ----------------------------------------------------- *)

let cell_spec_gen =
  QCheck.Gen.(
    map2
      (fun m s -> { Plan.mix = m; scheme = s })
      (oneofl all_mixes) (oneofl all_schemes))

let trace_gen =
  QCheck.Gen.(
    option
      (map2
         (fun t p -> { Protocol.t_trace = t; t_parent = p })
         ui64 (option ui64)))

let span_gen =
  QCheck.Gen.(
    let* trace = ui64 in
    let* id = ui64 in
    let* parent = option ui64 in
    let* kind = oneofl Span.all_kinds in
    let* name = string_size (int_bound 12) in
    let* lane = string_size (int_bound 8) in
    (* arbitrary bit patterns: the wire is a bit image, nan included *)
    let* start_bits = ui64 in
    let* dur_bits = ui64 in
    return
      {
        Span.trace;
        id;
        parent;
        kind;
        name;
        lane;
        start_s = Int64.float_of_bits start_bits;
        dur_s = Int64.float_of_bits dur_bits;
      })

let to_worker_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Protocol.Quit);
        ( 4,
          map3
            (fun (shard, trace) seed cells ->
              Protocol.Assign
                {
                  a_shard = shard;
                  a_scale = "quick";
                  a_seed = seed;
                  a_cells = cells;
                  a_trace = trace;
                })
            (pair (int_bound 10_000) trace_gen)
            (map Int64.of_int (int_bound 1_000_000))
            (list_size (int_range 1 10) cell_spec_gen) );
      ])

let from_worker_gen =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun pid -> Protocol.Ready { pid }) (int_bound 100_000));
        (1, return Protocol.Query_stats);
        ( 1,
          map2
            (fun d spans ->
              Protocol.Shard_done { d_shard = d; d_spans = spans })
            (int_bound 10_000)
            (list_size (int_bound 4) span_gen) );
        ( 4,
          map3
            (fun shard (mix, scheme) (ipc, err) ->
              Protocol.Cell
                {
                  c_shard = shard;
                  c_result =
                    {
                      r_mix = mix.Plan.mix;
                      r_scheme = scheme;
                      r_ipc = (if err <> None then Float.nan else ipc);
                      (* finite: a nan elapsed has no JSON number image *)
                      r_elapsed_s =
                        (if Float.is_finite ipc then Float.abs ipc *. 0.25
                         else 0.125);
                      r_error = err;
                    };
                })
            (int_bound 10_000)
            (pair cell_spec_gen (oneofl all_schemes))
            (pair (map (fun b -> Int64.float_of_bits (Int64.of_int b)) int)
               (option (string_size (int_range 0 40)))) );
      ])

(* Bit-exactness is the point: compare floats by their bit images, so
   nan round-trips and -0.0 /= 0.0. *)
let to_worker_eq a b =
  match (a, b) with
  | Protocol.Quit, Protocol.Quit -> true
  | Protocol.Assign x, Protocol.Assign y ->
    x.a_shard = y.a_shard && x.a_scale = y.a_scale && x.a_seed = y.a_seed
    && x.a_cells = y.a_cells && x.a_trace = y.a_trace
  | _ -> false

let span_eq (a : Span.t) (b : Span.t) =
  a.trace = b.trace && a.id = b.id && a.parent = b.parent && a.kind = b.kind
  && a.name = b.name && a.lane = b.lane
  && Int64.bits_of_float a.start_s = Int64.bits_of_float b.start_s
  && Int64.bits_of_float a.dur_s = Int64.bits_of_float b.dur_s

let from_worker_eq a b =
  match (a, b) with
  | Protocol.Ready { pid = a }, Protocol.Ready { pid = b } -> a = b
  | Protocol.Query_stats, Protocol.Query_stats -> true
  | Protocol.Shard_done a, Protocol.Shard_done b ->
    a.d_shard = b.d_shard
    && List.length a.d_spans = List.length b.d_spans
    && List.for_all2 span_eq a.d_spans b.d_spans
  | Protocol.Cell x, Protocol.Cell y ->
    x.c_shard = y.c_shard
    && x.c_result.r_mix = y.c_result.r_mix
    && x.c_result.r_scheme = y.c_result.r_scheme
    && Int64.bits_of_float x.c_result.r_ipc
       = Int64.bits_of_float y.c_result.r_ipc
    && Int64.bits_of_float x.c_result.r_elapsed_s
       = Int64.bits_of_float y.c_result.r_elapsed_s
    && x.c_result.r_error = y.c_result.r_error
  | _ -> false

let test_protocol_roundtrip =
  QCheck.Test.make ~name:"protocol: NDJSON round-trip is bit-exact" ~count:500
    (QCheck.make (QCheck.Gen.pair to_worker_gen from_worker_gen))
    (fun (tw, fw) ->
      let tw' =
        match Protocol.to_worker_of_json (Protocol.to_worker_to_json tw) with
        | Ok v -> v
        | Error e -> QCheck.Test.fail_reportf "to_worker decode: %s" e
      in
      let fw' =
        match Protocol.from_worker_of_json (Protocol.from_worker_to_json fw) with
        | Ok v -> v
        | Error e -> QCheck.Test.fail_reportf "from_worker decode: %s" e
      in
      to_worker_eq tw tw' && from_worker_eq fw fw')

let test_protocol_rejects () =
  let reject label json decode =
    match decode json with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed message accepted" label
  in
  reject "unknown op" (J.Obj [ ("op", J.Str "explode") ])
    Protocol.to_worker_of_json;
  reject "assign without cells"
    (J.Obj [ ("op", J.Str "assign"); ("shard", J.Num 1.0) ])
    Protocol.to_worker_of_json;
  reject "bad seed image"
    (J.Obj
       [
         ("op", J.Str "assign"); ("shard", J.Num 1.0);
         ("scale", J.Str "quick"); ("seed", J.Str "zz");
         ("cells", J.List []);
       ])
    Protocol.to_worker_of_json;
  reject "unknown event" (J.Obj [ ("ev", J.Str "warp") ])
    Protocol.from_worker_of_json;
  reject "cell without bits"
    (J.Obj
       [
         ("ev", J.Str "cell"); ("shard", J.Num 0.0); ("mix", J.Str "LLHH");
         ("scheme", J.Str "C4"); ("t", J.Num 0.1);
       ])
    Protocol.from_worker_of_json;
  reject "non-object" (J.Str "hello") Protocol.from_worker_of_json

(* --- worker loop over a real transport --------------------------------- *)

let send_line fd doc =
  let line = Ndjson.line doc in
  let rec push off =
    if off < String.length line then
      push (off + Unix.write_substring fd line off (String.length line - off))
  in
  push 0

let read_messages fd stop =
  let reader = Ndjson.reader () in
  let buf = Bytes.create 4096 in
  let rec loop acc =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> List.rev acc
    | n ->
      let msgs =
        List.map
          (function
            | Ok d -> (
              match Protocol.from_worker_of_json d with
              | Ok m -> m
              | Error e -> Alcotest.failf "bad worker message: %s" e)
            | Error e ->
              Alcotest.failf "bad worker line: %s" (Ndjson.error_message e))
          (Ndjson.feed reader ~len:n (Bytes.unsafe_to_string buf))
      in
      let acc = List.rev_append msgs acc in
      if stop (List.rev acc) then List.rev acc else loop acc
  in
  loop []

(* A coordinator that hangs up before the worker writes (here before
   its Ready greeting; in a sweep, before a trailing Shard_done) ends
   the worker process cleanly instead of killing it with SIGPIPE. *)
let test_worker_hangup_exit () =
  let ours, theirs =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let exe = Test_cli.vliwsim in
  let pid =
    Unix.create_process exe [| exe; "worker"; "--quiet" |] theirs theirs
      Unix.stderr
  in
  Unix.close theirs;
  Unix.close ours;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "worker exits 0" true (status = Unix.WEXITED 0)

let test_worker_serve () =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let worker =
    Domain.spawn (fun () -> Worker.serve ~input:theirs ~output:theirs ())
  in
  let mixes = [ "LLHH"; "MMHH" ] and schemes = [ "C4"; "2SS" ] in
  let cells =
    List.concat_map
      (fun mix -> List.map (fun scheme -> { Plan.mix; scheme }) schemes)
      mixes
  in
  send_line ours
    (Protocol.to_worker_to_json
       (Protocol.Assign
          { a_shard = 7; a_scale = "quick"; a_seed = 42L; a_cells = cells; a_trace = None }));
  let msgs =
    read_messages ours (fun ms ->
        List.exists (function Protocol.Shard_done _ -> true | _ -> false) ms)
  in
  send_line ours (Protocol.to_worker_to_json Protocol.Quit);
  Domain.join worker;
  Unix.close ours;
  Unix.close theirs;
  (match msgs with
  | Protocol.Ready _ :: _ -> ()
  | _ -> Alcotest.fail "worker did not greet with ready");
  (match List.rev msgs with
  | Protocol.Shard_done { d_shard = 7; _ } :: _ -> ()
  | _ -> Alcotest.fail "worker did not complete shard 7");
  let results =
    List.filter_map
      (function
        | Protocol.Cell { c_shard = 7; c_result } -> Some c_result
        | Protocol.Cell { c_shard; _ } ->
          Alcotest.failf "result for unassigned shard %d" c_shard
        | _ -> None)
      msgs
  in
  Alcotest.(check int) "one result per cell" (List.length cells)
    (List.length results);
  (* every streamed IPC is bit-identical to the in-process sweep *)
  let _, _, local =
    E.Sweep.run_cells ~scale:E.Common.Quick ~seed:42L ~scheme_names:schemes
      ~mix_names:mixes ()
  in
  List.iter
    (fun (r : Protocol.cell_result) ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s/%s simulated clean" r.r_mix r.r_scheme)
        None r.r_error;
      let reference =
        match
          Array.find_opt
            (fun (c : E.Sweep.cell) ->
              c.mix = r.r_mix && c.scheme = r.r_scheme)
            local
        with
        | Some c -> c.ipc
        | None -> Alcotest.failf "no local cell for %s/%s" r.r_mix r.r_scheme
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s bit-identical" r.r_mix r.r_scheme)
        true
        (Int64.bits_of_float r.r_ipc = Int64.bits_of_float reference))
    results

let test_worker_bad_cell () =
  (* unknown mix/scheme names come back as error results, the worker
     survives and still finishes the shard *)
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let worker =
    Domain.spawn (fun () -> Worker.serve ~input:theirs ~output:theirs ())
  in
  send_line ours
    (Protocol.to_worker_to_json
       (Protocol.Assign
          {
            a_shard = 0;
            a_scale = "quick";
            a_seed = 1L;
            a_cells =
              [
                { Plan.mix = "NOPE"; scheme = "C4" };
                { Plan.mix = "LLHH"; scheme = "C4" };
              ];
            a_trace = None;
          }));
  let msgs =
    read_messages ours (fun ms ->
        List.exists (function Protocol.Shard_done _ -> true | _ -> false) ms)
  in
  send_line ours (Protocol.to_worker_to_json Protocol.Quit);
  Domain.join worker;
  Unix.close ours;
  Unix.close theirs;
  let errs, oks =
    List.partition
      (fun (r : Protocol.cell_result) -> r.r_error <> None)
      (List.filter_map
         (function Protocol.Cell { c_result; _ } -> Some c_result | _ -> None)
         msgs)
  in
  Alcotest.(check int) "bad cell errored" 1 (List.length errs);
  Alcotest.(check int) "good cell survived" 1 (List.length oks);
  Alcotest.(check bool) "error ipc is nan" true
    (Float.is_nan (List.hd errs).r_ipc)

(* --- coordinator end-to-end -------------------------------------------- *)

(* An attached in-process worker: one end of a socketpair given to the
   coordinator, the other served by a worker Domain. [die_after] makes
   the worker crash mid-shard, transport closed without a shard-done —
   exactly what a killed process looks like to the coordinator. *)
let attached_worker ?die_after () =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let domain =
    Domain.spawn (fun () ->
        (try Worker.serve ?die_after_cells:die_after ~input:theirs
               ~output:theirs ()
         with Worker.Killed -> ());
        try Unix.close theirs with Unix.Unix_error _ -> ())
  in
  (ours, domain)

let run_distributed ?(workers = 2) ?die_after ?shard_size ?checkpoint
    ?(resume = false) ?on_event ?seeds ~mix_names ~scheme_names ~seed () =
  let fleet =
    List.init workers (fun i ->
        attached_worker ?die_after:(if i = 0 then die_after else None) ())
  in
  let join () = List.iter (fun (_, d) -> Domain.join d) fleet in
  match
    Coordinator.run ~scale:E.Common.Quick ~seed ?seeds ~scheme_names ~mix_names
      {
        Coordinator.default_config with
        attached = List.map fst fleet;
        shard_size;
        checkpoint;
        resume;
        on_event;
      }
  with
  | result ->
    (* orderly shutdown already sent quit and closed our ends *)
    join ();
    result
  | exception e ->
    (* unblock workers still parked in read before joining them *)
    List.iter
      (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
      fleet;
    join ();
    raise e

let check_grid_bit_identity ~seed ~mix_names ~scheme_names
    (cells : E.Sweep.cell array) =
  let _, _, local =
    E.Sweep.run_cells ~scale:E.Common.Quick ~seed ~scheme_names ~mix_names ()
  in
  Alcotest.(check int) "cell count" (Array.length local) (Array.length cells);
  Array.iteri
    (fun i (c : E.Sweep.cell) ->
      let l = local.(i) in
      Alcotest.(check string) "mix order" l.mix c.mix;
      Alcotest.(check string) "scheme order" l.scheme c.scheme;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s bit-identical" c.mix c.scheme)
        true
        (Int64.bits_of_float c.ipc = Int64.bits_of_float l.ipc))
    cells

(* The acceptance property: distributed == local for arbitrary grid
   shapes, worker counts and shard sizes. Few iterations — each spawns
   real worker domains — but every dimension varies. *)
let test_coordinator_bit_identity =
  QCheck.Test.make ~name:"coordinator: distributed == local (any shape)"
    ~count:5
    QCheck.(
      quad (int_range 1 3) (int_range 1 4) (int_range 1 3) (int_range 1 5))
    (fun (n_mixes, n_schemes, workers, shard_size) ->
      (* shrinking can push int_range values below their lower bound;
         clamp so a shrunk counterexample still exercises the property *)
      let n_mixes = max 1 n_mixes and n_schemes = max 1 n_schemes in
      let workers = max 1 workers and shard_size = max 1 shard_size in
      let mix_names = List.filteri (fun i _ -> i < n_mixes) all_mixes in
      let scheme_names =
        List.filteri (fun i _ -> i < n_schemes) all_schemes
      in
      let result =
        run_distributed ~workers ~shard_size ~mix_names ~scheme_names
          ~seed:42L ()
      in
      (match result.Coordinator.d_grids with
      | [ (42L, cells) ] ->
        check_grid_bit_identity ~seed:42L ~mix_names ~scheme_names cells
      | _ -> Alcotest.fail "expected one grid for seed 42");
      result.d_stats.cells_simulated = n_mixes * n_schemes)

let test_coordinator_worker_death () =
  (* worker 0 dies one cell into its two-cell shard — the stranded cell
     re-queues to the survivor and the merged grid is still
     bit-identical. (Dying on a shard boundary would strand nothing.) *)
  let mix_names = [ "LLHH"; "MMHH"; "LLLL" ] and scheme_names = [ "C4"; "1S" ] in
  let result =
    run_distributed ~workers:2 ~die_after:1 ~shard_size:2 ~mix_names
      ~scheme_names ~seed:7L ()
  in
  (match result.Coordinator.d_grids with
  | [ (7L, cells) ] ->
    check_grid_bit_identity ~seed:7L ~mix_names ~scheme_names cells
  | _ -> Alcotest.fail "expected one grid for seed 7");
  Alcotest.(check bool) "a worker death was observed" true
    (result.d_stats.workers_died >= 1);
  Alcotest.(check bool) "stranded cells were re-queued" true
    (result.d_stats.shards_requeued >= 1);
  Alcotest.(check int) "no cell degraded" 0 result.d_stats.cells_degraded

let test_coordinator_replicates () =
  (* multi-seed: one grid per seed, each bit-identical to its local run *)
  let mix_names = [ "LLHH" ] and scheme_names = [ "C4"; "2SS"; "1S" ] in
  let seeds = [ 5L; 6L ] in
  let result =
    run_distributed ~workers:2 ~seeds ~mix_names ~scheme_names ~seed:5L ()
  in
  Alcotest.(check int) "one grid per seed" 2
    (List.length result.Coordinator.d_grids);
  List.iter
    (fun seed ->
      match List.assoc_opt seed result.d_grids with
      | Some cells ->
        check_grid_bit_identity ~seed ~mix_names ~scheme_names cells
      | None -> Alcotest.failf "no grid for seed %Ld" seed)
    seeds

let test_coordinator_checkpoint_resume () =
  let dir = Filename.temp_file "vliw-dist" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let ckpt = Filename.concat dir "journal.json" in
  let mix_names = [ "LLHH" ] and scheme_names = [ "C4"; "1S" ] in
  let r1 =
    run_distributed ~workers:1 ~checkpoint:ckpt ~mix_names ~scheme_names
      ~seed:9L ()
  in
  Alcotest.(check int) "first run simulates everything" 2
    r1.Coordinator.d_stats.cells_simulated;
  let r2 =
    run_distributed ~workers:1 ~checkpoint:ckpt ~resume:true ~mix_names
      ~scheme_names ~seed:9L ()
  in
  Alcotest.(check int) "resume simulates nothing" 0
    r2.Coordinator.d_stats.cells_simulated;
  Alcotest.(check int) "resume restores every cell" 2
    r2.d_stats.cells_restored;
  (match (r1.d_grids, r2.d_grids) with
  | [ (_, a) ], [ (_, b) ] ->
    Array.iteri
      (fun i (ca : E.Sweep.cell) ->
        Alcotest.(check bool) "restored cell bit-identical" true
          (Int64.bits_of_float ca.ipc = Int64.bits_of_float b.(i).ipc))
      a
  | _ -> Alcotest.fail "expected one grid each");
  Sys.remove ckpt;
  Unix.rmdir dir

let temp_journal () =
  let dir = Filename.temp_file "vliw-dist" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  (Filename.concat dir "journal", fun () ->
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir)

(* The event contract holds for a dist resume: a journal missing one
   cell resumes with [Sweep_started] first, then one [Cell_finished]
   per cell, the restored one included, [completed] counting
   1..total. *)
let test_coordinator_resume_events () =
  let ckpt, cleanup = temp_journal () in
  let mix_names = [ "LLHH" ] and scheme_names = [ "C4"; "1S" ] in
  ignore
    (run_distributed ~workers:1 ~checkpoint:ckpt ~mix_names ~scheme_names
       ~seed:9L ());
  let lines = In_channel.with_open_text ckpt In_channel.input_lines in
  Out_channel.with_open_text ckpt (fun oc ->
      List.iter
        (fun l ->
          let dropped =
            String.starts_with ~prefix:"cell " l
            && List.mem "scheme=1S" (String.split_on_char ' ' l)
          in
          if not dropped then output_string oc (l ^ "\n"))
        lines);
  let events = ref [] in
  let r =
    run_distributed ~workers:1 ~checkpoint:ckpt ~resume:true
      ~on_event:(fun ev -> events := ev :: !events)
      ~mix_names ~scheme_names ~seed:9L ()
  in
  let events = List.rev !events in
  Alcotest.(check int) "one cell restored" 1 r.Coordinator.d_stats.cells_restored;
  Alcotest.(check int) "one cell simulated" 1 r.d_stats.cells_simulated;
  (match events with
  | E.Sweep.Sweep_started { total; _ } :: _ ->
    Alcotest.(check int) "started with the grid's total" 2 total
  | _ -> Alcotest.fail "Sweep_started is not the first event");
  let finished =
    List.filter_map
      (function
        | E.Sweep.Cell_finished { cell; completed; total; _ } ->
          Some (cell.mix ^ "/" ^ cell.scheme, cell.attempts, completed, total)
        | _ -> None)
      events
  in
  Alcotest.(check (list string)) "one Cell_finished per cell"
    [ "LLHH/1S"; "LLHH/C4" ]
    (List.sort compare (List.map (fun (k, _, _, _) -> k) finished));
  Alcotest.(check (list int)) "completed counts 1..total" [ 1; 2 ]
    (List.map (fun (_, _, c, _) -> c) finished);
  Alcotest.(check (list int)) "the restored cell reports 0 attempts" [ 0; 1 ]
    (List.sort compare (List.map (fun (_, a, _, _) -> a) finished));
  cleanup ()

(* Local and dist journals interchange: each resumes in the other
   executor without a simulation, bit-identically. *)
let test_journal_interchange () =
  let mix_names = [ "LLHH"; "MMMM" ] and scheme_names = [ "C4"; "3CCC"; "1S" ] in
  let bits (cells : E.Sweep.cell array) =
    Array.to_list
      (Array.map (fun (c : E.Sweep.cell) -> Int64.bits_of_float c.ipc) cells)
  in
  let one_grid (r : Coordinator.result) =
    match r.d_grids with
    | [ (_, cells) ] -> cells
    | _ -> Alcotest.fail "expected one grid"
  in
  let local ?resume ckpt =
    let _, _, cells =
      E.Sweep.run_cells ~scale:E.Common.Quick ~seed:13L ~scheme_names ~mix_names
        ~checkpoint:ckpt ?resume ()
    in
    cells
  in
  (* local -> dist *)
  let ckpt, cleanup = temp_journal () in
  let reference = local ckpt in
  let r =
    run_distributed ~workers:1 ~checkpoint:ckpt ~resume:true ~mix_names
      ~scheme_names ~seed:13L ()
  in
  Alcotest.(check int) "dist resume simulates nothing" 0
    r.Coordinator.d_stats.cells_simulated;
  Alcotest.(check (list int64)) "dist resume bit-identical" (bits reference)
    (bits (one_grid r));
  cleanup ();
  (* dist -> local *)
  let ckpt, cleanup = temp_journal () in
  let r =
    run_distributed ~workers:1 ~checkpoint:ckpt ~mix_names ~scheme_names
      ~seed:13L ()
  in
  let resumed = local ~resume:true ckpt in
  Alcotest.(check (list int)) "local resume simulates nothing"
    (List.map (fun _ -> 0) (Array.to_list resumed))
    (Array.to_list (Array.map (fun (c : E.Sweep.cell) -> c.attempts) resumed));
  Alcotest.(check (list int64)) "local resume bit-identical" (bits (one_grid r))
    (bits resumed);
  Alcotest.(check (list int64)) "and equal to a fresh local run" (bits reference)
    (bits resumed);
  cleanup ()

let test_coordinator_no_transport () =
  Alcotest.check_raises "no transport fails fast"
    (Failure "dist: no worker transport configured") (fun () ->
      ignore
        (Coordinator.run ~scale:E.Common.Quick ~mix_names:[ "LLHH" ]
           ~scheme_names:[ "C4" ] Coordinator.default_config))

(* --- ledger merge ------------------------------------------------------ *)

let mk_run ?(label = "fig10") ?(seed = 42L) ?(ipc = 2.5) () =
  Ledger.make
    ~cells:
      [|
        {
          Ledger.mix = "LLHH";
          scheme = "C4";
          ipc;
          elapsed_s = 0.1;
          started_s = 0.0;
          worker = 0;
          attempts = 1;
          degraded = false;
        };
      |]
    ~cmd:"dist" ~label ~scale:"quick" ~seed ~jobs:1 ~scheme_names:[ "C4" ]
    ~mix_names:[ "LLHH" ] ~wall_s:0.1 ()

let temp_runs_dir () =
  let dir = Filename.temp_file "vliw-merge" "" in
  Sys.remove dir;
  dir

(* Satellite: merging per-worker ledgers must de-duplicate identical
   (fingerprint, grid-digest) records — same rule as gc — while records
   with equal fingerprints but different bits (drift evidence) always
   merge, and fresh target ids never collide. *)
let test_ledger_merge_dedup () =
  let target = temp_runs_dir () and src_a = temp_runs_dir () and src_b = temp_runs_dir () in
  ignore (Ledger.append ~dir:target (mk_run ()));
  (* src_a: an identical duplicate plus a different-seed record *)
  ignore (Ledger.append ~dir:src_a (mk_run ()));
  ignore (Ledger.append ~dir:src_a (mk_run ~seed:43L ()));
  (* src_b: same fingerprint as target but different grid bits (drift),
     plus a duplicate of src_a's different-seed record *)
  ignore (Ledger.append ~dir:src_b (mk_run ~ipc:9.9 ()));
  ignore (Ledger.append ~dir:src_b (mk_run ~seed:43L ()));
  let report = Ledger.merge ~dir:target ~from:[ src_a; src_b ] () in
  Alcotest.(check int) "two records merged" 2 (List.length report.Ledger.added);
  Alcotest.(check int) "two duplicates skipped" 2
    (List.length report.Ledger.skipped);
  let all = Ledger.load ~dir:target in
  Alcotest.(check int) "target holds three records" 3 (List.length all);
  let ids = List.map (fun (r : Ledger.run) -> r.id) all in
  Alcotest.(check (list string)) "fresh dense ids" [ "r1"; "r2"; "r3" ] ids;
  (* drift evidence survived: two records share a fingerprint with
     different digests *)
  let fps = List.map (fun (r : Ledger.run) -> r.fingerprint) all in
  Alcotest.(check bool) "drift record kept" true
    (List.length (List.sort_uniq compare fps) < List.length fps);
  (* merging again is a no-op *)
  let again = Ledger.merge ~dir:target ~from:[ src_a; src_b ] () in
  Alcotest.(check int) "re-merge adds nothing" 0 (List.length again.Ledger.added);
  (* dry run reports without writing *)
  let src_c = temp_runs_dir () in
  ignore (Ledger.append ~dir:src_c (mk_run ~seed:99L ()));
  let dry = Ledger.merge ~dry_run:true ~dir:target ~from:[ src_c ] () in
  Alcotest.(check int) "dry run would add one" 1 (List.length dry.Ledger.added);
  Alcotest.(check int) "dry run wrote nothing" 3
    (List.length (Ledger.load ~dir:target))

(* --- replicate statistics ---------------------------------------------- *)

let test_derive_seeds () =
  let a = E.Replicates.derive_seeds 100 and b = E.Replicates.derive_seeds 100 in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check int) "hundred seeds" 100 (List.length a);
  Alcotest.(check int) "all distinct" 100
    (List.length (List.sort_uniq compare a));
  let c = E.Replicates.derive_seeds ~seed:1L 100 in
  Alcotest.(check bool) "master seed matters" true (a <> c);
  (* prefix-stable: seed i does not depend on n *)
  let short = E.Replicates.derive_seeds 3 in
  Alcotest.(check bool) "prefix stable" true
    (short = List.filteri (fun i _ -> i < 3) a)

let test_cell_ci_math () =
  (* two replicates of a tiny grid; hand-check the CI arithmetic *)
  let mk seed v =
    let cells =
      [|
        {
          E.Sweep.mix = "LLHH";
          scheme = "C4";
          ipc = v;
          elapsed_s = 0.0;
          started_s = 0.0;
          worker = 0;
          attempts = 1;
          error = None;
          telemetry = None;
        };
      |]
    in
    (seed, E.Fig10.of_cells ~scheme_names:[ "C4" ] ~mix_names:[ "LLHH" ] cells)
  in
  let t = E.Replicates.cell_stats [ mk 1L 2.0; mk 2L 3.0 ] in
  (match t with
  | [ c ] ->
    Alcotest.(check (float 1e-9)) "mean" 2.5 c.E.Replicates.ci_mean;
    Alcotest.(check int) "n" 2 c.ci_n;
    let sd = c.ci_sd in
    Alcotest.(check (float 1e-9)) "half-width = 1.96 sd / sqrt 2"
      (1.96 *. sd /. sqrt 2.0)
      c.ci_half;
    Alcotest.(check bool) "sd positive" true (sd > 0.0)
  | cs -> Alcotest.failf "expected 1 cell, got %d" (List.length cs));
  (* a single replicate has zero-width intervals *)
  (match E.Replicates.cell_stats [ mk 1L 2.0 ] with
  | [ c ] ->
    Alcotest.(check (float 0.0)) "n=1 half-width is 0" 0.0 c.ci_half;
    Alcotest.(check int) "n=1" 1 c.ci_n
  | _ -> Alcotest.fail "expected 1 cell");
  (* degraded cells drop out of the count *)
  (match E.Replicates.cell_stats [ mk 1L 2.0; mk 2L Float.nan ] with
  | [ c ] -> Alcotest.(check int) "nan replicate skipped" 1 c.ci_n
  | _ -> Alcotest.fail "expected 1 cell");
  (* gauges: mean + ci95 per surviving cell, none for all-nan cells *)
  Alcotest.(check int) "two gauges per cell" 2
    (List.length (E.Replicates.cell_gauges t));
  Alcotest.(check int) "all-degraded cell exports no gauges" 0
    (List.length
       (E.Replicates.cell_gauges (E.Replicates.cell_stats [ mk 1L Float.nan ])))

(* The distributed half of the tracing acceptance contract: a traced
   2-worker run produces bit-identical grids to the untraced run (and to
   the local sweep), and the merged span forest — coordinator spans plus
   the workers' children shipped back over Shard_done — is well-nested. *)
let test_coordinator_traced_bit_identity () =
  let mix_names = [ "LLHH"; "MMMM" ] and scheme_names = [ "C4"; "1S" ] in
  let seed = 11L in
  let plain =
    run_distributed ~workers:2 ~mix_names ~scheme_names ~seed ()
  in
  let tracer = Span.collector ~seed:0xd157L () in
  let fleet = List.init 2 (fun _ -> attached_worker ()) in
  let traced =
    match
      Coordinator.run ~scale:E.Common.Quick ~seed ~scheme_names ~mix_names
        {
          Coordinator.default_config with
          attached = List.map fst fleet;
          tracer = Some tracer;
        }
    with
    | result ->
      List.iter (fun (_, d) -> Domain.join d) fleet;
      result
    | exception e ->
      List.iter
        (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
        fleet;
      List.iter (fun (_, d) -> Domain.join d) fleet;
      raise e
  in
  (match (plain.Coordinator.d_grids, traced.Coordinator.d_grids) with
  | [ (11L, a) ], [ (11L, b) ] ->
    check_grid_bit_identity ~seed ~mix_names ~scheme_names b;
    Alcotest.(check int) "same shape" (Array.length a) (Array.length b);
    Array.iteri
      (fun i (ca : E.Sweep.cell) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s traced == untraced" ca.mix ca.scheme)
          true
          (Int64.bits_of_float ca.ipc = Int64.bits_of_float b.(i).ipc))
      a
  | _ -> Alcotest.fail "expected one grid per run");
  let spans = Span.spans tracer in
  let kinds = List.map (fun s -> s.Span.kind) spans in
  Alcotest.(check bool) "submit root present" true (List.mem Span.Submit kinds);
  Alcotest.(check bool) "dispatch spans present" true
    (List.mem Span.Dispatch kinds);
  Alcotest.(check bool) "worker simulate spans merged back" true
    (List.mem Span.Simulate_cell kinds);
  Alcotest.(check bool) "worker lanes rewritten" true
    (List.exists
       (fun s ->
         s.Span.kind = Span.Simulate_cell
         && (s.Span.lane = "worker 0" || s.Span.lane = "worker 1"))
       spans);
  Alcotest.(check (list string)) "merged fleet forest well-nested" []
    (Span.validate ~slack_s:0.5 spans)

(* Whole-row shards share: a shard holding a full row runs each sharing
   class (C4/3CCC, 2SC3/3SCC) as one simulation, one [simulate_cell]
   span apiece, and the grid stays bit-identical to the local sweep. *)
let test_coordinator_whole_row_sharing () =
  let mix_names = [ "LLHH"; "MMMM" ]
  and scheme_names = [ "C4"; "3CCC"; "2SC3"; "3SCC"; "1S" ] in
  let seed = 5L in
  let tracer = Span.collector ~seed:0x5a4eL () in
  let fleet = List.init 2 (fun _ -> attached_worker ()) in
  let result =
    Fun.protect
      ~finally:(fun () -> List.iter (fun (_, d) -> Domain.join d) fleet)
      (fun () ->
        try
          Coordinator.run ~scale:E.Common.Quick ~seed ~scheme_names ~mix_names
            {
              Coordinator.default_config with
              attached = List.map fst fleet;
              shard_size = Some (List.length scheme_names);
              tracer = Some tracer;
            }
        with e ->
          List.iter
            (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
            fleet;
          raise e)
  in
  (match result.Coordinator.d_grids with
  | [ (5L, cells) ] -> check_grid_bit_identity ~seed ~mix_names ~scheme_names cells
  | _ -> Alcotest.fail "expected one grid for seed 5");
  Alcotest.(check int) "every cell reported simulated" 10
    result.d_stats.cells_simulated;
  let simulated =
    List.filter (fun s -> s.Span.kind = Span.Simulate_cell) (Span.spans tracer)
  in
  Alcotest.(check int) "one simulate_cell span per class (3 per row)" 6
    (List.length simulated);
  Alcotest.(check (list string)) "merged fleet forest well-nested" []
    (Span.validate ~slack_s:0.5 (Span.spans tracer))

(* `vliwsim dist` reports degraded cells the way `exp` does: named on
   stderr, exit status 1. The fleet is one listener peer that answers
   every assigned cell with an error. *)
let test_dist_cli_degraded () =
  let dir = Filename.temp_file "vliwdist" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let socket = Filename.concat dir "coord.sock"
  and err = Filename.concat dir "err.txt" in
  let exe = Test_cli.vliwsim in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe; "dist"; "--workers"; "0"; "--listen-socket"; socket; "--scale";
        "quick"; "--quiet"; "--no-ledger";
      |]
      devnull devnull err_fd
  in
  Unix.close err_fd;
  Unix.close devnull;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect n =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Unix.sleepf 0.05;
      connect (n - 1)
  in
  connect 200;
  send_line fd (Protocol.from_worker_to_json (Protocol.Ready { pid = 0 }));
  let conn = Vliw_util.Wire.conn fd in
  let answer = function
    | Ok doc -> (
      match Protocol.to_worker_of_json doc with
      | Ok (Protocol.Assign a) ->
        List.iter
          (fun (c : Plan.cell_spec) ->
            send_line fd
              (Protocol.from_worker_to_json
                 (Protocol.Cell
                    {
                      c_shard = a.a_shard;
                      c_result =
                        {
                          r_mix = c.mix;
                          r_scheme = c.scheme;
                          r_ipc = Float.nan;
                          r_elapsed_s = 0.0;
                          r_error = Some "broken worker";
                        };
                    })))
          a.a_cells;
        send_line fd
          (Protocol.from_worker_to_json
             (Protocol.Shard_done { d_shard = a.a_shard; d_spans = [] }));
        true
      | Ok Protocol.Quit | Error _ -> false)
    | Error _ -> false
  in
  let rec serve () =
    match Vliw_util.Wire.read conn with
    | Vliw_util.Wire.Lines lines -> if List.for_all answer lines then serve ()
    | Vliw_util.Wire.Eof _ | Vliw_util.Wire.Reset -> ()
  in
  (try serve () with Unix.Unix_error _ -> ());
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "dist exits 1 on degraded cells" true
    (status = Unix.WEXITED 1);
  let stderr_text = In_channel.with_open_bin err In_channel.input_all in
  let contains needle =
    let n = String.length stderr_text and m = String.length needle in
    let rec go i = i + m <= n && (String.sub stderr_text i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "exp's degraded warning on stderr" true
    (contains "warning: 144 sweep cell(s) degraded to n/a:");
  Alcotest.(check bool) "each cell named with its seed and error" true
    (contains
       (Printf.sprintf "LLHH/C4 seed 0x%Lx after 1 attempt(s): broken worker"
          (E.Sweep.row_seed ~seed:E.Common.default_seed "LLHH")))

let test_dist_counters_list () =
  let r = run_distributed ~workers:1 ~mix_names:[ "LLHH" ] ~scheme_names:[ "C4" ] ~seed:3L () in
  let counters = Coordinator.counters_list r.Coordinator.d_stats in
  Alcotest.(check bool) "all dist-prefixed" true
    (List.for_all (fun (k, _) -> String.length k > 5 && String.sub k 0 5 = "dist.") counters);
  Alcotest.(check bool) "sorted for OpenMetrics" true
    (List.sort compare counters = counters);
  Alcotest.(check (option int)) "simulated booked" (Some 1)
    (List.assoc_opt "dist.cells.simulated" counters);
  Alcotest.(check (option int)) "attached booked" (Some 1)
    (List.assoc_opt "dist.workers.attached" counters)

(* --- the dispatch core under a seeded fake fleet ------------------------ *)

module D = Vliw_dist.Dispatch

(* What the fake fleet answers for a cell: bits that depend only on the
   cell's key, as a real worker's do. *)
let fake_ipc seed (c : Plan.cell_spec) =
  0.5 +. (float_of_int (Hashtbl.hash (seed, c.mix, c.scheme) land 0xffff) /. 4096.0)

let death_error = "worker died repeatedly while simulating this cell"

type fake = {
  f_monitor : bool;  (* queries stats instead of greeting *)
  mutable f_ready : bool;
  mutable f_open : bool;
  mutable f_held : (int * int64 * Plan.cell_spec list) option;
      (* shard, seed, cells not reported yet *)
}

type sim = {
  core : D.t;
  cfg : D.config;
  rng : Random.State.t;
  mutable now : float;
  fleet : (int, fake) Hashtbl.t;
  mutable next_peer : int;
  mutable spawn_fails : bool;
  slot_of : (int64 * string * string, int) Hashtbl.t;
  finishes : int array;
  cells : E.Sweep.cell option array;
  retried : int array;
  deaths : int array;
  mutable past : (int * int64 * Plan.cell_spec) list;  (* every assigned cell *)
  mutable replying : int option;  (* the slot of the result being fed *)
  mutable degraded_events : E.Sweep.event list;
  tally : E.Sweep.Tally.t;
  completed : int list ref;  (* the tally's [completed], newest first *)
  mutable over : bool;
}

let fail fmt = QCheck.Test.fail_reportf fmt
let budget sim = sim.cfg.max_retries + 3
let slot sim seed (c : Plan.cell_spec) = Hashtbl.find sim.slot_of (seed, c.mix, c.scheme)
let fake sim p = Hashtbl.find sim.fleet p

let seed_of sim k =
  List.nth sim.cfg.seeds (k * List.length sim.cfg.seeds / Array.length sim.cells)

let open_peers sim =
  List.sort compare
    (Hashtbl.fold (fun p f acc -> if f.f_open then p :: acc else acc) sim.fleet [])

(* Feed one input and check each action against the fleet's view. *)
let rec feed sim input =
  List.iter (perform sim) (D.step sim.core ~now:sim.now input);
  Array.iteri
    (fun k d ->
      if d > budget sim && sim.cells.(k) = None then
        fail "slot %d re-queued after %d deaths (budget %d)" k d (budget sim))
    sim.deaths

and perform sim = function
  | D.Assign { peer; assign = a; _ } ->
    let f = fake sim peer in
    if not (f.f_open && f.f_ready && f.f_held = None) then
      fail "shard %d assigned to peer %d (open %b, ready %b, busy %b)" a.a_shard
        peer f.f_open f.f_ready (f.f_held <> None);
    f.f_held <- Some (a.a_shard, a.a_seed, a.a_cells);
    sim.past <- List.map (fun c -> (a.a_shard, a.a_seed, c)) a.a_cells @ sim.past
  | D.Reply_stats p -> if not (fake sim p).f_monitor then fail "stats reply to worker %d" p
  | D.Close (p, how) ->
    let f = fake sim p in
    if not f.f_open then fail "peer %d closed twice" p;
    (match (how, f.f_held) with
    | D.Kill _, Some (_, seed, cells) ->
      List.iter
        (fun c ->
          let k = slot sim seed c in
          if sim.cells.(k) = None then sim.deaths.(k) <- sim.deaths.(k) + 1)
        cells
    | _ -> ());
    f.f_open <- false;
    f.f_held <- None
  | D.Spawn ->
    if not (sim.spawn_fails && Random.State.int sim.rng 5 = 0) then
      join sim ~spawned:true ~monitor:false
  | D.Finish (k, cell) ->
    sim.finishes.(k) <- sim.finishes.(k) + 1;
    if sim.finishes.(k) > 1 then fail "slot %d finished twice" k;
    let seed = seed_of sim k in
    (match cell.error with
    | None ->
      if
        Int64.bits_of_float cell.ipc
        <> Int64.bits_of_float (fake_ipc seed { Plan.mix = cell.mix; scheme = cell.scheme })
      then fail "slot %d: ipc %h is not the fleet's" k cell.ipc
    | Some e when e = death_error ->
      if sim.deaths.(k) <= budget sim then
        fail "slot %d degraded after %d deaths (budget %d)" k sim.deaths.(k) (budget sim)
    | Some _ -> ());
    sim.cells.(k) <- Some cell;
    E.Sweep.Tally.finish sim.tally k cell
  | D.Event (E.Sweep.Cell_retried _) -> (
    match sim.replying with
    | Some k ->
      sim.retried.(k) <- sim.retried.(k) + 1;
      if sim.retried.(k) > sim.cfg.max_retries then
        fail "slot %d retried %d times (max %d)" k sim.retried.(k) sim.cfg.max_retries
    | None -> fail "a retry without a result")
  | D.Event (E.Sweep.Cell_degraded _ as ev) ->
    sim.degraded_events <- ev :: sim.degraded_events
  | D.Event _ -> fail "unexpected event"
  | D.Done -> sim.over <- true
  | D.Stuck -> fail "stuck with a listener open"

and join sim ~spawned ~monitor =
  let p = sim.next_peer in
  sim.next_peer <- p + 1;
  Hashtbl.replace sim.fleet p
    { f_monitor = monitor; f_ready = false; f_open = true; f_held = None };
  feed sim (D.Joined { peer = p; spawned })

let send_result sim p (shard, seed, (c : Plan.cell_spec)) ~ok =
  let f = fake sim p in
  (match f.f_held with
  | Some (s, sd, cells) when s = shard ->
    f.f_held <- Some (s, sd, List.filter (fun c' -> c' <> c) cells)
  | _ -> ());
  let r =
    {
      Protocol.r_mix = c.mix;
      r_scheme = c.scheme;
      r_ipc = (if ok then fake_ipc seed c else Float.nan);
      r_elapsed_s = 0.01;
      r_error = (if ok then None else Some "fake failure");
    }
  in
  sim.replying <- Some (slot sim seed c);
  feed sim (D.Message (p, Protocol.Cell { c_shard = shard; c_result = r }));
  sim.replying <- None

let shard_done sim p shard =
  let f = fake sim p in
  (match f.f_held with Some (s, _, _) when s = shard -> f.f_held <- None | _ -> ());
  feed sim (D.Message (p, Protocol.Shard_done { d_shard = shard; d_spans = [] }))

let greet sim p =
  let f = fake sim p in
  if f.f_monitor then feed sim (D.Message (p, Protocol.Query_stats))
  else begin
    f.f_ready <- true;
    feed sim (D.Message (p, Protocol.Ready { pid = p }))
  end

let tick sim dt =
  sim.now <- sim.now +. dt;
  feed sim D.Tick

let pick sim l = List.nth l (Random.State.int sim.rng (List.length l))

(* One step of an adversarial schedule: peers attach, greet or hang up
   first; workers report cells (some failing), skip cells, resend stale
   and duplicate results, finish shards early, die or fall silent while
   the clock jumps past the shard timeout. *)
let chaos_step sim ~p_err =
  let r = Random.State.int sim.rng 100 in
  let ok () = Random.State.float sim.rng 1.0 >= p_err in
  match open_peers sim with
  | _ when r < 8 -> join sim ~spawned:false ~monitor:(Random.State.int sim.rng 5 = 0)
  | [] -> tick sim 0.1
  | _ when r < 22 ->
    tick sim
      (if Random.State.int sim.rng 3 = 0 then Random.State.float sim.rng 12.0
       else Random.State.float sim.rng 0.5)
  | peers -> (
    let p = pick sim peers in
    let f = fake sim p in
    let r = Random.State.int sim.rng 100 in
    if not f.f_ready then
      if r < 75 || f.f_monitor then greet sim p
      else if r < 90 then feed sim (D.Lost (p, D.Hangup))
      else ()
    else
      match f.f_held with
      | _ when r < 6 ->
        feed sim (D.Lost (p, if r < 3 then D.Hangup else D.Failed "read failed"))
      | _ when r < 16 && sim.past <> [] -> send_result sim p (pick sim sim.past) ~ok:(ok ())
      | _ when r < 20 && sim.past <> [] ->
        let shard, _, _ = pick sim sim.past in
        shard_done sim p shard
      | Some (shard, _, _) when r < 28 -> shard_done sim p shard
      | Some (shard, seed, c :: _) when r < 85 -> send_result sim p (shard, seed, c) ~ok:(ok ())
      | Some (shard, _, []) -> shard_done sim p shard
      | _ -> ())

(* Every worker answers promptly and truthfully ([ok] decides each
   cell), a fresh peer attaches when none is left, and the clock moves
   in small steps, until the core says [Done]. *)
let healthy_step sim ~ok =
  let peers = List.map (fun p -> (p, fake sim p)) (open_peers sim) in
  match List.find_opt (fun (_, f) -> not f.f_ready) peers with
  | Some (p, _) -> greet sim p
  | None -> (
    match List.find_opt (fun (_, f) -> f.f_held <> None) peers with
    | Some (p, { f_held = Some (shard, seed, c :: _); _ }) ->
      send_result sim p (shard, seed, c) ~ok:(ok seed c)
    | Some (p, { f_held = Some (shard, _, []); _ }) -> shard_done sim p shard
    | _ ->
      if peers = [] then join sim ~spawned:false ~monitor:false else tick sim 0.1)

let make_sim ?(restore = fun _ -> false) ~rng (cfg : D.config) =
  let slot_of = Hashtbl.create 64 in
  let grid = Plan.cells_of_grid ~mix_names:cfg.mix_names ~scheme_names:cfg.scheme_names in
  List.iteri
    (fun si seed ->
      List.iteri
        (fun i (c : Plan.cell_spec) ->
          Hashtbl.replace slot_of (seed, c.mix, c.scheme) ((si * List.length grid) + i))
        grid)
    cfg.seeds;
  let total = Hashtbl.length slot_of in
  let restored si (c : Plan.cell_spec) =
    let seed = List.nth cfg.seeds si in
    if restore (Hashtbl.find slot_of (seed, c.mix, c.scheme)) then
      Some
        (E.Sweep.cell_of_outcome ~attempts:0 ~mix:c.mix ~scheme:c.scheme
           (Ok (fake_ipc seed c)))
    else None
  in
  let completed = ref [] in
  let tally =
    E.Sweep.Tally.create
      ~on_event:(function
        | E.Sweep.Cell_finished { completed = c; _ } -> completed := c :: !completed
        | _ -> ())
      ~scale:E.Common.Quick ~seed:0L ~jobs:1 total
  in
  {
      core = D.create ~restored cfg ~now:0.0;
      cfg;
      rng;
      now = 0.0;
      fleet = Hashtbl.create 16;
      next_peer = 0;
      spawn_fails = true;
      slot_of;
      finishes = Array.make total 0;
      cells = Array.make total None;
      retried = Array.make total 0;
      deaths = Array.make total 0;
      past = [];
      replying = None;
      degraded_events = [];
      tally;
      completed;
      over = false;
    }

(* Run a schedule of [chaos] adversarial steps, then healthy steps until
   [Done]; check the end state. *)
let run_sim ?(chaos = 0) ?(p_err = 0.0) ?(ok = fun _ _ -> true) ?(attached = 1) sim =
  for _ = 1 to attached do
    join sim ~spawned:false ~monitor:false
  done;
  for _ = 1 to chaos do
    if not sim.over then chaos_step sim ~p_err
  done;
  sim.spawn_fails <- false;
  let steps = ref 0 in
  while (not sim.over) && !steps < 20_000 do
    incr steps;
    healthy_step sim ~ok
  done;
  let total = Array.length sim.cells in
  if not sim.over then
    fail "no Done after %d healthy steps (%d of %d slots finished)" !steps
      (Array.fold_left (fun n c -> if c = None then n else n + 1) 0 sim.cells)
      total;
  Array.iteri (fun k n -> if n <> 1 then fail "slot %d finished %d times" k n) sim.finishes;
  if List.rev !(sim.completed) <> List.init total (fun i -> i + 1) then
    fail "completed does not run 1..%d" total;
  let s = D.stats sim.core in
  if s.cells_simulated + s.cells_restored + s.cells_degraded <> total then
    fail "simulated %d + restored %d + degraded %d <> total %d" s.cells_simulated
      s.cells_restored s.cells_degraded total;
  if open_peers sim <> [] then fail "peers left open at Done";
  let degraded =
    List.concat
      (List.mapi
         (fun k -> function
           | Some ({ E.Sweep.error = Some _; _ } as c : E.Sweep.cell) ->
             [ (E.Sweep.row_seed ~seed:(seed_of sim k) c.mix, c.mix, c.scheme) ]
           | _ -> [])
         (Array.to_list sim.cells))
  in
  let named =
    List.filter_map
      (function
        | E.Sweep.Cell_degraded { seed; mix; scheme; _ } -> Some (seed, mix, scheme)
        | _ -> None)
      sim.degraded_events
  in
  if List.sort compare degraded <> List.sort compare named then
    fail "Cell_degraded events do not name the degraded cells and their row seeds"

(* The deterministic-simulation property: over seeded schedules of
   chaos (see [chaos_step]) followed by a healthy fleet, every slot
   finishes exactly once with [completed] running 1..total, every
   non-degraded cell carries the fleet's bits, retries and the death
   budget hold, no shard goes to a closed, non-ready or busy peer, and
   simulated + restored + degraded = total. Pure: no process, socket or
   clock. *)
let test_dispatch_simulation =
  QCheck.Test.make ~name:"dispatch: seeded fleet chaos keeps every contract"
    ~count:500 ~long_factor:20 (QCheck.int_bound 0x3fffffff)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
      let take n l = List.filteri (fun i _ -> i < n) l in
      let cfg =
        {
          D.scale = "quick";
          seeds = take (int 1 2) [ 5L; 6L ];
          mix_names = take (int 1 2) all_mixes;
          scheme_names = take (int 1 3) all_schemes;
          shard_size = (if int 0 1 = 0 then None else Some (int 1 4));
          fleet = int 1 3;
          spawn = int 0 2;
          listening = true;
          max_retries = int 0 2;
          shard_timeout_s = (if int 0 1 = 0 then None else Some 5.0);
        }
      in
      let resume = int 0 2 = 0 in
      let sim = make_sim ~restore:(fun _ -> resume && int 0 3 = 0) ~rng cfg in
      run_sim ~chaos:(int 20 400) ~p_err:(Random.State.float rng 0.3)
        ~attached:(int 0 2) sim;
      true)

(* A cell degraded in two replicates is named twice, each with its own
   row seed, where the warning used to print two identical lines. *)
let test_degraded_names_seed () =
  let cfg =
    {
      D.scale = "quick";
      seeds = [ 5L; 6L ];
      mix_names = [ "LLHH" ];
      scheme_names = [ "C4" ];
      shard_size = None;
      fleet = 1;
      spawn = 0;
      listening = true;
      max_retries = 0;
      shard_timeout_s = None;
    }
  in
  let sim = make_sim ~rng:(Random.State.make [| 0 |]) cfg in
  run_sim ~ok:(fun _ _ -> false) sim;
  let watch, warning = E.Sweep.watch_degraded None in
  List.iter watch sim.degraded_events;
  let line seed =
    Printf.sprintf "  LLHH/C4 seed 0x%Lx after 1 attempt(s): fake failure\n"
      (E.Sweep.row_seed ~seed "LLHH")
  in
  Alcotest.(check (option string)) "one line per replicate, each with its seed"
    (Some
       ("warning: 2 sweep cell(s) degraded to n/a:\n"
       ^ String.concat "" (List.sort compare [ line 5L; line 6L ])))
    (warning ())

(* With no listener and no spawn budget, losing the last worker leaves
   the sweep stuck, and the core says so on the next tick. *)
let test_dispatch_stuck () =
  let cfg =
    {
      D.scale = "quick";
      seeds = [ 5L ];
      mix_names = [ "LLHH" ];
      scheme_names = [ "C4"; "1S" ];
      shard_size = None;
      fleet = 1;
      spawn = 0;
      listening = false;
      max_retries = 0;
      shard_timeout_s = None;
    }
  in
  let core = D.create cfg ~now:0.0 in
  let step input = D.step core ~now:0.0 input in
  ignore (step (D.Joined { peer = 0; spawned = false }));
  Alcotest.(check bool) "the greeting worker gets a shard" true
    (List.exists
       (function D.Assign { peer = 0; _ } -> true | _ -> false)
       (step (D.Message (0, Protocol.Ready { pid = 1 }))));
  Alcotest.(check bool) "its death is a kill" true
    (List.mem (D.Close (0, D.Kill "eof")) (step (D.Lost (0, D.Hangup))));
  Alcotest.(check bool) "the next tick is stuck" true (List.mem D.Stuck (step D.Tick))

(* `exp --workers N --resume` books its restored cells in the ledger
   record's [resumed] total, as `dist --resume` does: the sweep.*
   counters come from [Coordinator.counters_list] for both. *)
let test_exp_workers_resume_recorded () =
  let dir = Filename.temp_file "vliwexp" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let ckpt = Filename.concat dir "journal" and runs = Filename.concat dir "_runs" in
  let exp extra =
    Sys.command
      (Printf.sprintf
         "%s exp fig10 --scale quick -q --workers 2 --checkpoint %s \
          --runs-dir %s %s > /dev/null 2>&1"
         (Filename.quote Test_cli.vliwsim) (Filename.quote ckpt) (Filename.quote runs) extra)
  in
  Alcotest.(check int) "fresh run exits 0" 0 (exp "");
  Alcotest.(check int) "resumed run exits 0" 0 (exp "--resume");
  (match Ledger.load ~dir:runs with
  | [ fresh; resumed ] ->
    Alcotest.(check int) "a fresh run resumes nothing" 0 fresh.Ledger.resumed;
    Alcotest.(check int) "every cell of the resumed run is booked" 144
      resumed.resumed
  | l -> Alcotest.failf "expected two ledger records, got %d" (List.length l));
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

let suite =
  ( "dist",
    [
      QCheck_alcotest.to_alcotest test_plan_partition;
      Alcotest.test_case "plan: edge cases" `Quick test_plan_edges;
      QCheck_alcotest.to_alcotest test_protocol_roundtrip;
      Alcotest.test_case "protocol: malformed rejected" `Quick
        test_protocol_rejects;
      Alcotest.test_case "worker: serves a shard bit-exactly" `Quick
        test_worker_serve;
      Alcotest.test_case "worker: bad cells error, loop survives" `Quick
        test_worker_bad_cell;
      Alcotest.test_case "worker: coordinator hang-up exits 0" `Quick
        test_worker_hangup_exit;
      QCheck_alcotest.to_alcotest test_coordinator_bit_identity;
      Alcotest.test_case "coordinator: survives a worker death" `Quick
        test_coordinator_worker_death;
      Alcotest.test_case "coordinator: replicate grids" `Quick
        test_coordinator_replicates;
      Alcotest.test_case "coordinator: checkpoint resume" `Quick
        test_coordinator_checkpoint_resume;
      Alcotest.test_case "coordinator: resume reports every cell" `Quick
        test_coordinator_resume_events;
      Alcotest.test_case "journal: local and dist resume each other" `Quick
        test_journal_interchange;
      Alcotest.test_case "coordinator: no transport fails fast" `Quick
        test_coordinator_no_transport;
      Alcotest.test_case "ledger: merge dedups like gc" `Quick
        test_ledger_merge_dedup;
      Alcotest.test_case "replicates: derived seed lists" `Quick
        test_derive_seeds;
      Alcotest.test_case "replicates: per-cell confidence intervals" `Quick
        test_cell_ci_math;
      Alcotest.test_case "coordinator: dist.* counter export" `Quick
        test_dist_counters_list;
      Alcotest.test_case "coordinator: traced run bit-identical + nested"
        `Quick test_coordinator_traced_bit_identity;
      Alcotest.test_case "coordinator: whole-row shards share classes" `Quick
        test_coordinator_whole_row_sharing;
      Alcotest.test_case "cli: dist exits 1 on degraded cells" `Quick
        test_dist_cli_degraded;
      QCheck_alcotest.to_alcotest test_dispatch_simulation;
      Alcotest.test_case "dispatch: a degraded cell names its replicate seed"
        `Quick test_degraded_names_seed;
      Alcotest.test_case "dispatch: no worker, listener or budget is stuck"
        `Quick test_dispatch_stuck;
      Alcotest.test_case "cli: exp --workers --resume books resumed cells"
        `Quick test_exp_workers_resume_recorded;
    ] )
