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
  let exe = "../bin/vliwsim.exe" in
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
  let exe = "../bin/vliwsim.exe" in
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
  Alcotest.(check bool) "each cell named with its error" true
    (contains "LLHH/C4 after 1 attempt(s): broken worker")

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
    ] )
