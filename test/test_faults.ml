(* Fault tolerance and self-checking: Csv.atomically, Pool.run_results,
   the Checkpoint journal, Sweep retries / fault injection / resume, and
   the Invariants battery.

   The resume property here simulates the interruption by truncating a
   completed journal to a prefix (any prefix is a state a kill could
   have left behind, since saves are atomic per cell); the CI smoke job
   performs a real mid-sweep kill -9. *)

module E = Vliw_experiments
module Pool = Vliw_util.Pool
module Csv = Vliw_util.Csv
module Counters = Vliw_telemetry.Counters
module Report = Vliw_telemetry.Report
module Q = QCheck

let temp_path () =
  let path = Filename.temp_file "vliwsim-test" ".journal" in
  Sys.remove path;
  path

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Temp files [Atomic_io.with_file] left beside [path], if any. *)
let temp_residue path =
  let prefix = Filename.basename path ^ "." in
  Array.exists
    (fun f -> String.starts_with ~prefix f && Filename.check_suffix f ".tmp")
    (Sys.readdir (Filename.dirname path))

(* --- Csv.atomically and quoting -------------------------------------- *)

let test_atomic_write_success () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Csv.write ~path ~header:[ "a"; "b" ] [ [ "1"; "2" ] ];
      Alcotest.(check string) "content" "a,b\n1,2\n" (read_file path);
      Alcotest.(check bool) "no temp residue" false (temp_residue path))

let test_atomic_write_failure_preserves_old () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Csv.write ~path ~header:[ "old" ] [ [ "data" ] ];
      Alcotest.check_raises "writer exception propagates"
        (Failure "mid-write crash")
        (fun () ->
          Csv.atomically ~path (fun oc ->
              output_string oc "partial garbage";
              failwith "mid-write crash"));
      Alcotest.(check string)
        "destination untouched" "old\ndata\n" (read_file path);
      Alcotest.(check bool) "temp file cleaned up" false (temp_residue path))

(* Full-text CSV parser (handles newlines inside quoted fields, unlike
   the line-based helper in Test_parallel) for the round-trip check. *)
let parse_csv_text text =
  let rows = ref [] and fields = ref [] and buf = Buffer.create 16 in
  let n = String.length text in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let rec go i quoted =
    if i >= n then ()
    else
      let c = text.[i] in
      if quoted then
        if c = '"' then
          if i + 1 < n && text.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) true
          end
          else go (i + 1) false
        else begin
          Buffer.add_char buf c;
          go (i + 1) true
        end
      else if c = '"' then go (i + 1) true
      else if c = ',' then begin
        flush_field ();
        go (i + 1) false
      end
      else if c = '\n' then begin
        flush_row ();
        go (i + 1) false
      end
      else begin
        Buffer.add_char buf c;
        go (i + 1) false
      end
  in
  go 0 false;
  if Buffer.length buf > 0 || !fields <> [] then flush_row ();
  List.rev !rows

let test_csv_quoting_roundtrip () =
  let rows =
    [
      [ "plain"; "with,comma"; "with\"quote" ];
      [ "embedded\nnewline"; "cr\rreturn"; "crlf\r\nboth" ];
      [ ""; "\"\""; ",,," ];
    ]
  in
  let header = [ "h1"; "h,2"; "h\n3" ] in
  let parsed = parse_csv_text (Csv.to_string ~header rows) in
  Alcotest.(check (list (list string)))
    "quoted fields survive the round trip" (header :: rows) parsed

(* --- Pool.run_results fault isolation -------------------------------- *)

let test_pool_run_results_isolates () =
  List.iter
    (fun jobs ->
      let tasks =
        Array.init 16 (fun i ~worker ->
            ignore worker;
            if i mod 5 = 0 then failwith (Printf.sprintf "task %d boom" i)
            else i * 10)
      in
      let results = Pool.run_results ~jobs tasks in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
            Alcotest.(check bool)
              (Printf.sprintf "jobs=%d task %d ok" jobs i)
              true
              (i mod 5 <> 0 && v = i * 10)
          | Error (Failure msg) ->
            Alcotest.(check string)
              (Printf.sprintf "jobs=%d task %d error" jobs i)
              (Printf.sprintf "task %d boom" i)
              msg
          | Error e -> raise e)
        results)
    [ 1; 4 ]

let test_pool_run_results_worker_dependent () =
  (* A task that raises except on worker 0: with jobs=1 everything runs
     on worker 0 and succeeds; the prior results delivered through
     on_result are preserved either way. *)
  let tasks = Array.init 12 (fun i ~worker -> if worker <> 0 then failwith "not worker 0" else i) in
  let serial_seen = ref [] in
  let serial =
    Pool.run_results ~jobs:1
      ~on_result:(fun i r -> serial_seen := (i, r) :: !serial_seen)
      tasks
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "serial task %d ok" i)
        true (r = Ok i))
    serial;
  Alcotest.(check int) "on_result saw every task" 12 (List.length !serial_seen);
  let parallel = Pool.run_results ~jobs:4 tasks in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "parallel ok value" i v
      | Error (Failure msg) ->
        Alcotest.(check string) "parallel error" "not worker 0" msg
      | Error e -> raise e)
    parallel

(* --- Checkpoint journal ---------------------------------------------- *)

let sample_meta =
  {
    E.Checkpoint.scale = "quick";
    seed = 0xC5EEDL;
    scheme_names = [ "1S"; "3SSS" ];
    mix_names = [ "LLHH"; "MMMM" ];
    telemetry = true;
  }

let sample_records =
  [
    {
      E.Checkpoint.mix = "LLHH";
      scheme = "1S";
      row_seed = -1234567890123456789L;
      ipc = 3.14159265358979;
      attempts = 2;
      counters = Some [ ("slots.filled", 42); ("sweep.retries", 1) ];
    };
    {
      E.Checkpoint.mix = "MMMM";
      scheme = "3SSS";
      row_seed = 7L;
      ipc = Float.nan;
      attempts = 1;
      counters = None;
    };
    {
      E.Checkpoint.mix = "odd name, with comma";
      scheme = "a=b c%d";
      row_seed = 0L;
      ipc = 0.0;
      attempts = 1;
      counters = Some [ ("weird key=x", 1) ];
    };
  ]

let test_checkpoint_roundtrip () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t =
        List.fold_left E.Checkpoint.add
          (E.Checkpoint.create sample_meta)
          sample_records
      in
      E.Checkpoint.save ~path t;
      match E.Checkpoint.load ~path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok t' ->
        Alcotest.(check bool) "meta equal" true
          (E.Checkpoint.meta_equal t.meta t'.meta);
        Alcotest.(check int) "record count" (List.length t.records)
          (List.length t'.records);
        List.iter2
          (fun (a : E.Checkpoint.record) (b : E.Checkpoint.record) ->
            Alcotest.(check string) "mix" a.mix b.mix;
            Alcotest.(check string) "scheme" a.scheme b.scheme;
            Alcotest.(check int64) "row_seed" a.row_seed b.row_seed;
            Alcotest.(check int64) "ipc bits survive exactly"
              (Int64.bits_of_float a.ipc)
              (Int64.bits_of_float b.ipc);
            Alcotest.(check int) "attempts" a.attempts b.attempts;
            Alcotest.(check bool) "counters" true (a.counters = b.counters))
          t.records t'.records)

let test_checkpoint_rejects_garbage () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match E.Checkpoint.load ~path:(path ^ ".missing") with
      | Ok _ -> Alcotest.fail "missing file must not load"
      | Error _ -> ());
      Out_channel.with_open_text path (fun oc ->
          output_string oc "not a checkpoint\ncell mix=a scheme=b\n");
      (match E.Checkpoint.load ~path with
      | Ok _ -> Alcotest.fail "bad magic must not load"
      | Error msg ->
        Alcotest.(check bool) "mentions magic" true
          (String.length msg > 0));
      (* valid magic + meta, one good cell, one mangled cell: the
         mangled line is dropped, the good one survives *)
      let t =
        E.Checkpoint.add (E.Checkpoint.create sample_meta)
          (List.hd sample_records)
      in
      let text = E.Checkpoint.to_string t ^ "cell mix=only scheme=broken\n" in
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      match E.Checkpoint.load ~path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok t' ->
        Alcotest.(check int) "malformed cell dropped" 1
          (List.length t'.records))

(* --- Sweep fault injection, retries, degradation ---------------------- *)

let with_injection hook f =
  E.Sweep.inject_failure := Some hook;
  Fun.protect ~finally:(fun () -> E.Sweep.inject_failure := None) f

let small_schemes = [ "1S"; "3SSS" ]
let small_mixes = [ "LLHH"; "MMMM" ]

let run_small ?(jobs = 1) ?(telemetry = false) ?max_retries ?cell_timeout_s
    ?checkpoint ?resume ?seed () =
  E.Sweep.run_cells ~scale:E.Common.Quick ?seed ~scheme_names:small_schemes
    ~mix_names:small_mixes ~jobs ~telemetry ?max_retries ?cell_timeout_s
    ?checkpoint ?resume ()

let test_degraded_cell () =
  (* Cell (0, 1) always fails; with one retry it still degrades while
     every other cell is untouched. *)
  with_injection
    (fun ~row ~col -> row = 0 && col = 1)
    (fun () ->
      let scheme_names, mix_names, cells =
        run_small ~telemetry:true ~max_retries:1 ()
      in
      let bad = E.Sweep.degraded cells in
      Alcotest.(check int) "one degraded cell" 1 (List.length bad);
      let c = List.hd bad in
      Alcotest.(check string) "mix" "LLHH" c.mix;
      Alcotest.(check string) "scheme" "3SSS" c.scheme;
      Alcotest.(check int) "attempts = 1 + max_retries" 2 c.attempts;
      Alcotest.(check bool) "ipc is nan" true (Float.is_nan c.ipc);
      Alcotest.(check bool) "error recorded" true
        (match c.error with
        | Some msg ->
          (* substring check: Failure("injected fault in cell (0, 1)") *)
          let sub = "injected fault" in
          let rec contains i =
            i + String.length sub <= String.length msg
            && (String.sub msg i (String.length sub) = sub || contains (i + 1))
          in
          contains 0
        | None -> false);
      (match c.telemetry with
      | None -> Alcotest.fail "degraded cell should carry telemetry"
      | Some snap ->
        Alcotest.(check int) "sweep.degraded" 1
          (Counters.count snap Report.n_sweep_degraded);
        Alcotest.(check int) "sweep.retries" 1
          (Counters.count snap Report.n_sweep_retries));
      (* the grid renders the degraded cell as n/a *)
      let grid = E.Sweep.grid_of_cells ~scheme_names ~mix_names cells in
      let _, rows = E.Common.grid_csv grid in
      Alcotest.(check bool) "csv renders n/a" true
        (List.exists (List.mem "n/a") rows);
      Alcotest.(check string) "ipc_string" "n/a"
        (E.Common.ipc_string Float.nan))

let test_degraded_study_cell_warned () =
  (* A failing cell in a study (table1 here) degrades like a fig10 cell,
     and the registry routes its Cell_degraded event to the command's
     watch, which names it even though the shared sweep never ran. *)
  let watch, warning = E.Sweep.watch_degraded None in
  let ctx = E.Registry.make_ctx ~scale:E.Common.Quick ~on_event:watch () in
  let text, _ =
    with_injection
      (fun ~row ~col -> row = 1 && col = 0)
      (fun () -> E.Registry.run_entry ctx (E.Registry.find_exn "table1"))
  in
  Alcotest.(check bool) "table still rendered" true (String.length text > 0);
  Alcotest.(check bool) "shared sweep not forced" false
    (Lazy.is_val ctx.E.Registry.fig10);
  let row = (List.hd Vliw_workloads.Benchmarks.all).name ^ "/perfect" in
  Alcotest.(check (option string))
    "warning names the cell"
    (Some
       (Printf.sprintf
          "warning: 1 sweep cell(s) degraded to n/a:\n\
          \  %s/ST seed 0x%Lx after 1 attempt(s): Failure(\"injected fault in cell (1, 0)\")\n"
          row E.Common.default_seed))
    (warning ())

let test_fault_injection_acceptance () =
  (* 10% of cells (here: cell index multiples of 10 over a 4x4 grid --
     use the full catalog rows to get enough cells) fail twice then
     succeed; with max_retries 2 the sweep completes with zero degraded
     cells and the retry counters match the injected schedule exactly. *)
  let scheme_names = [ "1S"; "2SC3"; "3SSS"; "C4" ] in
  let mix_names = [ "LLLL"; "LLHH"; "MMMM"; "HHHH"; "LMMH" ] in
  let n_cols = List.length scheme_names in
  let n_cells = n_cols * List.length mix_names in
  let injected = List.filter (fun i -> i mod 10 = 0) (List.init n_cells Fun.id) in
  List.iter
    (fun jobs ->
      let attempts_seen = Array.init n_cells (fun _ -> Atomic.make 0) in
      with_injection
        (fun ~row ~col ->
          let idx = (row * n_cols) + col in
          idx mod 10 = 0 && Atomic.fetch_and_add attempts_seen.(idx) 1 < 2)
        (fun () ->
          let _, _, cells =
            E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names ~mix_names
              ~jobs ~telemetry:true ~max_retries:2 ()
          in
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d zero degraded" jobs)
            0
            (List.length (E.Sweep.degraded cells));
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d total retries = 2 per injected cell" jobs)
            (2 * List.length injected)
            (Array.fold_left
               (fun acc (c : E.Sweep.cell) -> acc + max 0 (c.attempts - 1))
               0 cells);
          Array.iteri
            (fun idx c ->
              let expected = if idx mod 10 = 0 then 3 else 1 in
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d cell %d attempts" jobs idx)
                expected c.E.Sweep.attempts)
            cells;
          let merged = E.Sweep.merged_telemetry cells in
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d merged sweep.retries" jobs)
            (2 * List.length injected)
            (Counters.count merged Report.n_sweep_retries);
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d merged sweep.degraded" jobs)
            0
            (Counters.count merged Report.n_sweep_degraded)))
    [ 1; 4 ]

let test_injected_faults_do_not_change_results () =
  (* Retried cells are pure: a sweep with transient injected faults
     produces the bit-identical grid of an undisturbed sweep. *)
  let clean = run_small () in
  let again =
    let counts = Array.init 4 (fun _ -> Atomic.make 0) in
    with_injection
      (fun ~row ~col ->
        let idx = (row * 2) + col in
        Atomic.fetch_and_add counts.(idx) 1 < 1)
      (fun () -> run_small ~max_retries:1 ())
  in
  let grid_of (s, m, c) = E.Sweep.grid_of_cells ~scheme_names:s ~mix_names:m c in
  Alcotest.(check bool) "grids bit-identical" true
    ((grid_of clean).E.Common.ipc = (grid_of again).E.Common.ipc)

let test_cell_timeout () =
  (* A zero timeout fails every attempt post-hoc; cells degrade and the
     timeouts are counted. *)
  let _, _, cells =
    run_small ~telemetry:true ~max_retries:1 ~cell_timeout_s:0.0 ()
  in
  Alcotest.(check int) "all cells degraded" 4
    (List.length (E.Sweep.degraded cells));
  Array.iter
    (fun (c : E.Sweep.cell) ->
      Alcotest.(check bool) "timeout recorded as error" true
        (match c.error with
        | Some msg ->
          let sub = "Cell_timeout" in
          let rec contains i =
            i + String.length sub <= String.length msg
            && (String.sub msg i (String.length sub) = sub || contains (i + 1))
          in
          contains 0
        | None -> false);
      match c.telemetry with
      | None -> Alcotest.fail "telemetry expected"
      | Some snap ->
        Alcotest.(check int) "two timed-out attempts" 2
          (Counters.count snap Report.n_sweep_timeouts))
    cells

(* --- Sharing: one simulation per canonical class --------------------- *)

let catalog_scheme name = (Vliw_merge.Catalog.find_exn name).scheme

(* The kernel-level equivalence the sharing rests on, checked without
   the sweep: each pair simulates to equal metrics on its own. *)
let test_unshared_equivalents () =
  let row4 = E.Sweep.prepare_row ~scale:E.Common.Quick "LLHH" in
  let row8 =
    let members = (Vliw_workloads.Mixes.find_exn "LLHH").members in
    E.Sweep.row ~stream:`Doubled
      ~schedule:(E.Common.schedule_of_scale E.Common.Quick)
      ~compile_seed:3L ~seed:4L "LLHHx2" (members @ members)
  in
  let ext8 name =
    (List.find
       (fun (e : E.Ext8.entry) -> e.name = name)
       E.Ext8.schemes)
      .scheme
  in
  List.iter
    (fun (row, (a, sa), (b, sb)) ->
      let metrics name scheme = E.Sweep.simulate row (E.Sweep.column name scheme) in
      Alcotest.(check bool) (a ^ " = " ^ b) true (metrics a sa = metrics b sb))
    [
      (row4, ("C4", catalog_scheme "C4"), ("3CCC", catalog_scheme "3CCC"));
      (row4, ("2SC3", catalog_scheme "2SC3"), ("3SCC", catalog_scheme "3SCC"));
      (row4, ("2C3S", catalog_scheme "2C3S"), ("3CCS", catalog_scheme "3CCS"));
      (row8, ("C8", ext8 "C8"), ("CSMT8", ext8 "CSMT8"));
    ]

let test_share_keys () =
  let row = E.Sweep.prepare_row ~scale:E.Common.Quick "LLHH" in
  let key name = E.Sweep.share_key row (E.Sweep.static_column (Vliw_merge.Catalog.find_exn name)) in
  let check_same same a b =
    Alcotest.(check bool) (Printf.sprintf "%s %s %s" a (if same then "~" else "!~") b)
      same (key a = key b)
  in
  check_same true "C4" "3CCC";
  check_same true "2SC3" "3SCC";
  check_same true "2C3S" "3CCS";
  check_same false "2SC3" "3CSC";
  check_same false "2CC" "C4";
  let c4 = catalog_scheme "C4" in
  let unrotated =
    E.Sweep.column "C4-fixed-priority" c4
      ~config:(fun c -> { c with Vliw_sim.Config.rotate_priority = false })
  in
  Alcotest.(check bool) "a config edit is part of the key" false
    (E.Sweep.share_key row unrotated = key "3CCC");
  let adaptive =
    { (E.Sweep.column "adaptive" c4) with
      col_controller = Some (fun () -> failwith "never built by share_key") }
  in
  Alcotest.(check bool) "a controller column never shares" true
    (E.Sweep.share_key row adaptive = None)

let shared_pair = [ "C4"; "3CCC" ]

let run_pair ?(jobs = 1) ?max_retries ?checkpoint ?resume ?on_event () =
  let _, _, cells =
    E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names:shared_pair
      ~mix_names:small_mixes ~jobs ~telemetry:true ?max_retries ?checkpoint
      ?resume ?on_event ()
  in
  cells

let ipc_bits (c : E.Sweep.cell) = Int64.bits_of_float c.ipc

let test_shared_class_contract () =
  List.iter
    (fun jobs ->
      let m = Mutex.create () and events = ref [] in
      let on_event ev = Mutex.protect m (fun () -> events := ev :: !events) in
      let cells = run_pair ~jobs ~on_event () in
      let tag = Printf.sprintf "jobs=%d" jobs in
      for i = 0 to 1 do
        let rep = cells.(2 * i) and follower = cells.((2 * i) + 1) in
        Alcotest.(check int64) (tag ^ " same IPC bits") (ipc_bits rep) (ipc_bits follower);
        Alcotest.(check bool) (tag ^ " same snapshot") true
          (rep.telemetry = follower.telemetry && rep.telemetry <> None);
        Alcotest.(check int) (tag ^ " follower attempts") 1 follower.attempts;
        (* The follower did not simulate: its attempt only reads the
           representative's outcome. *)
        Alcotest.(check bool) (tag ^ " follower reuses the simulation") true
          (follower.elapsed_s < rep.elapsed_s)
      done;
      let finished =
        List.filter_map
          (function
            | E.Sweep.Cell_finished { cell; completed; total; _ } ->
              Some (cell.mix ^ "/" ^ cell.scheme, completed, total)
            | _ -> None)
          (List.rev !events)
      in
      Alcotest.(check (list int)) (tag ^ " completed 1..4") [ 1; 2; 3; 4 ]
        (List.map (fun (_, k, _) -> k) finished);
      (* Each follower finishes right after its representative. *)
      let names = List.map (fun (c, _, _) -> c) finished in
      Alcotest.(check (list string)) (tag ^ " one Cell_finished per cell")
        [ "LLHH/3CCC"; "LLHH/C4"; "MMMM/3CCC"; "MMMM/C4" ]
        (List.sort compare names);
      List.iteri
        (fun k name ->
          if String.ends_with ~suffix:"/3CCC" name then
            Alcotest.(check string) (tag ^ " follower after representative")
              (String.sub name 0 4 ^ "/C4")
              (List.nth names (k - 1)))
        names;
      Alcotest.(check int) (tag ^ " one Cell_started per cell") 4
        (List.length
           (List.filter (function E.Sweep.Cell_started _ -> true | _ -> false) !events)))
    [ 1; 2 ];
  (* A follower's own retries are its own; it never inherits the
     representative's. *)
  let fails = Atomic.make 0 in
  let cells =
    with_injection
      (fun ~row ~col -> row = 0 && col = 0 && Atomic.fetch_and_add fails 1 < 1)
      (fun () -> run_pair ~max_retries:1 ())
  in
  let count (c : E.Sweep.cell) name =
    Counters.count (Option.get c.telemetry) name
  in
  Alcotest.(check int) "representative retried" 2 cells.(0).attempts;
  Alcotest.(check int) "representative's retry counted" 1
    (count cells.(0) Report.n_sweep_retries);
  Alcotest.(check int) "follower took one attempt" 1 cells.(1).attempts;
  Alcotest.(check int) "follower carries no retries" 0
    (count cells.(1) Report.n_sweep_retries);
  Alcotest.(check bool) "follower snapshot = simulation snapshot" true
    (cells.(1).telemetry = (run_pair ()).(1).telemetry)

let test_shared_class_faults () =
  let clean = run_pair () in
  let degraded_at col =
    with_injection (fun ~row ~col:c -> row = 0 && c = col) (fun () -> run_pair ())
  in
  List.iter
    (fun (col, who) ->
      let cells = degraded_at col in
      Array.iteri
        (fun k (c : E.Sweep.cell) ->
          if k = col then
            Alcotest.(check bool) (who ^ " degraded") true (c.error <> None)
          else begin
            Alcotest.(check bool) (Printf.sprintf "%s injected: cell %d fine" who k) true
              (c.error = None);
            Alcotest.(check int64) (Printf.sprintf "%s injected: cell %d bits" who k)
              (ipc_bits clean.(k)) (ipc_bits c)
          end)
        cells)
    [ (1, "follower"); (0, "representative") ]

let test_shared_class_resume () =
  let fresh = run_pair () in
  List.iter
    (fun (keep, what) ->
      let path = temp_path () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          ignore (run_pair ~checkpoint:path ());
          (match E.Checkpoint.load ~path with
          | Error msg -> Alcotest.failf "journal load failed: %s" msg
          | Ok t ->
            E.Checkpoint.save ~path
              {
                t with
                E.Checkpoint.records =
                  List.filter
                    (fun (r : E.Checkpoint.record) -> r.scheme = keep)
                    t.E.Checkpoint.records;
              });
          let resumed = run_pair ~checkpoint:path ~resume:true () in
          Alcotest.(check (list int64)) ("journal holds only the " ^ what)
            (Array.to_list (Array.map ipc_bits fresh))
            (Array.to_list (Array.map ipc_bits resumed));
          Array.iter
            (fun (c : E.Sweep.cell) ->
              Alcotest.(check int) (what ^ " kept: restored iff journaled")
                (if c.scheme = keep then 0 else 1)
                c.attempts)
            resumed))
    [ ("3CCC", "follower"); ("C4", "representative") ]

(* --- Resume: interrupted-then-resumed = fresh ------------------------- *)

let prop_resume_bit_identical =
  (* Complete a journaled sweep, truncate the journal to its first k
     records (any prefix is a legal crash state: saves are atomic per
     cell), then resume. The resumed grid must be bit-identical to the
     fresh one, at jobs 1 and 4. *)
  Q.Test.make ~count:8 ~name:"sweep: interrupted-then-resumed = fresh run"
    Q.(triple (int_bound 1000) (int_bound 4) (oneofl [ 1; 4 ]))
    (fun (seed_i, keep, jobs) ->
      let seed = Int64.of_int (seed_i + 1) in
      let path = temp_path () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let fresh = run_small ~jobs ~seed ~telemetry:true () in
          ignore (run_small ~jobs ~seed ~telemetry:true ~checkpoint:path ());
          (match E.Checkpoint.load ~path with
          | Error msg -> Q.Test.fail_reportf "journal load failed: %s" msg
          | Ok t ->
            let prefix =
              List.filteri (fun i _ -> i < keep) t.E.Checkpoint.records
            in
            E.Checkpoint.save ~path
              { t with E.Checkpoint.records = prefix });
          let resumed =
            run_small ~jobs ~seed ~telemetry:true ~checkpoint:path ~resume:true
              ()
          in
          let grid_of (s, m, c) =
            E.Sweep.grid_of_cells ~scheme_names:s ~mix_names:m c
          in
          let _, _, resumed_cells = resumed in
          let restored =
            Array.fold_left
              (fun acc (c : E.Sweep.cell) ->
                acc + if c.attempts = 0 then 1 else 0)
              0 resumed_cells
          in
          restored = min keep 4
          && (grid_of fresh).E.Common.ipc = (grid_of resumed).E.Common.ipc))

let test_resume_ignores_mismatched_journal () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (run_small ~seed:1L ~checkpoint:path ());
      let warnings = ref [] in
      let _, _, cells =
        E.Sweep.run_cells ~scale:E.Common.Quick ~seed:2L
          ~scheme_names:small_schemes ~mix_names:small_mixes ~checkpoint:path
          ~resume:true
          ~log:(fun m -> warnings := m :: !warnings)
          ()
      in
      Alcotest.(check bool) "warned about mismatch" true (!warnings <> []);
      Array.iter
        (fun (c : E.Sweep.cell) ->
          Alcotest.(check bool) "every cell re-simulated" true (c.attempts >= 1))
        cells)

(* --- Invariants ------------------------------------------------------- *)

let quick_metrics () =
  let config = Vliw_sim.Config.make (Vliw_merge.Catalog.find_exn "3SSS").scheme in
  let mix = Vliw_workloads.Mixes.find_exn "LLHH" in
  Vliw_sim.Multitask.run config ~seed:7L
    ~schedule:Vliw_sim.Multitask.quick_schedule mix.members

let test_invariants_pass_on_real_run () =
  let m = quick_metrics () in
  Alcotest.(check (list string)) "no violations" [] (Vliw_sim.Invariants.violations m)

let test_invariants_catch_corruption () =
  let m = quick_metrics () in
  let caught what m' =
    Alcotest.(check bool) what true (Vliw_sim.Invariants.violations m' <> [])
  in
  caught "ops + 1" { m with ops = m.ops + 1 };
  caught "instrs - 1" { m with instrs = m.instrs - 1 };
  caught "cycles + 1" { m with cycles = m.cycles + 1 };
  caught "vertical > cycles" { m with vertical_waste_cycles = m.cycles + 1 };
  caught "misses > accesses" { m with dcache_misses = m.dcache_accesses + 1 };
  caught "per-thread ops"
    {
      m with
      per_thread =
        Array.map
          (fun (pt : Vliw_sim.Metrics.per_thread) -> { pt with ops = pt.ops + 1 })
          m.per_thread;
    };
  (* and the raising form *)
  Alcotest.(check bool) "check_metrics raises Violation" true
    (match Vliw_sim.Invariants.check_metrics { m with ops = m.ops + 1 } with
    | () -> false
    | exception Vliw_sim.Invariants.Violation _ -> true)

let test_attribution_check () =
  let reg = Counters.create () in
  let h = Report.attach reg in
  Counters.add h.Report.slots_offered 100;
  Counters.add h.Report.slots_filled 60;
  Counters.add h.Report.h_ilp 25;
  Counters.add h.Report.v_mem 15;
  Vliw_sim.Invariants.check_attribution (Counters.snapshot reg);
  (* break the sum *)
  Counters.add h.Report.h_ilp 1;
  Alcotest.(check bool) "broken attribution caught" true
    (match Vliw_sim.Invariants.check_attribution (Counters.snapshot reg) with
    | () -> false
    | exception Vliw_sim.Invariants.Violation _ -> true);
  (* a snapshot without attribution counters is a no-op *)
  Vliw_sim.Invariants.check_attribution Counters.empty;
  (* the event-slot laws: a real run's registry passes, and one bumped
     event counter breaks it, unless a restored cell is merged in *)
  let reg = Counters.create () in
  ignore
    (Vliw_sim.Multitask.run
       (Vliw_sim.Config.make (Vliw_merge.Catalog.find_exn "2SC3").scheme)
       ~seed:7L ~schedule:Vliw_sim.Multitask.quick_schedule ~counters:reg
       (Vliw_workloads.Mixes.find_exn "LLHH").members);
  let snap = Counters.snapshot reg in
  Vliw_sim.Invariants.check_attribution snap;
  let bump name (s : Counters.snapshot) =
    {
      s with
      counters =
        List.map (fun (k, v) -> if k = name then (k, v + 1) else (k, v)) s.counters;
    }
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " + 1 caught") true
        (match Vliw_sim.Invariants.check_attribution (bump name snap) with
        | () -> false
        | exception Vliw_sim.Invariants.Violation _ -> true))
    [ "events.issue"; "events.fetch_stall" ];
  let restored = Counters.create () in
  Counters.incr (Counters.counter restored Report.n_sweep_resumed);
  Vliw_sim.Invariants.check_attribution
    (Counters.merge (bump "events.issue" snap) (Counters.snapshot restored))

let test_select_probe () =
  List.iter
    (fun name ->
      Vliw_sim.Invariants.check_select ~samples:32
        (Vliw_merge.Catalog.find_exn name).scheme)
    [ "1S"; "2SC3"; "3SSS"; "C4" ]

let test_enforced_flag () =
  let before = Vliw_sim.Invariants.enforced () in
  Fun.protect
    ~finally:(fun () -> Vliw_sim.Invariants.set_enforced before)
    (fun () ->
      Vliw_sim.Invariants.set_enforced false;
      Alcotest.(check bool) "off" false (Vliw_sim.Invariants.enforced ());
      Vliw_sim.Invariants.set_enforced true;
      Alcotest.(check bool) "on" true (Vliw_sim.Invariants.enforced ()))

let suite =
  ( "faults",
    [
      Alcotest.test_case "atomic csv write" `Quick test_atomic_write_success;
      Alcotest.test_case "atomic write failure keeps old file" `Quick
        test_atomic_write_failure_preserves_old;
      Alcotest.test_case "csv quoting round-trip" `Quick
        test_csv_quoting_roundtrip;
      Alcotest.test_case "pool run_results isolates" `Quick
        test_pool_run_results_isolates;
      Alcotest.test_case "pool run_results worker-dependent" `Quick
        test_pool_run_results_worker_dependent;
      Alcotest.test_case "checkpoint round-trip" `Quick
        test_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint rejects garbage" `Quick
        test_checkpoint_rejects_garbage;
      Alcotest.test_case "degraded cell" `Quick test_degraded_cell;
      Alcotest.test_case "degraded study cell is warned" `Quick
        test_degraded_study_cell_warned;
      Alcotest.test_case "fault injection acceptance" `Slow
        test_fault_injection_acceptance;
      Alcotest.test_case "injected faults keep results bit-identical" `Quick
        test_injected_faults_do_not_change_results;
      Alcotest.test_case "cell timeout" `Quick test_cell_timeout;
      Alcotest.test_case "unshared equivalent schemes simulate equal" `Quick
        test_unshared_equivalents;
      Alcotest.test_case "sharing keys" `Quick test_share_keys;
      Alcotest.test_case "shared class: every cell reported" `Quick
        test_shared_class_contract;
      Alcotest.test_case "shared class: faults stay per cell" `Quick
        test_shared_class_faults;
      Alcotest.test_case "shared class: half-journaled resume" `Quick
        test_shared_class_resume;
      Tgen.to_alcotest prop_resume_bit_identical;
      Alcotest.test_case "resume ignores mismatched journal" `Quick
        test_resume_ignores_mismatched_journal;
      Alcotest.test_case "invariants pass on real run" `Quick
        test_invariants_pass_on_real_run;
      Alcotest.test_case "invariants catch corruption" `Quick
        test_invariants_catch_corruption;
      Alcotest.test_case "attribution check" `Quick test_attribution_check;
      Alcotest.test_case "select probe" `Quick test_select_probe;
      Alcotest.test_case "enforced flag" `Quick test_enforced_flag;
    ] )
