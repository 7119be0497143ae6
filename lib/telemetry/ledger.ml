(* The run ledger: a durable, append-only history of simulation runs.

   Every `vliwsim exp|run|dist` invocation and `serve` job appends one
   JSONL line to [_runs/ledger.jsonl] recording what ran (command, label, git
   revision, configuration fingerprint), how (scale, seed, jobs,
   wall-clock), and what came out: the per-cell IPC grid with each
   cell's IEEE-754 bit image, the merged telemetry counter snapshot,
   and the sweep's fault-tolerance stats (retries / degraded cells /
   timeouts / resumed cells). That makes cross-revision drift a
   first-class query — `vliwsim runs diff A B` bit-compares two grids
   and names the first differing (mix, scheme) cell — and feeds the
   HTML report's cross-run trajectory chart.

   Storage discipline:
   - IPC values are stored twice: a decimal [ipc] for human readers and
     grep, and the hex bit image [bits] which is authoritative. A run
     round-tripped through the ledger diffs as Identical against the
     original, including nan (degraded) cells.
   - Every writer ([append], [merge], [gc]) holds an fcntl lock on the
     sidecar [ledger.jsonl.lock] (see [Vliw_util.Atomic_io.with_lock]),
     so several processes can share one [_runs/] — a live `serve`
     daemon beside `exp` or `dist` — without losing a record.
   - An append is O(record): one O_APPEND write of a complete line. A
     kill mid-append can leave a torn last line; [load] skips it like
     any malformed line, and the next append starts on a fresh line.
     [gc] rewrites the file through a temp file + rename.
   - Ids are "r1", "r2", ... and every writer keeps them increasing in
     file order: [append] and [merge] number new records past the last
     complete line's id, and [gc] keeps survivors in order. That
     invariant lets [append] read its next id from the file's tail, not
     the whole file; a tail line with no numeric id (a foreign or
     corrupt line) falls back to the max over a full scan. *)

type cell = {
  mix : string;
  scheme : string;
  ipc : float;  (* nan for a degraded cell; compared via its bits *)
  elapsed_s : float;
  started_s : float;
  worker : int;
  attempts : int;
  degraded : bool;
}

type run = {
  id : string;  (* "" until [append] assigns one *)
  time_s : float;  (* unix epoch seconds when the record was made *)
  cmd : string;  (* exp | run | serve | dist *)
  label : string;  (* experiment id, "SCHEME on MIX"... *)
  git_rev : string;
  fingerprint : string;  (* hash of (scale, seed, schemes, mixes) *)
  scale : string;
  seed : int64;
  jobs : int;
  scheme_names : string list;
  mix_names : string list;
  policy : string;
      (* controller policy of adaptive runs ("static" for plain sweeps);
         part of the fingerprint, so adaptive never collides with static *)
  wall_s : float;
  cells : cell array;  (* mix-major, possibly empty for summary records *)
  counters : (string * int) list;  (* merged telemetry snapshot *)
  gauges : (string * float) list;  (* scalar results (ipc.mean, ...) *)
  retries : int;
  degraded : int;
  timeouts : int;
  resumed : int;
}

let default_dir = "_runs"

let ledger_path ~dir = Filename.concat dir "ledger.jsonl"

(* --- hashing ---------------------------------------------------------- *)

let fnv1a64 init s =
  String.fold_left
    (fun acc c ->
      Int64.mul (Int64.logxor acc (Int64.of_int (Char.code c))) 0x100000001B3L)
    init s

let fnv_offset = 0xCBF29CE484222325L

(* The policy joins the key only when non-static, so every fingerprint
   recorded before adaptive runs existed is preserved verbatim. *)
let fingerprint_of ?(policy = "static") ~scale ~seed ~scheme_names ~mix_names ()
    =
  let key =
    String.concat "\x00"
      ((scale :: Printf.sprintf "0x%Lx" seed :: scheme_names)
      @ ("|" :: mix_names)
      @ (if policy = "static" then [] else [ "policy:" ^ policy ]))
  in
  Printf.sprintf "%016Lx" (fnv1a64 fnv_offset key)

let grid_digest cells =
  let h = ref fnv_offset in
  Array.iter
    (fun c ->
      h := fnv1a64 !h (c.mix ^ "/" ^ c.scheme);
      h := fnv1a64 !h (Printf.sprintf "%Lx" (Int64.bits_of_float c.ipc)))
    cells;
  Printf.sprintf "%016Lx" !h

(* --- environment ------------------------------------------------------ *)

(* Resolved once per process, on first use: the code a process runs
   cannot change under it, so this is also the right revision for a
   long-lived daemon, and records cost no fork. *)
let git_rev =
  lazy
    (match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | exception _ -> "unknown"
    | ic ->
      let line = try input_line ic with End_of_file -> "" in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
      | exception _ -> "unknown"))

let make ?(counters = []) ?(gauges = []) ?(cells = [||]) ?(policy = "static")
    ~cmd ~label ~scale ~seed ~jobs ~scheme_names ~mix_names ~wall_s () =
  let count name = try List.assoc name counters with Not_found -> 0 in
  {
    id = "";
    time_s = Unix.gettimeofday ();
    cmd;
    label;
    git_rev = Lazy.force git_rev;
    fingerprint = fingerprint_of ~policy ~scale ~seed ~scheme_names ~mix_names ();
    scale;
    seed;
    jobs;
    scheme_names;
    mix_names;
    policy;
    wall_s;
    cells;
    counters;
    gauges;
    retries =
      Array.fold_left (fun acc c -> acc + max 0 (c.attempts - 1)) 0 cells;
    degraded =
      Array.fold_left
        (fun acc (c : cell) -> acc + (if c.degraded then 1 else 0))
        0 cells;
    timeouts = count "sweep.timeouts";
    resumed = count "sweep.resumed_cells";
  }

let mean_ipc run =
  let sum = ref 0.0 and n = ref 0 in
  Array.iter
    (fun c ->
      if not (Float.is_nan c.ipc) then begin
        sum := !sum +. c.ipc;
        incr n
      end)
    run.cells;
  if !n = 0 then Float.nan else !sum /. float_of_int !n

(* --- JSON (de)serialization ------------------------------------------ *)

module J = Vliw_util.Json

let hex64 v = Printf.sprintf "0x%Lx" v

let cell_to_json c =
  J.Obj
    ([
       ("mix", J.Str c.mix);
       ("scheme", J.Str c.scheme);
       ("ipc", J.Num c.ipc);
       ("bits", J.Str (hex64 (Int64.bits_of_float c.ipc)));
       ("t", J.Num c.elapsed_s);
       ("at", J.Num c.started_s);
       ("w", J.Num (float_of_int c.worker));
       ("n", J.Num (float_of_int c.attempts));
     ]
    @ if c.degraded then [ ("deg", J.Bool true) ] else [])

let to_json r =
  J.Obj
    ([
      ("schema", J.Num 1.0);
      ("id", J.Str r.id);
      ("time_s", J.Num r.time_s);
      ("cmd", J.Str r.cmd);
      ("label", J.Str r.label);
      ("git", J.Str r.git_rev);
      ("fp", J.Str r.fingerprint);
      ("scale", J.Str r.scale);
      ("seed", J.Str (hex64 r.seed));
      ("jobs", J.Num (float_of_int r.jobs));
      ("schemes", J.List (List.map (fun s -> J.Str s) r.scheme_names));
      ("mixes", J.List (List.map (fun s -> J.Str s) r.mix_names));
    ]
    @ (* serialized only when non-static: records written before the
         field existed load back identically *)
    (if r.policy = "static" then [] else [ ("policy", J.Str r.policy) ])
    @ [
      ("wall_s", J.Num r.wall_s);
      ("digest", J.Str (grid_digest r.cells));
      ("cells", J.List (Array.to_list (Array.map cell_to_json r.cells)));
      ( "counters",
        J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) r.counters)
      );
      ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) r.gauges));
      ("retries", J.Num (float_of_int r.retries));
      ("degraded", J.Num (float_of_int r.degraded));
      ("timeouts", J.Num (float_of_int r.timeouts));
      ("resumed", J.Num (float_of_int r.resumed));
    ])

let str_field j key = Option.bind (J.member key j) J.to_string_opt

let num_field j key = Option.bind (J.member key j) J.to_float

let int_field j key default =
  match Option.bind (J.member key j) J.to_int with Some v -> v | None -> default

let names_field j key =
  match Option.bind (J.member key j) J.to_list with
  | Some items -> List.filter_map J.to_string_opt items
  | None -> []

let cell_of_json j =
  match (str_field j "mix", str_field j "scheme") with
  | Some mix, Some scheme ->
    (* [bits] is authoritative when present (exact, nan-safe); the
       decimal [ipc] is the fallback for hand-written records. *)
    let ipc =
      match Option.bind (str_field j "bits") Int64.of_string_opt with
      | Some bits -> Int64.float_of_bits bits
      | None -> (
        match num_field j "ipc" with Some v -> v | None -> Float.nan)
    in
    Some
      {
        mix;
        scheme;
        ipc;
        elapsed_s = Option.value ~default:0.0 (num_field j "t");
        started_s = Option.value ~default:0.0 (num_field j "at");
        worker = int_field j "w" 0;
        attempts = int_field j "n" 1;
        degraded =
          (match Option.bind (J.member "deg" j) J.to_bool with
          | Some b -> b
          | None -> false);
      }
  | _ -> None

let assoc_of_obj j key of_num =
  match J.member key j with
  | Some (J.Obj fields) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun n -> (k, of_num n)) (J.to_float v))
      fields
  | _ -> []

let of_json j =
  match (str_field j "cmd", str_field j "label") with
  | Some cmd, Some label ->
    let cells =
      match Option.bind (J.member "cells" j) J.to_list with
      | Some items -> Array.of_list (List.filter_map cell_of_json items)
      | None -> [||]
    in
    Some
      {
        id = Option.value ~default:"" (str_field j "id");
        time_s = Option.value ~default:0.0 (num_field j "time_s");
        cmd;
        label;
        git_rev = Option.value ~default:"unknown" (str_field j "git");
        fingerprint = Option.value ~default:"" (str_field j "fp");
        scale = Option.value ~default:"default" (str_field j "scale");
        seed =
          Option.value ~default:0L
            (Option.bind (str_field j "seed") Int64.of_string_opt);
        jobs = int_field j "jobs" 1;
        scheme_names = names_field j "schemes";
        mix_names = names_field j "mixes";
        policy = Option.value ~default:"static" (str_field j "policy");
        wall_s = Option.value ~default:0.0 (num_field j "wall_s");
        cells;
        counters = assoc_of_obj j "counters" int_of_float;
        gauges = assoc_of_obj j "gauges" Fun.id;
        retries = int_field j "retries" 0;
        degraded = int_field j "degraded" 0;
        timeouts = int_field j "timeouts" 0;
        resumed = int_field j "resumed" 0;
      }
  | _ -> None

(* --- persistence ------------------------------------------------------ *)

let load ~dir =
  let path = ledger_path ~dir in
  if not (Sys.file_exists path) then []
  else begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           if String.trim line = "" then None
           else
             match J.parse line with
             | Ok j -> of_json j
             | Error _ -> None (* torn/corrupt line: skip, don't abort *))
  end

module Atomic_io = Vliw_util.Atomic_io

let numeric_id r =
  if String.length r.id > 1 && r.id.[0] = 'r' then
    int_of_string_opt (String.sub r.id 1 (String.length r.id - 1))
  else None

(* The next id: one past the last complete line's, which is the maximum
   because every writer keeps ids increasing in file order. A tail line
   with no numeric id falls back to max+1 over the whole file — max+1,
   not count+1, since [gc] leaves gaps in the sequence and a fresh id
   must never collide with a surviving record's. Call under the lock. *)
let next_id ~dir =
  let tail =
    Option.bind (Atomic_io.last_line ~path:(ledger_path ~dir)) (fun line ->
        match J.parse line with
        | Ok j -> Option.bind (of_json j) numeric_id
        | Error _ -> None)
  in
  1
  + match tail with
    | Some n -> n
    | None ->
      List.fold_left
        (fun acc r -> match numeric_id r with Some n -> max acc n | None -> acc)
        0 (load ~dir)

let to_line r = J.to_string (to_json r)

let ensure_dir dir =
  try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()

let append ~dir run =
  ensure_dir dir;
  let path = ledger_path ~dir in
  Atomic_io.with_lock ~path (fun () ->
      let run = { run with id = Printf.sprintf "r%d" (next_id ~dir) } in
      Atomic_io.append_lines ~path [ to_line run ];
      run)

type gc_report = { kept : run list; dropped : run list }

(* Deduplication key: configuration fingerprint AND grid digest. Two
   records with the same fingerprint but different bits are drift
   evidence (same config, different code revisions) — gc must never
   collapse them, or [runs diff] loses its witnesses. *)
let dedup_key r = r.fingerprint ^ "\x00" ^ grid_digest r.cells

(* The load and the rewrite share one lock hold, so a record appended
   meanwhile cannot be lost to the rename. *)
let gc ?(dry_run = false) ~dir () =
  let path = ledger_path ~dir in
  let compact () =
    let runs = load ~dir in
    let newest = Hashtbl.create 16 in
    List.iteri (fun i r -> Hashtbl.replace newest (dedup_key r) i) runs;
    let kept = ref [] and dropped = ref [] in
    List.iteri
      (fun i r ->
        if Hashtbl.find newest (dedup_key r) = i then kept := r :: !kept
        else dropped := r :: !dropped)
      runs;
    let report = { kept = List.rev !kept; dropped = List.rev !dropped } in
    if (not dry_run) && report.dropped <> [] then
      Atomic_io.write_file ~path
        (String.concat "" (List.map (fun r -> to_line r ^ "\n") report.kept));
    report
  in
  if dry_run || not (Sys.file_exists path) then compact ()
  else Atomic_io.with_lock ~path compact

type merge_report = { added : run list; skipped : run list }

(* Merging worker ledgers reuses [gc]'s deduplication key: a record
   whose (fingerprint, grid digest) pair is already represented in the
   target — or by an earlier source record this merge added — is an
   identical result computed twice and is skipped. Same-fingerprint
   records with different bits are drift evidence and always merge.
   Added records get fresh target ids, numbered on from the tail in one
   lock hold with their append; their content (including the original
   timestamp and git revision) is preserved verbatim. *)
let merge ?(dry_run = false) ~dir ~from () =
  let path = ledger_path ~dir in
  let plan () =
    let seen = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace seen (dedup_key r) ()) (load ~dir);
    let next = ref (next_id ~dir) in
    let added = ref [] and skipped = ref [] in
    List.iter
      (fun src ->
        List.iter
          (fun r ->
            if Hashtbl.mem seen (dedup_key r) then skipped := r :: !skipped
            else begin
              Hashtbl.replace seen (dedup_key r) ();
              added := { r with id = Printf.sprintf "r%d" !next } :: !added;
              incr next
            end)
          (load ~dir:src))
      from;
    { added = List.rev !added; skipped = List.rev !skipped }
  in
  if dry_run then plan ()
  else begin
    ensure_dir dir;
    Atomic_io.with_lock ~path (fun () ->
        let report = plan () in
        if report.added <> [] then
          Atomic_io.append_lines ~path (List.map to_line report.added);
        report)
  end

let find ~dir wanted =
  let runs = load ~dir in
  match List.find_opt (fun r -> r.id = wanted) runs with
  | Some r -> Some r
  | None ->
    (* "latest" convenience alias, so scripts need no id bookkeeping. *)
    if wanted = "latest" then
      match List.rev runs with last :: _ -> Some last | [] -> None
    else None

let latest ~dir =
  match List.rev (load ~dir) with last :: _ -> Some last | [] -> None

(* --- drift ------------------------------------------------------------ *)

type drift =
  | Identical
  | Shape_mismatch of string
  | Drift of {
      mix : string;
      scheme : string;
      ipc_a : float;
      ipc_b : float;
      differing : int;
    }

let diff a b =
  let keys r =
    Array.to_list (Array.map (fun c -> (c.mix, c.scheme)) r.cells)
  in
  if Array.length a.cells <> Array.length b.cells then
    Shape_mismatch
      (Printf.sprintf "%d cells vs %d cells" (Array.length a.cells)
         (Array.length b.cells))
  else if keys a <> keys b then
    Shape_mismatch "cell (mix, scheme) layouts differ"
  else begin
    let first = ref None and differing = ref 0 in
    Array.iteri
      (fun i ca ->
        let cb = b.cells.(i) in
        if Int64.bits_of_float ca.ipc <> Int64.bits_of_float cb.ipc then begin
          incr differing;
          if !first = None then first := Some (ca, cb)
        end)
      a.cells;
    match !first with
    | None -> Identical
    | Some (ca, cb) ->
      Drift
        {
          mix = ca.mix;
          scheme = ca.scheme;
          ipc_a = ca.ipc;
          ipc_b = cb.ipc;
          differing = !differing;
        }
  end
