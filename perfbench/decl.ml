(* What the benchmark measures, as the code computes it: every metric's
   name, unit and direction, and for each layer metric the end-to-end
   metric (on one workload) it is expected to move. BENCHMARK.json
   declares the same names for the outside world; [check] holds the two
   together. *)

open Probe

let end_to_end =
  [
    lower "setup_s" "s";
    lower "wall_s" "s";
    lower "op_ms_p50" "ms";
  ]

(* Layer metrics a traced round of the workload itself yields; the
   workload-specific ones read 0 on workloads that do not run the
   layer. *)
let round_layers =
  [
    lower "trace.overhead_frac" "ratio";
    lower "trace.closure_ratio" "ratio";
    lower "layer.compile_frac" "ratio";
    higher "layer.simulate_frac" "ratio";
    lower "layer.control_frac" "ratio";
    lower "layer.residual_frac" "ratio";
    lower "proc.peak_rss_mb" "MiB";
    higher "serve.cache_hit_frac" "ratio";
    lower "serve.cells_simulated" "count";
    lower "serve.ledger_append_frac" "ratio";
    lower "dist.shards_dispatched" "count";
    lower "dist.shards_requeued" "count";
    lower "dist.workers_died" "count";
    lower "dist.cells_degraded" "count";
    higher "dist.worker_busy_frac" "ratio";
    lower "dist.spawn_s" "s";
  ]
  @ List.map (fun id -> lower ("registry.entry_frac." ^ id) "ratio") Workload.registry_ids

let per_layer = Layers.metrics @ round_layers

(* The end-to-end metric and workload each layer metric should move. *)
let moves name =
  let p prefix = String.starts_with ~prefix name in
  if p "core.step_observed_ns." || p "core.words_per_cycle_observed." || p "proc." then
    ("wall_s", "grid-observed")
  else if p "core." || p "mem." || p "sweep.simulate_cell" || p "layer.simulate"
          || p "trace."
  then ("wall_s", "grid-default")
  else if p "merge." then ("op_ms_p50", "grid-default")
  else if p "compiler." || p "layer.compile" || p "layer.residual" || p "registry."
  then ("wall_s", "exp-all-quick")
  else if p "sweep.prepare_row" || p "serve.cells_simulated" then
    ("op_ms_p50", "serve-cold")
  else if p "ledger.load" then ("setup_s", "serve-warm")
  else if p "ledger." || p "serve.ledger" then ("wall_s", "serve-warm")
  else if p "json." || p "serve." || p "layer.control" then ("op_ms_p50", "serve-warm")
  else if p "dist.spawn" then ("setup_s", "dist-replicates")
  else if p "dist." then ("wall_s", "dist-replicates")
  else invalid_arg ("moves: undeclared layer metric " ^ name)

(* --- BENCHMARK.json -------------------------------------------------------- *)

module J = Vliw_util.Json

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> J.parse text
  | exception Sys_error e -> Error e

let field key doc = J.member key doc

let list_field key doc = Option.value (Option.bind (field key doc) J.to_list) ~default:[]

let name_of doc = Option.bind (field "name" doc) J.to_string_opt

let bounds doc =
  List.filter_map
    (fun m ->
      match (name_of m, Option.bind (field "bound" m) J.to_float) with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (list_field "end_to_end" doc)

(* The largest regression bound a metric may declare. *)
let max_bound = 0.25

let valid_name s =
  let ok c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok s

(* Every problem found in the declaration, checked against the contract
   the file is written to and against the metrics this code computes. *)
let problems doc =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match doc with
  | J.Obj fields ->
    let keys = List.sort compare (List.map fst fields) in
    let want =
      List.sort compare
        [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    in
    if keys <> want then err "top-level keys are %s" (String.concat "," keys)
  | _ -> err "not a JSON object");
  let section key ~lo ~hi ~keys =
    let items = list_field key doc in
    let n = List.length items in
    if n < lo || n > hi then err "%s: %d entries, want %d..%d" key n lo hi;
    List.iter
      (fun item ->
        match item with
        | J.Obj fs ->
          if List.sort compare (List.map fst fs) <> List.sort compare keys then
            err "%s: entry %s has keys %s" key
              (Option.value (name_of item) ~default:"?")
              (String.concat "," (List.map fst fs))
        | _ -> err "%s: entry is not an object" key)
      items;
    List.filter_map name_of items
  in
  let workloads = section "workloads" ~lo:2 ~hi:8 ~keys:[ "name"; "why" ] in
  let e2e =
    section "end_to_end" ~lo:1 ~hi:16 ~keys:[ "name"; "unit"; "better"; "bound" ]
  in
  let layers = section "per_layer" ~lo:1 ~hi:128 ~keys:[ "name"; "unit"; "better" ] in
  let all_names = workloads @ e2e @ layers in
  List.iter (fun n -> if not (valid_name n) then err "bad name %S" n) all_names;
  let rec dups = function
    | a :: (b :: _ as rest) -> if a = b then err "name %S used twice" a; dups rest
    | _ -> ()
  in
  dups (List.sort compare all_names);
  let same what declared computed =
    if List.sort compare declared <> List.sort compare computed then
      err "%s declared {%s} but the benchmark computes {%s}" what
        (String.concat "," declared) (String.concat "," computed)
  in
  same "workloads" workloads Workload.names;
  same "end_to_end" e2e (List.map (fun (m : metric) -> m.name) end_to_end);
  same "per_layer" layers (List.map (fun (m : metric) -> m.name) per_layer);
  let units key metrics =
    List.iter
      (fun item ->
        match
          ( name_of item,
            Option.bind (field "unit" item) J.to_string_opt,
            Option.bind (field "better" item) J.to_string_opt )
        with
        | Some n, Some u, Some b -> (
          match List.find_opt (fun (m : metric) -> m.name = n) metrics with
          | Some m when m.unit <> u || m.better <> b ->
            err "%s: %s is %s/%s in the file, %s/%s in the code" key n u b m.unit m.better
          | _ -> ())
        | _ -> err "%s: entry without name, unit or better" key)
      (list_field key doc)
  in
  units "end_to_end" end_to_end;
  units "per_layer" per_layer;
  List.iter
    (fun (n, b) -> if not (b > 0.0 && b <= max_bound) then err "bound of %s is %g" n b)
    (bounds doc);
  List.iter
    (fun (m : metric) ->
      match moves m.name with
      | e, w ->
        if not (List.mem e e2e) then err "%s moves undeclared metric %s" m.name e;
        if not (List.mem w workloads) then err "%s moves on undeclared workload %s" m.name w
      | exception Invalid_argument e -> err "%s" e)
    per_layer;
  List.rev !errs
