(* Adaptive merging: can a per-timeslice scheme controller beat the
   best static scheme of its hardware-cost class?

   The candidate set is the catalog performance group of the paper's
   pick 2SC3 — five schemes with comparable delay/transistor cost, so
   the controller reconfigures the same hardware envelope rather than
   upgrading the machine. The sweep runs every static member as its own
   column, plus two adaptive columns over identical programs and row
   seeds:

   - "oracle": samples every candidate once, then commits to the best
     observed IPC for the rest of the run (an upper-ish baseline);
   - "adaptive": the telemetry-driven hill-climber with a 2-slice
     explore period, probing along the SMT-block-count axis.

   Adaptive columns pay real reconfiguration penalties (priced by
   [Vliw_cost.Scheme_cost.switch_penalty], charged as issue-stall
   bubbles), so the headline question is honest: does mid-run switching
   recover more IPC than its bubbles cost, anywhere on the mix grid?

   Telemetry is always on for this experiment — the render reports each
   adaptive column's switch counts, stall cycles and per-scheme decision
   trail, all of which live in the cell counter snapshots. Counting is
   observation-only, so results are unchanged. *)

module Controller = Vliw_sim.Controller
module Counters = Vliw_telemetry.Counters
module Report = Vliw_telemetry.Report

(* The initial scheme of every column, and the scheme whose catalog
   performance group defines the candidate set. *)
let anchor_scheme = "2SC3"

let adaptive_policy = Controller.default_hill

let oracle_policy = Controller.default_oracle

let candidates () = Controller.group_candidates anchor_scheme

let static_names () =
  List.map (fun (c : Controller.candidate) -> c.name) (candidates ())

let columns () =
  let candidates = candidates () in
  let static =
    List.map
      (fun (c : Controller.candidate) ->
        Sweep.static_column (Vliw_merge.Catalog.find_exn c.name))
      candidates
  in
  let adaptive name policy =
    {
      (Sweep.column name (Vliw_merge.Catalog.find_exn anchor_scheme).scheme)
      with
      col_controller =
        Some
          (fun () -> Controller.create policy ~candidates ~initial:anchor_scheme);
    }
  in
  static @ [ adaptive "oracle" oracle_policy; adaptive "adaptive" adaptive_policy ]

type data = {
  grid : Common.grid;  (* static members + "oracle" + "adaptive" columns *)
  cells : Sweep.cell array;
  static_names : string list;
  policy : string;  (* the "adaptive" column's policy descriptor *)
}

let run ?scale ?seed ?jobs ?max_retries ?cell_timeout_s ?checkpoint
    ?resume ?log ?on_event () =
  let scheme_names, mix_names, cells =
    Sweep.run_cells ?scale ?seed ~columns:(columns ()) ?jobs
      ~telemetry:true ?max_retries ?cell_timeout_s ?checkpoint ?resume ?log
      ?on_event ()
  in
  let grid = Sweep.grid_of_cells ~scheme_names ~mix_names cells in
  {
    grid;
    cells;
    static_names = static_names ();
    policy = Controller.policy_to_string adaptive_policy;
  }

let mix_index d mix =
  let rec go i = function
    | [] -> invalid_arg ("adaptive: unknown mix " ^ mix)
    | m :: _ when m = mix -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 d.grid.mix_names

(* (name, ipc) of the best static column for one mix row; nan cells
   (degraded) never win. *)
let best_static d mix =
  let mix_idx = mix_index d mix in
  List.fold_left
    (fun (best_name, best_ipc) name ->
      let v = d.grid.ipc.(mix_idx).(Common.scheme_index d.grid name) in
      if (not (Float.is_nan v)) && (Float.is_nan best_ipc || v > best_ipc) then
        (name, v)
      else (best_name, best_ipc))
    ("-", Float.nan) d.static_names

let column_ipc d col mix =
  d.grid.ipc.(mix_index d mix).(Common.scheme_index d.grid col)

(* Mixes where a column strictly beats / at least matches the best
   static member (nan rows are skipped). *)
let wins d col =
  List.fold_left
    (fun (wins, ties) mix ->
      let _, best = best_static d mix in
      let v = column_ipc d col mix in
      if Float.is_nan v || Float.is_nan best then (wins, ties)
      else if v > best then (wins + 1, ties)
      else if v = best then (wins, ties + 1)
      else (wins, ties))
    (0, 0) d.grid.mix_names

(* Per-column switch statistics summed over the mix rows, recovered
   from the cell telemetry: (reconfigurations, stall cycles charged,
   boundary decisions per candidate scheme). *)
let switch_stats d col =
  let switches = ref 0 and stall = ref 0 in
  let decisions = Hashtbl.create 8 in
  Array.iter
    (fun (c : Sweep.cell) ->
      if c.scheme = col then
        match c.telemetry with
        | None -> ()
        | Some snap ->
          switches := !switches + Counters.count snap Report.n_scheme_switches;
          stall := !stall + Counters.count snap Report.n_switch_stall;
          let pl = String.length Report.n_controller_prefix in
          List.iter
            (fun (name, v) ->
              if
                String.length name > pl
                && String.sub name 0 pl = Report.n_controller_prefix
              then begin
                let scheme = String.sub name pl (String.length name - pl) in
                Hashtbl.replace decisions scheme
                  (v
                  + Option.value ~default:0 (Hashtbl.find_opt decisions scheme))
              end)
            snap.Counters.counters)
    d.cells;
  let trail =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) decisions [] |> List.sort compare
  in
  (!switches, !stall, trail)

let mean_over_mixes d f =
  let vals = List.filter_map f d.grid.mix_names in
  match vals with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)

let adaptive_mean d =
  mean_over_mixes d (fun mix ->
      let v = column_ipc d "adaptive" mix in
      if Float.is_nan v then None else Some v)

let best_static_mean d =
  mean_over_mixes d (fun mix ->
      let _, v = best_static d mix in
      if Float.is_nan v then None else Some v)

(* Scalar results for the run ledger. *)
let gauges d =
  let a_wins, a_ties = wins d "adaptive" in
  let o_wins, _ = wins d "oracle" in
  [
    ("ipc.mean", Common.grid_mean d.grid);
    ("adaptive.ipc.mean", adaptive_mean d);
    ("best_static.ipc.mean", best_static_mean d);
    ("adaptive.wins", float_of_int a_wins);
    ("adaptive.ties", float_of_int a_ties);
    ("oracle.wins", float_of_int o_wins);
  ]

let render d =
  let table =
    Vliw_util.Text_table.create
      ~header:
        ("Mix" :: d.static_names
        @ [ "oracle"; "adaptive"; "best static"; "adapt vs best" ])
  in
  List.iter
    (fun mix ->
      let best_name, best = best_static d mix in
      let a = column_ipc d "adaptive" mix in
      let delta =
        if Float.is_nan a || Float.is_nan best || best <= 0.0 then "n/a"
        else Printf.sprintf "%+.1f%%" (100.0 *. ((a /. best) -. 1.0))
      in
      Vliw_util.Text_table.add_row table
        (mix
        :: List.map
             (fun name -> Common.ipc_string ~decimals:2 (column_ipc d name mix))
             d.static_names
        @ [
            Common.ipc_string ~decimals:2 (column_ipc d "oracle" mix);
            Common.ipc_string ~decimals:2 a;
            Printf.sprintf "%s (%s)"
              (Common.ipc_string ~decimals:2 best)
              best_name;
            delta;
          ]))
    d.grid.mix_names;
  let a_wins, a_ties = wins d "adaptive" in
  let o_wins, o_ties = wins d "oracle" in
  let n_mixes = List.length d.grid.mix_names in
  let switch_lines =
    String.concat ""
      (List.map
         (fun col ->
           let switches, stall, trail = switch_stats d col in
           Printf.sprintf
             "%-8s %d reconfiguration(s), %d stall cycle(s) charged; \
              decisions: %s\n"
             col switches stall
             (if trail = [] then "-"
              else
                String.concat ", "
                  (List.map
                     (fun (name, v) -> Printf.sprintf "%s x%d" name v)
                     trail)))
         [ "oracle"; "adaptive" ])
  in
  Printf.sprintf
    "Adaptive merging: per-timeslice controller vs the %s cost group\n"
    anchor_scheme
  ^ Printf.sprintf "  policy: %s, candidates: %s\n" d.policy
      (String.concat ", " d.static_names)
  ^ Vliw_util.Text_table.render table
  ^ Printf.sprintf
      "\nAdaptive beats the best static scheme on %d of %d mixes (%d tie(s)); \
       oracle on %d (%d tie(s)).\n"
      a_wins n_mixes a_ties o_wins o_ties
  ^ Printf.sprintf "Mean IPC: adaptive %s vs best-static %s.\n"
      (Common.ipc_string ~decimals:4 (adaptive_mean d))
      (Common.ipc_string ~decimals:4 (best_static_mean d))
  ^ switch_lines

let csv_rows d = Common.grid_csv d.grid
