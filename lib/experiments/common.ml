type scale = Quick | Default | Full

let schedule_of_scale = function
  | Quick ->
    { Vliw_sim.Multitask.timeslice = 5_000; target_instrs = 15_000; max_cycles = 40_000 }
  | Default ->
    (* Effectively a fixed 400k-cycle horizon: the instruction target is
       unreachable within it, so every scheme sees the same cycle budget
       and rates compare without truncation bias. *)
    { Vliw_sim.Multitask.timeslice = 50_000; target_instrs = 1_000_000; max_cycles = 400_000 }
  | Full ->
    {
      Vliw_sim.Multitask.timeslice = 1_000_000;
      target_instrs = 5_000_000;
      max_cycles = 20_000_000;
    }

let scale_name = function
  | Quick -> "quick"
  | Default -> "default"
  | Full -> "full"

let scale_of_name = function
  | "quick" -> Some Quick
  | "default" -> Some Default
  | "full" -> Some Full
  | _ -> None

let default_seed = 0xC5EEDL

(* Degraded sweep cells carry [nan]; every renderer funnels through here
   so they surface as "n/a" instead of a garbage number. *)
let ipc_string ?(decimals = 4) v =
  if Float.is_nan v then "n/a" else Printf.sprintf "%.*f" decimals v

type grid = {
  scheme_names : string list;
  mix_names : string list;
  ipc : float array array;
  index : (string, int) Hashtbl.t;
      (* scheme name -> column, built once at grid construction *)
}

(* Grids are only built here so every grid carries its column lookup;
   the (mix x scheme) execution itself lives in [Sweep]. *)
let make_grid ~scheme_names ~mix_names ~ipc =
  let index = Hashtbl.create (List.length scheme_names) in
  List.iteri (fun j name -> Hashtbl.replace index name j) scheme_names;
  { scheme_names; mix_names; ipc; index }

let scheme_index grid name =
  match Hashtbl.find_opt grid.index name with
  | Some j -> j
  | None -> invalid_arg ("grid: unknown scheme " ^ name)

let grid_column grid name =
  let j = scheme_index grid name in
  Array.map (fun row -> row.(j)) grid.ipc

let grid_average grid name = Vliw_util.Stats.mean (grid_column grid name)

(* Whole-grid mean, skipping degraded (nan) cells so one failed cell
   doesn't poison a run-level summary gauge. *)
let grid_mean grid =
  let sum = ref 0.0 and n = ref 0 in
  Array.iter
    (Array.iter (fun v ->
         if not (Float.is_nan v) then begin
           sum := !sum +. v;
           incr n
         end))
    grid.ipc;
  if !n = 0 then Float.nan else !sum /. float_of_int !n

let grid_csv grid =
  let header = "mix" :: grid.scheme_names in
  let rows =
    List.mapi
      (fun i mix -> mix :: Array.to_list (Array.map ipc_string grid.ipc.(i)))
      grid.mix_names
  in
  (header, rows)
