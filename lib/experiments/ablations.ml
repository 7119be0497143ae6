type variant = {
  label : string;
  rotate_priority : bool;
  stall_on_dmiss : bool;
  routing : Vliw_merge.Conflict.routing_mode;
}

let baseline =
  {
    label = "baseline";
    rotate_priority = true;
    stall_on_dmiss = true;
    routing = Vliw_merge.Conflict.Flexible;
  }

let variants =
  [
    baseline;
    { baseline with label = "no-rotation"; rotate_priority = false };
    { baseline with label = "nonblocking-dmiss"; stall_on_dmiss = false };
    {
      baseline with
      label = "fixed-slot-smt";
      routing = Vliw_merge.Conflict.Fixed_slots;
    };
  ]

type row = { variant : string; ipc_by_scheme : (string * float) list }

(* One row per mix; one column per (variant, scheme), each applying its
   variant's knobs to the scheme's configuration. *)
let run ?(scale = Common.Default) ?(seed = Common.default_seed) ?jobs
    ?max_retries ?on_event ?(memo = Sweep.memo ())
    ?(schemes = [ "3CCC"; "2SC3"; "3SSS" ])
    ?(mixes = [ "LLLL"; "LLHH"; "HHHH" ]) () =
  let schedule = Common.schedule_of_scale scale in
  let rows =
    List.map
      (fun mix ->
        Sweep.row ~memo ~schedule ~compile_seed:seed ~seed mix
          (Vliw_workloads.Mixes.find_exn mix).members)
      mixes
  in
  let name v scheme = v.label ^ "/" ^ scheme in
  let column v scheme =
    Sweep.column
      ~config:(fun c ->
        {
          c with
          Vliw_sim.Config.rotate_priority = v.rotate_priority;
          stall_on_dmiss = v.stall_on_dmiss;
          routing = v.routing;
        })
      (name v scheme) (Vliw_merge.Catalog.find_exn scheme).scheme
  in
  let grid =
    Sweep.run ~scale ~seed ~rows
      ~columns:(List.concat_map (fun v -> List.map (column v) schemes) variants)
      ?jobs ?max_retries ?on_event ~memo ()
  in
  List.map
    (fun v ->
      {
        variant = v.label;
        ipc_by_scheme =
          List.map (fun s -> (s, Common.grid_average grid (name v s))) schemes;
      })
    variants

let render rows =
  match rows with
  | [] -> "(no ablation rows)\n"
  | first :: _ ->
    let schemes = List.map fst first.ipc_by_scheme in
    let table = Vliw_util.Text_table.create ~header:("Variant" :: schemes) in
    List.iter
      (fun r ->
        Vliw_util.Text_table.add_row table
          (r.variant
          :: List.map (fun (_, ipc) -> Printf.sprintf "%.2f" ipc) r.ipc_by_scheme))
      rows;
    "Ablations: average IPC (LLLL, LLHH, HHHH) under design variants\n"
    ^ Vliw_util.Text_table.render table
