type point = { param : string; csmt : float; mixed : float; smt : float }

type sweep = { title : string; points : point list }

let schemes = [ "3CCC"; "2SC3"; "3SSS" ]

(* One sweep: a row per parameter point (label, machine, timeslice
   override), compiled for that point's machine; one column per pivotal
   scheme. *)
let measure ?(scale = Common.Default) ?(seed = Common.default_seed) ?jobs
    ?max_retries ?on_event ?(memo = Sweep.memo ()) ?(mix = "LLHH") title points =
  let base = Common.schedule_of_scale scale in
  let members = (Vliw_workloads.Mixes.find_exn mix).members in
  let rows =
    List.map
      (fun (param, machine, timeslice) ->
        let schedule =
          { base with timeslice = Option.value timeslice ~default:base.timeslice }
        in
        Sweep.row ~memo ~machine ~schedule ~compile_seed:seed ~seed param members)
      points
  in
  let grid =
    Sweep.run ~scale ~seed ~rows ~scheme_names:schemes ?jobs
      ?max_retries ?on_event ~memo ()
  in
  {
    title;
    points =
      List.mapi
        (fun i (param, _, _) ->
          let ipc = grid.ipc.(i) in
          { param; csmt = ipc.(0); mixed = ipc.(1); smt = ipc.(2) })
        points;
  }

let default = Vliw_isa.Machine.default

let miss_penalty ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix () =
  measure ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix
    "DCache/ICache miss penalty (paper: 20 cycles)"
    (List.map
       (fun p ->
         (Printf.sprintf "%d cycles" p, { default with miss_penalty = p }, None))
       [ 10; 20; 40; 80 ])

let dcache_size ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix () =
  measure ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix
    "DCache size (paper: 64 KB)"
    (List.map
       (fun kb ->
         ( Printf.sprintf "%d KB" kb,
           { default with dcache = { default.dcache with size_bytes = kb * 1024 } },
           None ))
       [ 16; 32; 64; 128 ])

let branch_penalty ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix () =
  measure ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix
    "Taken-branch penalty (paper: 2 cycles)"
    (List.map
       (fun p ->
         (Printf.sprintf "%d cycles" p, { default with branch_penalty = p }, None))
       [ 0; 2; 4; 8 ])

let timeslice ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix () =
  measure ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix
    "OS timeslice (paper: 1M cycles at full scale)"
    (List.map
       (fun ts -> (Printf.sprintf "%dk cycles" (ts / 1000), default, Some ts))
       [ 10_000; 50_000; 200_000 ])

let predictor ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix () =
  measure ?scale ?seed ?jobs ?max_retries ?on_event ?memo ?mix
    "Branch predictor (paper: none, fall-through predicted)"
    (List.map
       (fun (label, p) -> (label, { default with predictor = p }, None))
       [
         ("none", Vliw_isa.Machine.No_predictor);
         ("bimodal 512", Vliw_isa.Machine.Bimodal 512);
         ("bimodal 4096", Vliw_isa.Machine.Bimodal 4096);
       ])

let all ?scale ?seed ?jobs ?max_retries ?on_event ?(memo = Sweep.memo ()) ?mix () =
  List.map
    (fun (sweep : (?mix:string -> unit -> sweep) Sweep.study) ->
      sweep ?scale ?seed ?jobs ?max_retries ?on_event ~memo ?mix ())
    [ miss_penalty; dcache_size; branch_penalty; timeslice; predictor ]

let render sweep =
  let table =
    Vliw_util.Text_table.create
      ~header:[ "Value"; "3CCC"; "2SC3"; "3SSS"; "2SC3 vs CSMT" ]
  in
  List.iter
    (fun p ->
      Vliw_util.Text_table.add_row table
        [
          p.param;
          Printf.sprintf "%.2f" p.csmt;
          Printf.sprintf "%.2f" p.mixed;
          Printf.sprintf "%.2f" p.smt;
          Printf.sprintf "%+.0f%%" (Vliw_util.Stats.pct_diff p.mixed p.csmt);
        ])
    sweep.points;
  sweep.title ^ "\n" ^ Vliw_util.Text_table.render table

let render_all sweeps =
  "Sensitivity sweeps (mix LLHH)\n\n"
  ^ String.concat "\n" (List.map render sweeps)
