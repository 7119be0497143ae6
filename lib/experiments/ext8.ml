module S = Vliw_merge.Scheme

type entry = { name : string; scheme : S.t; description : string }

let t = S.thread

let schemes =
  [
    {
      name = "C8";
      scheme = S.csmt_par 8;
      description = "8-input parallel CSMT block";
    };
    {
      name = "CSMT8";
      scheme = S.csmt_cascade 8;
      description = "8-thread serial CSMT cascade";
    };
    {
      name = "2SC7";
      scheme =
        S.csmt_parallel (S.smt (t 0) (t 1) :: List.init 6 (fun i -> t (i + 2)));
      description = "one SMT pair, rest merged by parallel CSMT (2SC3 scaled)";
    };
    {
      name = "SP4C";
      scheme =
        S.csmt_parallel
          [ S.smt (t 0) (t 1); S.smt (t 2) (t 3); S.smt (t 4) (t 5); S.smt (t 6) (t 7) ];
      description = "four SMT pairs merged by a 4-input parallel CSMT";
    };
    {
      name = "4SC5";
      scheme =
        (let smt4 = S.smt (S.smt (S.smt (t 0) (t 1)) (t 2)) (t 3) in
         S.csmt_parallel (smt4 :: List.init 4 (fun i -> t (i + 4))));
      description = "4-thread SMT cascade, rest merged by parallel CSMT";
    };
    {
      name = "SMT8";
      scheme = S.smt_cascade 8;
      description = "8-thread serial SMT cascade";
    };
  ]

type row = { name : string; delay : float; transistors : float; avg_ipc : float }

let doubled_mixes () =
  List.map
    (fun (mix : Vliw_workloads.Mixes.t) ->
      (mix.name ^ "x2", mix.members @ mix.members))
    Vliw_workloads.Mixes.all

let run ?(scale = Common.Default) ?(seed = Common.default_seed) ?jobs
    ?max_retries ?on_event ?(memo = Sweep.memo ()) () =
  let schedule = Common.schedule_of_scale scale in
  let rows =
    List.map
      (fun (name, members) ->
        Sweep.row ~memo ~stream:`Doubled ~schedule ~compile_seed:seed ~seed name
          members)
      (doubled_mixes ())
  in
  let grid =
    Sweep.run ~scale ~seed ~rows
      ~columns:(List.map (fun (e : entry) -> Sweep.column e.name e.scheme) schemes)
      ?jobs ?max_retries ?on_event ~memo ()
  in
  List.map
    (fun (e : entry) ->
      {
        name = e.name;
        delay = Vliw_cost.Scheme_cost.delay e.scheme;
        transistors = Vliw_cost.Scheme_cost.transistors e.scheme;
        avg_ipc = Common.grid_average grid e.name;
      })
    schemes

let render rows =
  let table =
    Vliw_util.Text_table.create
      ~header:[ "Scheme"; "Gate delays"; "Transistors"; "Avg IPC" ]
  in
  List.iter
    (fun r ->
      Vliw_util.Text_table.add_row table
        [
          r.name;
          Printf.sprintf "%.1f" r.delay;
          Printf.sprintf "%.0f" r.transistors;
          Printf.sprintf "%.2f" r.avg_ipc;
        ])
    rows;
  "Extension: 8-thread merging schemes (cost model + doubled Table 2 mixes)\n"
  ^ Vliw_util.Text_table.render table
