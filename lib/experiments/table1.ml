type row = {
  profile : Vliw_compiler.Profile.t;
  ipc_real : float;
  ipc_perfect : float;
}

(* Two rows per benchmark, real then perfect memory, sharing one
   compiled program; one single-thread column. *)
let run ?(scale = Common.Default) ?(seed = Common.default_seed) ?jobs
    ?max_retries ?on_event ?(memo = Sweep.memo ()) () =
  let schedule = Common.schedule_of_scale scale in
  let rows =
    List.concat_map
      (fun (p : Vliw_compiler.Profile.t) ->
        let real = Sweep.row ~memo ~schedule ~compile_seed:seed ~seed p.name [ p ] in
        [ real; { real with name = p.name ^ "/perfect"; perfect_mem = true } ])
      Vliw_workloads.Benchmarks.all
  in
  let grid =
    Sweep.run ~scale ~seed ~rows ~scheme_names:[ "ST" ] ?jobs
      ?max_retries ?on_event ~memo ()
  in
  List.mapi
    (fun i profile ->
      {
        profile;
        ipc_real = grid.ipc.(2 * i).(0);
        ipc_perfect = grid.ipc.((2 * i) + 1).(0);
      })
    Vliw_workloads.Benchmarks.all

let render rows =
  let table =
    Vliw_util.Text_table.create
      ~header:
        [ "Benchmark"; "ILP"; "Description"; "IPCr"; "paper"; "IPCp"; "paper" ]
  in
  List.iter
    (fun r ->
      Vliw_util.Text_table.add_row table
        [
          r.profile.name;
          Vliw_compiler.Profile.ilp_letter r.profile.ilp;
          r.profile.description;
          Printf.sprintf "%.2f" r.ipc_real;
          Printf.sprintf "%.2f" r.profile.target_ipc_real;
          Printf.sprintf "%.2f" r.ipc_perfect;
          Printf.sprintf "%.2f" r.profile.target_ipc_perfect;
        ])
    rows;
  "Table 1: benchmarks, single-thread IPC with real and perfect memory\n"
  ^ Vliw_util.Text_table.render table

let max_rel_error rows =
  List.fold_left
    (fun acc r ->
      let e1 =
        abs_float (r.ipc_real -. r.profile.target_ipc_real)
        /. r.profile.target_ipc_real
      in
      let e2 =
        abs_float (r.ipc_perfect -. r.profile.target_ipc_perfect)
        /. r.profile.target_ipc_perfect
      in
      max acc (max e1 e2))
    0.0 rows

let csv_rows rows =
  ( [ "benchmark"; "ilp"; "ipc_real"; "paper_ipc_real"; "ipc_perfect"; "paper_ipc_perfect" ],
    List.map
      (fun r ->
        [
          r.profile.name;
          Vliw_compiler.Profile.ilp_letter r.profile.ilp;
          Printf.sprintf "%.4f" r.ipc_real;
          Printf.sprintf "%.2f" r.profile.target_ipc_real;
          Printf.sprintf "%.4f" r.ipc_perfect;
          Printf.sprintf "%.2f" r.profile.target_ipc_perfect;
        ])
      rows )
