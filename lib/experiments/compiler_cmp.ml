type bench_row = { name : string; block_ipc : float; trace_ipc : float }

type ladder_row = { scheme : string; block_ipc : float; trace_ipc : float }

type data = {
  trace_len : int;
  benches : bench_row list;
  ladder : ladder_row list;
}

(* Two sweeps, each with a block-scheduled and a trace-scheduled row per
   workload: every benchmark alone on perfect memory under one
   single-thread column, then the LLHH mix under the scheme ladder. *)
let run ?(scale = Common.Default) ?(seed = Common.default_seed) ?jobs
    ?max_retries ?on_event ?(memo = Sweep.memo ()) ?(trace_len = 4) () =
  let schedule = Common.schedule_of_scale scale in
  let both ?perfect_mem name profiles =
    List.map
      (fun (suffix, mode) ->
        Sweep.row ~memo ~mode ?perfect_mem ~schedule ~compile_seed:seed ~seed
          (name ^ suffix) profiles)
      [ ("/block", `Block); ("/trace", `Trace trace_len) ]
  in
  let sweep rows scheme_names =
    (Sweep.run ~scale ~seed ~rows ~scheme_names ?jobs ?max_retries ?on_event
       ~memo ())
      .ipc
  in
  let benches = Vliw_workloads.Benchmarks.all in
  let bench_ipc =
    sweep
      (List.concat_map
         (fun (p : Vliw_compiler.Profile.t) -> both ~perfect_mem:true p.name [ p ])
         benches)
      [ "ST" ]
  in
  let ladder = [ "3CCC"; "2SC3"; "3SSS" ] in
  let ladder_ipc =
    sweep (both "LLHH" (Vliw_workloads.Mixes.find_exn "LLHH").members) ladder
  in
  {
    trace_len;
    benches =
      List.mapi
        (fun i (p : Vliw_compiler.Profile.t) ->
          {
            name = p.name;
            block_ipc = bench_ipc.(2 * i).(0);
            trace_ipc = bench_ipc.((2 * i) + 1).(0);
          })
        benches;
    ladder =
      List.mapi
        (fun j scheme ->
          { scheme; block_ipc = ladder_ipc.(0).(j); trace_ipc = ladder_ipc.(1).(j) })
        ladder;
  }

let render d =
  let b = Vliw_util.Text_table.create ~header:[ "Benchmark"; "Block"; "Trace"; "gain" ] in
  List.iter
    (fun r ->
      Vliw_util.Text_table.add_row b
        [
          r.name;
          Printf.sprintf "%.2f" r.block_ipc;
          Printf.sprintf "%.2f" r.trace_ipc;
          Printf.sprintf "%+.0f%%" (Vliw_util.Stats.pct_diff r.trace_ipc r.block_ipc);
        ])
    d.benches;
  let l =
    Vliw_util.Text_table.create ~header:[ "Scheme (LLHH)"; "Block"; "Trace"; "gain" ]
  in
  List.iter
    (fun r ->
      Vliw_util.Text_table.add_row l
        [
          r.scheme;
          Printf.sprintf "%.2f" r.block_ipc;
          Printf.sprintf "%.2f" r.trace_ipc;
          Printf.sprintf "%+.0f%%" (Vliw_util.Stats.pct_diff r.trace_ipc r.block_ipc);
        ])
    d.ladder;
  Printf.sprintf
    "Compiler comparison: block scheduling vs trace scheduling (%d-block regions)\n\n\
     Single-thread IPC, perfect memory:\n%s\n\
     Merging-scheme ladder:\n%s"
    d.trace_len
    (Vliw_util.Text_table.render b)
    (Vliw_util.Text_table.render l)
