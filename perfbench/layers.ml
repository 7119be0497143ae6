(* The layer suite: each library layer replayed in isolation over inputs
   taken from the grid-default workload, timed from bench code. A traced
   run of any workload runs it after the workload's own rounds, so every
   traced run reports every layer.

   The closure check ties the per-cycle layer back to the sweep: the
   host time of whole simulations must equal their cycle counts times
   the per-cycle cost measured by the step replays, within 15%. Outside
   that band some cost a simulation pays (context switches, warm-up,
   the multitasking schedule) is missing from the layer numbers. *)

module E = Vliw_experiments
module P = Probe
module Rng = Vliw_util.Rng
module Batch = Vliw_merge.Engine.Batch

let machine = Vliw_isa.Machine.default
let grid_mixes = [ "LLLL"; "LLHH"; "MMMM"; "HHHH" ]
let step_schemes = [ "1S"; "C4"; "3CCC"; "3SSS"; "2SC3" ]

let scheme name = (Vliw_merge.Catalog.find_exn name).scheme

(* The four programs of a mix, each generation timed. *)
let compile ~seed mix =
  let rng = Rng.create seed in
  List.map
    (fun profile ->
      let s = Rng.next_int64 rng in
      P.timed (fun () -> Vliw_compiler.Program.generate ~seed:s machine profile))
    (Vliw_workloads.Mixes.find_exn mix).members

(* Host seconds and minor words of [f ()]. *)
let measured f =
  let w0 = Gc.minor_words () in
  let t0 = P.now () in
  f ();
  let dt = P.now () -. t0 in
  (dt, Gc.minor_words () -. w0)

(* [steps] cycles of [Core.step] after [warm] untimed ones, over the
   mix's programs resident on the scheme's contexts. Returns host
   seconds and minor words allocated per cycle; the words the
   measurement itself allocates are subtracted, so an allocation-free
   kernel reads exactly 0. *)
let replay ~observed ~seed ~warm ~steps name programs =
  let config = Vliw_sim.Config.make (scheme name) in
  let rng = Rng.create seed in
  let threads =
    Array.of_list
      (List.mapi
         (fun id p -> Vliw_sim.Thread_state.create ~id ~seed:(Rng.next_int64 rng) p)
         programs)
  in
  let mem = Vliw_mem.Mem_system.create config.machine in
  let core =
    if observed then
      Vliw_sim.Core.create ~counters:(Vliw_telemetry.Counters.create ()) config mem
    else Vliw_sim.Core.create config mem
  in
  Vliw_sim.Core.install core
    (Array.init (Vliw_sim.Config.contexts config) (fun i ->
         if i < Array.length threads then Some threads.(i) else None));
  for _ = 1 to warm do
    Vliw_sim.Core.step core
  done;
  let _, overhead = measured ignore in
  let dt, words =
    measured (fun () ->
        for _ = 1 to steps do
          Vliw_sim.Core.step core
        done)
  in
  (dt, (words -. overhead) /. float_of_int steps)

(* One whole Default-scale simulation, as [Sweep.simulate_prepared]
   runs it; returns host seconds and simulated cycles. *)
let simulate ~seed name programs =
  let config = Vliw_sim.Config.make (scheme name) in
  let m, dt =
    P.timed (fun () ->
        Vliw_sim.Multitask.run_programs config ~seed
          ~schedule:(E.Common.schedule_of_scale E.Common.Default)
          programs)
  in
  (dt, m.Vliw_sim.Metrics.cycles)

(* [Batch.set_port] on every port plus [Batch.eval], over signatures in
   program order: the merge kernel of the simulator's fast path. *)
let batch_eval_ns name programs =
  let config = Vliw_sim.Config.make (scheme name) in
  let ports = Vliw_sim.Config.contexts config in
  let batch = Batch.create machine ~routing:config.routing config.scheme in
  let sigs =
    Array.of_list
      (List.map
         (fun (p : Vliw_compiler.Program.t) ->
           Array.concat
             (Array.to_list
                (Array.map
                   (fun (b : Vliw_compiler.Program.block) ->
                     Array.map (Vliw_isa.Instr.signature machine) b.instrs)
                   p.blocks)))
         programs)
  in
  let evals = 1_000_000 in
  let acc = ref 0 in
  let t0 = P.now () in
  for i = 0 to evals - 1 do
    for p = 0 to ports - 1 do
      let s = sigs.(p) in
      Batch.set_port batch p s.(i mod Array.length s)
    done;
    Batch.eval batch ~rotation:(i mod ports);
    acc := !acc lxor Batch.issued batch
  done;
  let dt = P.now () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt *. 1e9 /. float_of_int evals

let dcache_access_ns ~seed =
  let cache = Vliw_mem.Cache.create machine.dcache in
  let stream =
    Vliw_mem.Addr_stream.create ~seed ~working_set_bytes:(256 * 1024)
      ~seq_frac:0.7 ~region_base:0
  in
  let addrs = Array.init 1_000_000 (fun _ -> Vliw_mem.Addr_stream.next stream) in
  let pass () =
    let hits = ref 0 in
    let t0 = P.now () in
    Array.iter (fun a -> if Vliw_mem.Cache.access cache a then incr hits) addrs;
    ignore (Sys.opaque_identity !hits);
    P.now () -. t0
  in
  ignore (pass ());
  P.median (List.init 3 (fun _ -> pass ())) *. 1e9 /. float_of_int (Array.length addrs)

(* --- wire and ledger ---------------------------------------------------- *)

module L = Vliw_telemetry.Ledger

(* Ledger records shaped like the ones the service appends for a
   four-scheme job. *)
let ledger_records ~seed n =
  let rng = Rng.create seed in
  let schemes = [ "C4"; "1S"; "2SC3"; "3SSS" ] in
  List.init n (fun i ->
      let mix = List.nth Vliw_workloads.Mixes.names (i mod 9) in
      let s = Rng.next_int64 rng in
      {
        L.id = Printf.sprintf "r%d" (i + 1);
        time_s = 1.7e9 +. float_of_int i;
        cmd = "serve";
        label = Printf.sprintf "j%d" (i + 1);
        git_rev = "unknown";
        fingerprint =
          L.fingerprint_of ~scale:"quick" ~seed:s ~scheme_names:schemes
            ~mix_names:[ mix ] ();
        scale = "quick";
        seed = s;
        jobs = 1;
        scheme_names = schemes;
        mix_names = [ mix ];
        policy = "static";
        wall_s = Rng.float rng 0.2;
        cells =
          Array.of_list
            (List.map
               (fun scheme ->
                 {
                   L.mix;
                   scheme;
                   ipc = 1.0 +. Rng.float rng 3.0;
                   elapsed_s = Rng.float rng 0.05;
                   started_s = 0.0;
                   worker = 0;
                   attempts = 1;
                   degraded = false;
                 })
               schemes);
        counters = [ ("service.cells.simulated", 4) ];
        gauges = [ ("ipc.mean", 2.0 +. Rng.float rng 1.0) ];
        retries = 0;
        degraded = 0;
        timeouts = 0;
        resumed = 0;
      })

let json_mbps ~seed =
  let lines =
    List.map (fun r -> Vliw_util.Json.to_string (L.to_json r)) (ledger_records ~seed 400)
  in
  let mb = float_of_int (List.fold_left (fun n l -> n + String.length l) 0 lines) /. 1e6 in
  let docs =
    List.map
      (fun l ->
        match Vliw_util.Json.parse l with Ok d -> d | Error e -> failwith e)
      lines
  in
  let pass f =
    P.median
      (List.init 5 (fun _ -> snd (P.timed (fun () -> ignore (Sys.opaque_identity (f ()))))))
  in
  let parse_s = pass (fun () -> List.map Vliw_util.Json.parse lines) in
  let print_s = pass (fun () -> List.map Vliw_util.Json.to_string docs) in
  (mb /. parse_s, mb /. print_s)

(* [Ledger.append] onto a ledger already holding [n] records, and a
   full [Ledger.load] of it. *)
let ledger_ms ~scratch ~seed n =
  let dir = Filename.concat scratch (Printf.sprintf "ledger-n%d" n) in
  P.mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> P.remove_tree dir)
    (fun () ->
      let records = ledger_records ~seed (n + 3) in
      let base, extra = List.filteri (fun i _ -> i < n) records, List.filteri (fun i _ -> i >= n) records in
      Vliw_util.Atomic_io.write_file ~path:(L.ledger_path ~dir)
        (String.concat ""
           (List.map (fun r -> Vliw_util.Json.to_string (L.to_json r) ^ "\n") base));
      let load_s = snd (P.timed (fun () -> L.load ~dir)) in
      let appends = List.map (fun r -> snd (P.timed (fun () -> L.append ~dir r))) extra in
      (P.median appends *. 1000.0, load_s *. 1000.0))

let client_codec_us () =
  let module R = Vliw_service.Request in
  let req =
    R.Submit
      {
        tag = "t17";
        scale = "quick";
        seed = 0x1234_5678_9abc_def0L;
        priority = 0;
        mixes = [ "LLHH" ];
        schemes = [ "C4"; "1S"; "2SC3"; "3SSS" ];
        trace = None;
      }
  in
  let reply =
    {|{"reply":"done","job":"j17","tag":"t17","run":"r17","digest":"1be9dd88d31f8c0b","cells":4,"cached":4,"simulated":0,"degraded":0,"wall_s":0.0031}|}
    ^ "\n"
  in
  let reader = Vliw_util.Ndjson.reader () in
  let n = 20_000 in
  let per f = snd (P.timed (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done)) *. 1e6 /. float_of_int n in
  let encode = per (fun () -> Vliw_util.Ndjson.line (R.to_json req)) in
  let decode =
    per (fun () ->
        match Vliw_util.Ndjson.feed reader reply with
        | [ Ok doc ] -> Vliw_util.Json.member "digest" doc
        | _ -> failwith "client decode: unexpected reply framing")
  in
  (encode, decode)

(* --- the suite ------------------------------------------------------------ *)

let metrics =
  P.
    [
      lower "compiler.generate_ms" "ms";
      lower "sweep.prepare_row_ms" "ms";
      lower "sweep.simulate_cell_ms" "ms";
    ]
  @ List.concat_map
      (fun s ->
        P.
          [
            lower ("core.step_ns." ^ s) "ns";
            lower ("core.step_observed_ns." ^ s) "ns";
            lower ("core.words_per_cycle." ^ s) "words/cycle";
            lower ("core.words_per_cycle_observed." ^ s) "words/cycle";
            lower ("merge.batch_eval_ns." ^ s) "ns";
          ])
      step_schemes
  @ P.
      [
        lower "core.closure_ratio" "ratio";
        lower "mem.dcache_access_ns" "ns";
        higher "json.parse_MBps" "MB/s";
        higher "json.print_MBps" "MB/s";
        lower "ledger.append_ms.n0" "ms";
        lower "ledger.append_ms.n100" "ms";
        lower "ledger.append_ms.n400" "ms";
        lower "ledger.load_ms.n400" "ms";
        lower "serve.client_encode_us" "us";
        lower "serve.client_decode_us" "us";
      ]

let run ~seed ~scratch buf =
  let layer name f = P.span buf ~layer:"suite" ~lane:"layers" name f in
  let generate = ref [] in
  let programs =
    layer "compile" (fun () ->
        List.map
          (fun mix ->
            let timed = compile ~seed mix in
            generate := List.map snd timed @ !generate;
            (mix, List.map fst timed))
          grid_mixes)
  in
  let prepare_row =
    layer "prepare_row" (fun () ->
        List.map
          (fun mix ->
            snd (P.timed (fun () -> E.Sweep.prepare_row ~scale:E.Common.Default ~seed mix)))
          grid_mixes)
  in
  (* Each cell's step replays run right before its whole simulation, so
     the closure compares measurements taken moments apart rather than
     seconds apart on a host whose speed drifts. *)
  let steps = 200_000 and observed_steps = 50_000 in
  let cells =
    List.concat_map
      (fun (mix, progs) ->
        List.map
          (fun s ->
            layer (mix ^ "/" ^ s) (fun () ->
                let fast = replay ~observed:false ~seed ~warm:50_000 ~steps s progs in
                let observed =
                  replay ~observed:true ~seed ~warm:10_000 ~steps:observed_steps s progs
                in
                (s, fast, observed, simulate ~seed s progs)))
          step_schemes)
      programs
  in
  let per_scheme f =
    List.map
      (fun s -> (s, f (List.filter (fun (s', _, _, _) -> s' = s) cells)))
      step_schemes
  in
  let ns_per_step n times = P.sum times *. 1e9 /. float_of_int (n * List.length times) in
  let fast_ns =
    per_scheme (fun cs -> ns_per_step steps (List.map (fun (_, (dt, _), _, _) -> dt) cs))
  in
  let observed_ns =
    per_scheme (fun cs ->
        ns_per_step observed_steps (List.map (fun (_, _, (dt, _), _) -> dt) cs))
  in
  let words_fast = per_scheme (fun cs -> P.median (List.map (fun (_, (_, w), _, _) -> w) cs)) in
  let words_observed =
    per_scheme (fun cs -> P.median (List.map (fun (_, _, (_, w), _) -> w) cs))
  in
  let sim_s = List.map (fun (_, _, _, (dt, _)) -> dt) cells in
  let closure =
    P.sum sim_s
    /. P.sum
         (List.map
            (fun (_, (dt, _), _, (_, cycles)) ->
              float_of_int cycles *. dt /. float_of_int steps)
            cells)
  in
  let llhh = List.assoc "LLHH" programs in
  let batch =
    layer "merge.batch" (fun () -> List.map (fun s -> (s, batch_eval_ns s llhh)) step_schemes)
  in
  let dcache = layer "mem.dcache" (fun () -> dcache_access_ns ~seed) in
  let parse_mbps, print_mbps = layer "json" (fun () -> json_mbps ~seed) in
  let ledger n = layer (Printf.sprintf "ledger n=%d" n) (fun () -> ledger_ms ~scratch ~seed n) in
  let a0, _ = ledger 0 and a100, _ = ledger 100 and a400, load400 = ledger 400 in
  let encode, decode = layer "client codec" client_codec_us in
  let per prefix values = List.map (fun (s, v) -> (prefix ^ s, v)) values in
  [
    ("compiler.generate_ms", P.median !generate *. 1000.0);
    ("sweep.prepare_row_ms", P.median prepare_row *. 1000.0);
    ("sweep.simulate_cell_ms", P.median sim_s *. 1000.0);
  ]
  @ per "core.step_ns." fast_ns
  @ per "core.step_observed_ns." observed_ns
  @ per "core.words_per_cycle." words_fast
  @ per "core.words_per_cycle_observed." words_observed
  @ per "merge.batch_eval_ns." batch
  @ [
      ("core.closure_ratio", closure);
      ("mem.dcache_access_ns", dcache);
      ("json.parse_MBps", parse_mbps);
      ("json.print_MBps", print_mbps);
      ("ledger.append_ms.n0", a0);
      ("ledger.append_ms.n100", a100);
      ("ledger.append_ms.n400", a400);
      ("ledger.load_ms.n400", load400);
      ("serve.client_encode_us", encode);
      ("serve.client_decode_us", decode);
    ]
