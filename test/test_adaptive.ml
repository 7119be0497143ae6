(* The swappable merge network and the per-timeslice controller.

   The load-bearing property is the Static oracle: engaging the whole
   controller/switch plumbing with a policy that never switches must be
   bit-identical to the plain engine — at any jobs count, telemetry on
   or off. The rest pins the controller policies themselves (oracle
   sampling/locking, hill-climb probe/retreat, memory-bound skip), the
   switch-penalty conservation law, adaptive sweep checkpoint/resume
   purity, and the ledger's policy-aware fingerprints. *)

module E = Vliw_experiments
module M = Vliw_merge
module Sim = Vliw_sim
module T = Vliw_telemetry
module Q = QCheck

let group = Sim.Controller.group_candidates "2SC3"

let group_names =
  List.map (fun (c : Sim.Controller.candidate) -> c.name) group

let candidate_exn name =
  List.find (fun (c : Sim.Controller.candidate) -> c.name = name) group

(* A synthetic observation: [ipc] is what the controller estimates from
   it (ops/cycles); reject/miss fields steer the hill-climber. *)
let obs ?(rejects_conflict = 0) ?(rejects_capacity = 0) ?(dcache_misses = 0)
    ~slice ipc =
  let cycles = 1000 in
  {
    Sim.Controller.slice;
    cycles;
    ops = int_of_float (ipc *. float_of_int cycles);
    instrs = cycles;
    per_thread_ops = [| 250; 250; 250; 250 |];
    rejects_conflict;
    rejects_capacity;
    icache_misses = 0;
    dcache_misses;
  }

(* --- Controller unit tests ------------------------------------------- *)

let test_group_candidates () =
  Alcotest.(check int) "2SC3 group has 5 members" 5 (List.length group);
  Alcotest.(check bool) "contains 2SC3" true (List.mem "2SC3" group_names);
  let threads =
    List.map
      (fun (c : Sim.Controller.candidate) -> M.Scheme.n_threads c.scheme)
      group
  in
  Alcotest.(check (list int))
    "all candidates share the thread count"
    (List.map (fun _ -> List.hd threads) threads)
    threads;
  let anchor = (candidate_exn "2SC3").scheme in
  List.iter
    (fun (c : Sim.Controller.candidate) ->
      Alcotest.(check bool)
        (c.name ^ " cost-comparable to 2SC3")
        true
        (Vliw_cost.Scheme_cost.comparable anchor c.scheme))
    group;
  Alcotest.check_raises "unknown scheme"
    (Invalid_argument "Catalog.find_exn: unknown scheme \"ZZ\"") (fun () ->
      ignore (Sim.Controller.group_candidates "ZZ"))

let test_create_validation () =
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  in
  raises "empty candidates" (fun () ->
      Sim.Controller.create Sim.Controller.Static ~candidates:[]
        ~initial:"2SC3");
  raises "initial not a candidate" (fun () ->
      Sim.Controller.create Sim.Controller.Static ~candidates:group
        ~initial:"3SSS");
  let alien = List.hd (Sim.Controller.group_candidates "1S") in
  raises "mixed thread counts" (fun () ->
      Sim.Controller.create Sim.Controller.Static
        ~candidates:(alien :: group) ~initial:"2SC3")

let test_policy_strings () =
  Alcotest.(check string)
    "static" "static"
    (Sim.Controller.policy_to_string Sim.Controller.Static);
  Alcotest.(check string)
    "oracle" "oracle(probe=1)"
    (Sim.Controller.policy_to_string Sim.Controller.default_oracle);
  Alcotest.(check string)
    "hill" "hill(period=2,hysteresis=0.02,ewma=0.5)"
    (Sim.Controller.policy_to_string Sim.Controller.default_hill)

let test_static_never_switches () =
  let c =
    Sim.Controller.create Sim.Controller.Static ~candidates:group
      ~initial:"2SC3"
  in
  for slice = 0 to 9 do
    let next = Sim.Controller.decide c (obs ~slice 2.0) in
    Alcotest.(check string) "stays on 2SC3" "2SC3" next.Sim.Controller.name
  done;
  Alcotest.(check int) "no switches" 0 (Sim.Controller.switches c);
  Alcotest.(check (list (pair int string)))
    "decision trail is the initial owner only"
    [ (0, "2SC3") ]
    (Sim.Controller.decisions c)

let test_oracle_samples_then_locks () =
  let c =
    Sim.Controller.create Sim.Controller.default_oracle ~candidates:group
      ~initial:"2SC3"
  in
  (* Reward exactly one candidate during its sampling slice. *)
  let best = "3CCS" in
  let sampled = ref [] in
  for slice = 0 to 4 do
    let owner = (Sim.Controller.current c).Sim.Controller.name in
    sampled := owner :: !sampled;
    ignore (Sim.Controller.decide c (obs ~slice (if owner = best then 3.0 else 1.0)))
  done;
  Alcotest.(check (list string))
    "sampling visits every candidate once" (List.sort compare group_names)
    (List.sort compare !sampled);
  Alcotest.(check string)
    "locks onto the best sample" best
    (Sim.Controller.current c).Sim.Controller.name;
  for slice = 5 to 9 do
    ignore (Sim.Controller.decide c (obs ~slice 0.5))
  done;
  Alcotest.(check string)
    "stays locked regardless of later slices" best
    (Sim.Controller.current c).Sim.Controller.name

let hill =
  Sim.Controller.Hill_climb
    { explore_period = 1; hysteresis = 0.02; ewma = 1.0 }

let test_hill_probe_retreats () =
  let c = Sim.Controller.create hill ~candidates:group ~initial:"2SC3" in
  (* Conflict-dominated slice: probe toward more SMT... *)
  let probe =
    Sim.Controller.decide c (obs ~slice:0 ~rejects_conflict:100 2.0)
  in
  Alcotest.(check bool)
    "probe moved off the anchor" true
    (probe.Sim.Controller.name <> "2SC3");
  (* ...which observes worse IPC, so the next decision retreats. *)
  let back = Sim.Controller.decide c (obs ~slice:1 1.0) in
  Alcotest.(check string) "retreats to the anchor" "2SC3"
    back.Sim.Controller.name;
  Alcotest.(check int) "probe + retreat = 2 switches" 2
    (Sim.Controller.switches c)

let test_hill_probe_adopts () =
  let c = Sim.Controller.create hill ~candidates:group ~initial:"2SC3" in
  let probe =
    Sim.Controller.decide c (obs ~slice:0 ~rejects_conflict:100 2.0)
  in
  (* The probe wins by more than the hysteresis margin: adopt. *)
  let next = Sim.Controller.decide c (obs ~slice:1 3.0) in
  Alcotest.(check string) "adopts the probe" probe.Sim.Controller.name
    next.Sim.Controller.name;
  (* A later probe starts from the new anchor. *)
  let probe2 =
    Sim.Controller.decide c (obs ~slice:2 ~rejects_capacity:100 3.0)
  in
  Alcotest.(check bool)
    "later probe leaves the new anchor" true
    (probe2.Sim.Controller.name <> probe.Sim.Controller.name
    || Sim.Controller.switches c = 2)

let test_hill_memory_bound_skips () =
  let c = Sim.Controller.create hill ~candidates:group ~initial:"2SC3" in
  for slice = 0 to 5 do
    let next =
      Sim.Controller.decide c
        (obs ~slice ~rejects_conflict:100 ~dcache_misses:500 2.0)
    in
    Alcotest.(check string)
      "memory-bound slices never probe" "2SC3" next.Sim.Controller.name
  done;
  Alcotest.(check int) "no switches" 0 (Sim.Controller.switches c)

(* --- Static controller = plain engine (the bit-equality oracle) ------ *)

let mix_members name = (Vliw_workloads.Mixes.find_exn name).members

let run_metrics ?controller ?counters scheme_name mix seed =
  let scheme = (M.Catalog.find_exn scheme_name).scheme in
  let config = Sim.Config.make scheme in
  Sim.Multitask.run config ~seed ~schedule:Sim.Multitask.quick_schedule
    ?counters ?controller (mix_members mix)

let static_controller initial =
  Sim.Controller.create Sim.Controller.Static ~candidates:group ~initial

let prop_static_bit_identical =
  Q.Test.make ~name:"Static controller = no controller (both telemetry modes)"
    ~count:10
    (Q.triple
       (Q.oneofl group_names)
       (Q.oneofl Vliw_workloads.Mixes.names)
       Q.small_nat)
    (fun (scheme, mix, seed) ->
      let seed = Int64.of_int seed in
      let plain = run_metrics scheme mix seed in
      let engaged =
        run_metrics ~controller:(static_controller scheme) scheme mix seed
      in
      let plain_t = run_metrics ~counters:(T.Counters.create ()) scheme mix seed in
      let engaged_t =
        run_metrics
          ~controller:(static_controller scheme)
          ~counters:(T.Counters.create ()) scheme mix seed
      in
      plain = engaged && plain = plain_t && plain = engaged_t)

let test_static_column_sweep_equiv () =
  let scheme_names = [ "2SC3"; "3CSC" ] and mix_names = [ "LLHH" ] in
  let columns =
    List.map
      (fun n -> E.Sweep.static_column (M.Catalog.find_exn n))
      scheme_names
  in
  let ipcs (_, _, cells) =
    Array.to_list
      (Array.map (fun (c : E.Sweep.cell) -> Int64.bits_of_float c.ipc) cells)
  in
  let base =
    ipcs (E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names ~mix_names ())
  in
  List.iter
    (fun (label, got) ->
      Alcotest.(check (list int64)) label base (ipcs got))
    [
      ( "columns = scheme_names",
        E.Sweep.run_cells ~scale:E.Common.Quick ~columns ~mix_names () );
      ( "columns at jobs=4, telemetry on",
        E.Sweep.run_cells ~scale:E.Common.Quick ~columns ~mix_names ~jobs:4
          ~telemetry:true () );
    ]

(* --- Switch penalty conservation ------------------------------------- *)

let test_switch_penalty_conserved () =
  let counters = T.Counters.create () in
  let controller =
    Sim.Controller.create Sim.Controller.default_oracle ~candidates:group
      ~initial:"2SC3"
  in
  let metrics = run_metrics ~controller ~counters "2SC3" "LLHH" 7L in
  let snap = T.Counters.snapshot counters in
  let count = T.Counters.count snap in
  let switches = count T.Report.n_scheme_switches in
  Alcotest.(check bool) "oracle sampling actually switched" true (switches > 0);
  let stall = count T.Report.n_switch_stall in
  Alcotest.(check bool) "switches charged stall cycles" true (stall > 0);
  let bubbles = count T.Report.n_switch_bubbles in
  Alcotest.(check bool) "bubbles within the charge" true (bubbles <= stall);
  let width = metrics.Sim.Metrics.slots_offered / metrics.Sim.Metrics.cycles in
  Alcotest.(check int)
    "attributed switch waste = width x bubble cycles" (width * bubbles)
    (count T.Report.n_v_switch);
  (* The decision trail was booked for the profile report. *)
  let decision_total =
    List.fold_left
      (fun acc name -> acc + count (T.Report.n_controller_decisions name))
      0 group_names
  in
  Alcotest.(check bool) "decision trail booked" true (decision_total > 0);
  Alcotest.(check int)
    "controller switch counter matches" switches
    (count T.Report.n_controller_switches)

(* --- Adaptive sweep: checkpoint/resume purity ------------------------ *)

let adaptive_columns () =
  E.Sweep.static_column (M.Catalog.find_exn "2SC3")
  :: [
       {
         E.Sweep.col_name = "adaptive";
         col_scheme = (M.Catalog.find_exn "2SC3").scheme;
         col_controller =
           Some
             (fun () ->
               Sim.Controller.create Sim.Controller.default_hill
                 ~candidates:group ~initial:"2SC3");
         col_config = Fun.id;
       };
     ]

let test_adaptive_sweep_resume_identical () =
  let journal = Filename.temp_file "vliwsim_adaptive" ".journal" in
  Sys.remove journal;
  let sweep ~resume =
    E.Sweep.run_cells ~scale:E.Common.Quick ~columns:(adaptive_columns ())
      ~mix_names:[ "LLHH" ] ~checkpoint:journal ~resume ()
  in
  let _, _, first = sweep ~resume:false in
  let _, _, resumed = sweep ~resume:true in
  Alcotest.(check int) "cell count" (Array.length first) (Array.length resumed);
  Array.iteri
    (fun i (a : E.Sweep.cell) ->
      let b = resumed.(i) in
      Alcotest.(check string) "scheme" a.scheme b.E.Sweep.scheme;
      Alcotest.(check int64)
        (Printf.sprintf "cell %d (%s/%s) bit-identical" i a.mix a.scheme)
        (Int64.bits_of_float a.ipc)
        (Int64.bits_of_float b.E.Sweep.ipc))
    first;
  if Sys.file_exists journal then Sys.remove journal

let test_adaptive_experiment_shape () =
  let d = E.Adaptive.run ~scale:E.Common.Quick () in
  Alcotest.(check (list string))
    "static columns are the 2SC3 cost group"
    (List.sort compare group_names)
    (List.sort compare d.E.Adaptive.static_names);
  Alcotest.(check int)
    "grid = statics + oracle + adaptive"
    (List.length group_names + 2)
    (List.length d.E.Adaptive.grid.scheme_names);
  let text = E.Adaptive.render d in
  List.iter
    (fun needle ->
      let n = String.length text and m = String.length needle in
      let rec go i = i + m <= n && (String.sub text i m = needle || go (i + 1)) in
      Alcotest.(check bool) ("render mentions " ^ needle) true (go 0))
    [ "adaptive"; "oracle"; "best static"; "reconfiguration" ]

(* --- Ledger: policy-aware fingerprints ------------------------------- *)

let test_ledger_policy_fingerprint () =
  let fp ?policy () =
    T.Ledger.fingerprint_of ?policy ~scale:"quick" ~seed:1L
      ~scheme_names:[ "a"; "b" ] ~mix_names:[ "m" ] ()
  in
  Alcotest.(check string)
    "explicit static = legacy fingerprint" (fp ())
    (fp ~policy:"static" ());
  Alcotest.(check bool)
    "adaptive policy changes the fingerprint" true
    (fp () <> fp ~policy:"hill(period=2,hysteresis=0.02,ewma=0.5)" ())

let test_ledger_policy_roundtrip () =
  let make ?policy () =
    T.Ledger.make ?policy ~cmd:"exp" ~label:"adaptive" ~scale:"quick" ~seed:1L
      ~jobs:1 ~scheme_names:[ "a" ] ~mix_names:[ "m" ] ~wall_s:0.1 ()
  in
  let roundtrip r =
    match T.Ledger.of_json (T.Ledger.to_json r) with
    | Some r' -> r'
    | None -> Alcotest.fail "record did not round-trip"
  in
  let adaptive = make ~policy:"oracle(probe=1)" () in
  Alcotest.(check string)
    "policy survives the JSON round-trip" "oracle(probe=1)"
    (roundtrip adaptive).T.Ledger.policy;
  let static = make () in
  Alcotest.(check string)
    "static is the default policy" "static" static.T.Ledger.policy;
  Alcotest.(check string)
    "static round-trips (field omitted)" "static"
    (roundtrip static).T.Ledger.policy;
  (* The omitted field is what keeps old ledgers parseable: a static
     record's JSON must not mention the policy at all. *)
  let contains ~needle hay =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "static JSON omits the policy field" false
    (contains ~needle:"policy" (Vliw_util.Json.to_string (T.Ledger.to_json static)));
  Alcotest.(check bool)
    "adaptive JSON carries the policy field" true
    (contains ~needle:"policy" (Vliw_util.Json.to_string (T.Ledger.to_json adaptive)))

let suite =
  ( "adaptive",
    [
      Alcotest.test_case "group candidates" `Quick test_group_candidates;
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "policy descriptors" `Quick test_policy_strings;
      Alcotest.test_case "static never switches" `Quick
        test_static_never_switches;
      Alcotest.test_case "oracle samples then locks" `Quick
        test_oracle_samples_then_locks;
      Alcotest.test_case "hill-climb probe retreats" `Quick
        test_hill_probe_retreats;
      Alcotest.test_case "hill-climb probe adopts" `Quick
        test_hill_probe_adopts;
      Alcotest.test_case "memory-bound slices skip probing" `Quick
        test_hill_memory_bound_skips;
      Tgen.to_alcotest prop_static_bit_identical;
      Alcotest.test_case "static columns = scheme_names sweep" `Quick
        test_static_column_sweep_equiv;
      Alcotest.test_case "switch penalty conservation" `Quick
        test_switch_penalty_conserved;
      Alcotest.test_case "adaptive sweep resume bit-identical" `Quick
        test_adaptive_sweep_resume_identical;
      Alcotest.test_case "adaptive experiment shape" `Quick
        test_adaptive_experiment_shape;
      Alcotest.test_case "ledger policy fingerprint" `Quick
        test_ledger_policy_fingerprint;
      Alcotest.test_case "ledger policy round-trip" `Quick
        test_ledger_policy_roundtrip;
    ] )
