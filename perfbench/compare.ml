(* Compare two sets of untraced runs (the NDJSON records [run --out]
   appends), one row per (workload, end-to-end metric), against the
   bounds BENCHMARK.json declares.

   Only correct runs give metric values. Failures are judged first: the
   change is "worse" on a workload when any of its runs there is
   incorrect, or when it fails a larger share of its operations than
   the parent, whatever its timings say.

   Verdicts on a metric: "worse" when the change's median is worse than
   the parent's by more than the bound; "unresolved" when the run-to-run
   spread of either side is wider than the bound, unless every change
   run beats every parent run; "better" when the median improved by
   more than the parent's own spread; otherwise "unchanged". A gain is
   only claimed with the pairing rule in README.md. *)

module J = Vliw_util.Json

(* Python's statistics.quantiles(values, n=4), the "exclusive" method,
   so spreads read the same here as in any script over the same runs. *)
let quartiles values =
  let d = Array.of_list (List.sort compare values) in
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let load path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter_map (fun line ->
         match J.parse line with
         | Ok doc when J.member "traced" doc = Some (J.Bool false) -> Some doc
         | _ -> None)

let of_workload workload records =
  List.filter
    (fun doc -> Option.bind (J.member "workload" doc) J.to_string_opt = Some workload)
    records

let correct doc = J.member "correct" doc = Some (J.Bool true)

let count key doc = Option.value (Option.bind (J.member key doc) J.to_int) ~default:0

(* Runs, incorrect runs, failed and attempted operations. *)
type tally = { runs : int; incorrect : int; failed : int; attempted : int }

let tally records =
  {
    runs = List.length records;
    incorrect = List.length (List.filter (fun d -> not (correct d)) records);
    failed = List.fold_left (fun n d -> n + count "failed" d) 0 records;
    attempted = List.fold_left (fun n d -> n + count "attempted" d) 0 records;
  }

let failed_frac t = float_of_int t.failed /. float_of_int (max 1 t.attempted)

let values records ~metric =
  List.filter_map
    (fun doc ->
      if correct doc then
        Option.bind (J.member "metrics" doc) (fun m ->
            Option.bind (J.member metric m) (fun v -> Option.bind (J.member "value" v) J.to_float))
      else None)
    records

type side = { n : int; med : float; q1 : float; q3 : float }

let side vs =
  let q1, q3 = quartiles vs in
  { n = List.length vs; med = Probe.median vs; q1; q3 }

let verdict ~better ~bound a b ~all_b_better =
  let worse_by =
    let d = (b.med -. a.med) /. a.med in
    if better = "lower" then d else -.d
  in
  let spread s = (s.q3 -. s.q1) /. s.med in
  if Float.max (spread a) (spread b) > bound then
    if all_b_better then "better" else "unresolved"
  else if worse_by > bound then "worse"
  else if -.worse_by > spread a then "better"
  else "unchanged"

let run ~bench parent change =
  let decl =
    match Decl.load bench with Ok d -> d | Error e -> failwith (bench ^ ": " ^ e)
  in
  let bounds = Decl.bounds decl in
  let a_recs = load parent and b_recs = load change in
  let worse = ref 0 in
  Printf.printf "%-16s %6s %10s %16s %6s %10s %16s  %s\n" "workload" "runsA" "incorrA"
    "failed/attemptA" "runsB" "incorrB" "failed/attemptB" "verdict";
  let workloads =
    List.filter_map
      (fun workload ->
        let a = of_workload workload a_recs and b = of_workload workload b_recs in
        if a = [] || b = [] then None
        else begin
          let ta = tally a and tb = tally b in
          let failing = tb.incorrect > 0 || failed_frac tb > failed_frac ta in
          if failing then incr worse;
          Printf.printf "%-16s %6d %10d %16s %6d %10d %16s  %s\n" workload ta.runs ta.incorrect
            (Printf.sprintf "%d/%d" ta.failed ta.attempted)
            tb.runs tb.incorrect
            (Printf.sprintf "%d/%d" tb.failed tb.attempted)
            (if failing then "worse" else "ok");
          Some (workload, (a, b))
        end)
      Workload.names
  in
  Printf.printf "\n%-16s %-12s %4s %12s %12s %4s %12s %12s %8s %6s  %s\n" "workload"
    "metric" "nA" "medianA" "iqrA" "nB" "medianB" "iqrB" "delta%" "bound%" "verdict";
  List.iter
    (fun (workload, (a_runs, b_runs)) ->
      List.iter
        (fun (m : Probe.metric) ->
          let va = values a_runs ~metric:m.name and vb = values b_runs ~metric:m.name in
          if va <> [] && vb <> [] then begin
            let a = side va and b = side vb in
            let bound = Option.value (List.assoc_opt m.name bounds) ~default:0.0 in
            let beats x y = if m.better = "lower" then x < y else x > y in
            let all_b_better =
              List.for_all (fun y -> List.for_all (fun x -> beats y x) va) vb
            in
            let v = verdict ~better:m.better ~bound a b ~all_b_better in
            if v = "worse" then incr worse;
            Printf.printf "%-16s %-12s %4d %12.6g %12.6g %4d %12.6g %12.6g %+8.2f %6.1f  %s\n"
              workload m.name a.n a.med (a.q3 -. a.q1) b.n b.med (b.q3 -. b.q1)
              ((b.med -. a.med) /. a.med *. 100.0)
              (bound *. 100.0) v
          end)
        Decl.end_to_end)
    workloads;
  if !worse > 0 then 1 else 0
