(* Stall attribution: an exact decomposition of wasted issue slots.

   The core bumps these counters once per cycle (only when profiling is
   attached). The accounting is exact by construction:

     slots.offered - slots.filled
       = sum over waste.vertical.* + sum over waste.horizontal.*

   A cycle that issues nothing contributes its full machine width to
   exactly one vertical cause; a cycle that issues k < W operations
   contributes W - k slots split across horizontal causes, with the
   remainder after merge-reject attribution booked to insufficient ILP. *)

type handles = {
  cycles : Counters.counter;
  slots_offered : Counters.counter;
  slots_filled : Counters.counter;
  v_fetch : Counters.counter;
  v_mem : Counters.counter;
  v_branch : Counters.counter;
  v_switch : Counters.counter;
  v_idle : Counters.counter;
  h_conflict : Counters.counter;
  h_capacity : Counters.counter;
  h_priority : Counters.counter;
  h_ilp : Counters.counter;
  switch_bubbles : Counters.counter;
}

let n_cycles = "core.cycles"
let n_offered = "slots.offered"
let n_filled = "slots.filled"
let n_v_fetch = "waste.vertical.fetch_stall"
let n_v_mem = "waste.vertical.mem_stall"
let n_v_branch = "waste.vertical.branch_stall"
let n_v_switch = "waste.vertical.bmt_switch"
let n_v_idle = "waste.vertical.idle"
let n_h_conflict = "waste.horizontal.merge_conflict"
let n_h_capacity = "waste.horizontal.merge_capacity"
let n_h_priority = "waste.horizontal.merge_priority"
let n_h_ilp = "waste.horizontal.ilp"

(* Adaptive merge-network reconfiguration. [core.switch_bubble_cycles]
   is bumped by the attribution pass exactly when a whole-width cycle is
   booked to [waste.vertical.bmt_switch], so the conservation law
   "v_switch slots = width x bubble cycles" is checkable after the fact;
   the [sim.*] pair is flushed from the core's own counters at metrics
   time (switches performed, total issue-stall cycles scheduled). *)
let n_switch_bubbles = "core.switch_bubble_cycles"
let n_scheme_switches = "sim.scheme_switches"
let n_switch_stall = "sim.switch_stall_cycles"

(* Adaptive controller decision trail, booked by the multitasking
   harness: one counter per candidate scheme counting boundary decisions
   that picked it, plus the controller's own owner-change count. *)
let n_controller_prefix = "controller.decisions."
let n_controller_decisions name = n_controller_prefix ^ name
let n_controller_switches = "controller.switches"

(* Sweep fault tolerance (Vliw_experiments.Sweep), bumped once per cell
   attempt outcome. These describe harness behaviour, not machine
   behaviour, and stay out of the waste sum. *)
let n_sweep_retries = "sweep.retries"
let n_sweep_degraded = "sweep.degraded"
let n_sweep_timeouts = "sweep.timeouts"
let n_sweep_resumed = "sweep.resumed_cells"

let attach c =
  {
    cycles = Counters.counter c n_cycles;
    slots_offered = Counters.counter c n_offered;
    slots_filled = Counters.counter c n_filled;
    v_fetch = Counters.counter c n_v_fetch;
    v_mem = Counters.counter c n_v_mem;
    v_branch = Counters.counter c n_v_branch;
    v_switch = Counters.counter c n_v_switch;
    v_idle = Counters.counter c n_v_idle;
    h_conflict = Counters.counter c n_h_conflict;
    h_capacity = Counters.counter c n_h_capacity;
    h_priority = Counters.counter c n_h_priority;
    h_ilp = Counters.counter c n_h_ilp;
    switch_bubbles = Counters.counter c n_switch_bubbles;
  }

(* Display order with human labels. *)
let categories =
  [
    (n_v_fetch, "vertical: I$ fetch stall");
    (n_v_mem, "vertical: D$ miss stall");
    (n_v_branch, "vertical: branch misprediction");
    (n_v_switch, "vertical: BMT switch bubble");
    (n_v_idle, "vertical: no resident thread");
    (n_h_conflict, "horizontal: merge reject (conflict)");
    (n_h_capacity, "horizontal: merge reject (capacity)");
    (n_h_priority, "horizontal: merge reject (priority)");
    (n_h_ilp, "horizontal: insufficient ILP");
  ]

let wasted s = Counters.count s n_offered - Counters.count s n_filled

let attributed s =
  List.fold_left (fun acc (name, _) -> acc + Counters.count s name) 0 categories

let render s =
  let offered = Counters.count s n_offered in
  let filled = Counters.count s n_filled in
  let waste = wasted s in
  let pct_of total v =
    if total = 0 then "-"
    else Printf.sprintf "%.1f%%" (100.0 *. float_of_int v /. float_of_int total)
  in
  let table =
    Vliw_util.Text_table.create ~header:[ "Cause"; "Slots"; "Of wasted"; "Of offered" ]
  in
  List.iter
    (fun (name, label) ->
      let v = Counters.count s name in
      Vliw_util.Text_table.add_row table
        [ label; string_of_int v; pct_of waste v; pct_of offered v ])
    categories;
  Vliw_util.Text_table.add_sep table;
  Vliw_util.Text_table.add_row table
    [
      "total wasted"; string_of_int (attributed s); pct_of waste (attributed s);
      pct_of offered waste;
    ];
  let drift = waste - attributed s in
  let switches =
    let n = Counters.count s n_scheme_switches in
    if n = 0 then ""
    else
      Printf.sprintf
        "Merge-network reconfigurations: %d (%d issue-stall cycles charged)\n"
        n
        (Counters.count s n_switch_stall)
  in
  Printf.sprintf
    "Stall attribution over %d cycles: %d slots offered, %d filled (%s), %d \
     wasted\n"
    (Counters.count s n_cycles) offered filled (pct_of offered filled) waste
  ^ Vliw_util.Text_table.render table
  ^ (if drift = 0 then ""
     else Printf.sprintf "WARNING: %d wasted slots unattributed\n" drift)
  ^ switches
