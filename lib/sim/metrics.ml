type per_thread = { name : string; ops : int; instrs : int }

type t = {
  cycles : int;
  ops : int;
  instrs : int;
  issue_hist : int array;
  vertical_waste_cycles : int;
  slots_offered : int;
  icache_accesses : int;
  icache_misses : int;
  dcache_accesses : int;
  dcache_misses : int;
  per_thread : per_thread array;
}

let ipc t = if t.cycles = 0 then 0.0 else float_of_int t.ops /. float_of_int t.cycles

let vertical_waste t =
  if t.cycles = 0 then 0.0
  else float_of_int t.vertical_waste_cycles /. float_of_int t.cycles

let horizontal_waste t =
  let busy_cycles = t.cycles - t.vertical_waste_cycles in
  if busy_cycles <= 0 || t.slots_offered = 0 then 0.0
  else begin
    (* [slots_offered / cycles] need not be integral (aggregated or
       hand-built records): keep the per-cycle width in float so it
       doesn't truncate before scaling by busy cycles. *)
    let busy_slots =
      float_of_int busy_cycles
      *. (float_of_int t.slots_offered /. float_of_int (max 1 t.cycles))
    in
    if busy_slots <= 0.0 then 0.0
    else 1.0 -. (float_of_int t.ops /. busy_slots)
  end

let rate misses accesses =
  if accesses = 0 then 0.0 else float_of_int misses /. float_of_int accesses

let dcache_miss_rate t = rate t.dcache_misses t.dcache_accesses

let icache_miss_rate t = rate t.icache_misses t.icache_accesses

let avg_threads_merged t =
  let issuing = ref 0 and weighted = ref 0 in
  Array.iteri
    (fun k cycles ->
      if k > 0 then begin
        issuing := !issuing + cycles;
        weighted := !weighted + (k * cycles)
      end)
    t.issue_hist;
  if !issuing = 0 then 0.0 else float_of_int !weighted /. float_of_int !issuing

let pp ppf t =
  Format.fprintf ppf
    "cycles=%d ops=%d instrs=%d IPC=%.3f vwaste=%.1f%% D$miss=%.2f%% I$miss=%.2f%%"
    t.cycles t.ops t.instrs (ipc t)
    (100.0 *. vertical_waste t)
    (100.0 *. dcache_miss_rate t)
    (100.0 *. icache_miss_rate t)
