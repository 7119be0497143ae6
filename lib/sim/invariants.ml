(* Post-run self-checks.

   Every metrics record the simulator hands out satisfies a set of
   conservation laws by construction: operations and instructions are
   only booked at retire, one entry per thread, so the totals must equal
   the per-thread sums; the issue histogram partitions the cycle count;
   waste fractions are proper fractions; caches cannot miss more often
   than they are accessed. [check_metrics] re-derives each law from the
   record itself and raises [Violation] if any fails — a tripped check
   means the simulator's bookkeeping (not the workload) is broken.

   The checks are cheap (a few integer folds over a record that took
   millions of simulated cycles to produce), so test builds enforce them
   on every simulation ([set_enforced true] / VLIWSIM_INVARIANTS=1) and
   `vliwsim check` runs them across the whole experiment registry.

   [check_select] is the third leg: a sampled probe that the batched
   kernel [Engine.select_batched] agrees bit-for-bit with the
   list-walking oracle [Engine.select_reference] on random instruction
   shapes — the full property lives in the QCheck suite; the probe
   catches a skew in production configurations. *)

module Machine = Vliw_isa.Machine
module Op = Vliw_isa.Op
module Instr = Vliw_isa.Instr
module Engine = Vliw_merge.Engine
module Rng = Vliw_util.Rng

exception Violation of string

let () =
  Printexc.register_printer (function
    | Violation msg -> Some ("Vliw_sim.Invariants.Violation: " ^ msg)
    | _ -> None)

(* --- enforcement switch ---------------------------------------------- *)

let enforced_flag =
  Atomic.make
    (match Sys.getenv_opt "VLIWSIM_INVARIANTS" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let enforced () = Atomic.get enforced_flag
let set_enforced b = Atomic.set enforced_flag b

(* --- metrics conservation -------------------------------------------- *)

let violations (m : Metrics.t) =
  let faults = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> faults := s :: !faults) fmt in
  let sum f = Array.fold_left (fun acc pt -> acc + f pt) 0 m.per_thread in
  let thread_ops = sum (fun (pt : Metrics.per_thread) -> pt.ops) in
  let thread_instrs = sum (fun (pt : Metrics.per_thread) -> pt.instrs) in
  if m.ops <> thread_ops then
    fail "ops conservation: total %d <> sum of per-thread ops %d" m.ops
      thread_ops;
  if m.instrs <> thread_instrs then
    fail "instr conservation: total %d <> sum of per-thread instrs %d" m.instrs
      thread_instrs;
  Array.iter
    (fun (pt : Metrics.per_thread) ->
      if pt.ops < 0 || pt.instrs < 0 then
        fail "thread %s: negative retire counts (ops %d, instrs %d)" pt.name
          pt.ops pt.instrs)
    m.per_thread;
  let hist_cycles = Array.fold_left ( + ) 0 m.issue_hist in
  if hist_cycles <> m.cycles then
    fail "issue histogram: buckets sum to %d cycles, simulated %d" hist_cycles
      m.cycles;
  let hist_instrs =
    let acc = ref 0 in
    Array.iteri (fun k c -> acc := !acc + (k * c)) m.issue_hist;
    !acc
  in
  if hist_instrs <> m.instrs then
    fail "issue histogram: weighted sum %d <> instrs issued %d" hist_instrs
      m.instrs;
  Array.iteri
    (fun k c -> if c < 0 then fail "issue histogram: bucket %d is negative" k)
    m.issue_hist;
  (* A cycle can issue instructions yet zero operations (nop-only
     packets), so vertical waste dominates the zero-thread bucket but
     never the cycle count. *)
  if Array.length m.issue_hist > 0 && m.vertical_waste_cycles < m.issue_hist.(0)
  then
    fail "vertical waste %d < zero-issue cycles %d" m.vertical_waste_cycles
      m.issue_hist.(0);
  if m.vertical_waste_cycles > m.cycles then
    fail "vertical waste %d > cycles %d" m.vertical_waste_cycles m.cycles;
  if m.ops > m.slots_offered then
    fail "issued %d ops into %d offered slots" m.ops m.slots_offered;
  if m.cycles > 0 && m.slots_offered mod m.cycles <> 0 then
    fail "slots offered %d is not a multiple of cycles %d" m.slots_offered
      m.cycles;
  List.iter
    (fun (what, f) ->
      let v = f m in
      if not (v >= 0.0 && v <= 1.0) then
        (* Also catches nan: nan fails both comparisons. *)
        fail "%s waste %g outside [0, 1]" what v)
    (if m.cycles = 0 then []
     else
       [ ("horizontal", Metrics.horizontal_waste); ("vertical", Metrics.vertical_waste) ]);
  List.iter
    (fun (what, accesses, misses) ->
      if misses < 0 || accesses < 0 || misses > accesses then
        fail "%s: %d misses of %d accesses" what misses accesses)
    [
      ("icache", m.icache_accesses, m.icache_misses);
      ("dcache", m.dcache_accesses, m.dcache_misses);
    ];
  List.rev !faults

let check_metrics m =
  match violations m with
  | [] -> ()
  | faults -> raise (Violation (String.concat "; " faults))

(* --- stall attribution ------------------------------------------------ *)

let check_attribution (snap : Vliw_telemetry.Counters.snapshot) =
  (* Only meaningful when the attribution counters were attached: a
     registry without "slots.offered" never saw the per-cycle hooks. *)
  if Vliw_telemetry.Counters.count snap "slots.offered" > 0 then begin
    let wasted = Vliw_telemetry.Report.wasted snap in
    let attributed = Vliw_telemetry.Report.attributed snap in
    if wasted < 0 then
      raise
        (Violation (Printf.sprintf "negative waste: %d slots" wasted));
    if wasted <> attributed then
      raise
        (Violation
           (Printf.sprintf
              "stall attribution: %d wasted slots, %d attributed" wasted
              attributed));
    (* Switch-penalty conservation: a whole-width cycle is booked to
       [waste.vertical.bmt_switch] exactly when the bubble-cycle counter
       ticks, and every bubble cycle lies inside an issue-stall window
       (BMT context switch or merge-network reconfiguration). *)
    let count = Vliw_telemetry.Counters.count snap in
    let cycles = count Vliw_telemetry.Report.n_cycles in
    let offered = count "slots.offered" in
    let bubbles = count Vliw_telemetry.Report.n_switch_bubbles in
    let v_switch = count Vliw_telemetry.Report.n_v_switch in
    if cycles > 0 && offered mod cycles = 0 then begin
      let width = offered / cycles in
      if v_switch <> width * bubbles then
        raise
          (Violation
             (Printf.sprintf
                "switch-penalty conservation: %d bmt_switch slots <> width %d \
                 x %d bubble cycles"
                v_switch width bubbles))
    end;
    let stall = count Vliw_telemetry.Report.n_switch_stall in
    if bubbles > stall then
      raise
        (Violation
           (Printf.sprintf
              "switch-penalty conservation: %d bubble cycles exceed %d \
               stall-window cycles"
              bubbles stall));
    (* Event slots agree with attribution. Only for a registry every part
       of which was filled by a core: a cell restored from a checkpoint
       carries its counters but not its histograms. *)
    let hist name =
      List.assoc_opt name snap.Vliw_telemetry.Counters.histograms
    in
    match (hist "issue.slots_filled", hist "issue.threads_merged") with
    | Some slots, Some merged when count Vliw_telemetry.Report.n_sweep_resumed = 0
      ->
      let law what a b =
        if a <> b then
          raise (Violation (Printf.sprintf "event slots: %s (%d <> %d)" what a b))
      in
      (* an integer-valued float sum is exact below 2^53 *)
      law "issue.slots_filled sum = slots.filled" (int_of_float slots.sum)
        (count "slots.filled");
      let issues = count "events.issue" in
      law "issue.slots_filled total = events.issue" slots.total issues;
      law "events.issue = issue.threads_merged total" issues merged.total;
      law "events.fetch_stall = events.cache_miss.l1i"
        (count "events.fetch_stall")
        (count "events.cache_miss.l1i")
    | _ -> ()
  end

(* --- select_batched = select_reference probe -------------------------- *)

let random_instr rng machine =
  let classes = [| Op.Alu; Op.Alu; Op.Mul; Op.Load; Op.Store; Op.Branch |] in
  let id = ref 0 in
  let cluster () =
    List.init
      (Rng.int rng (machine.Machine.issue_width + 1))
      (fun _ ->
        incr id;
        Op.make (Rng.choose rng classes) !id)
  in
  Instr.of_cluster_ops ~addr:0
    (Array.init machine.Machine.clusters (fun _ -> cluster ()))

let random_avail rng machine n_threads =
  Array.init n_threads (fun thread ->
      if Rng.int rng 4 = 0 then None
      else
        Some (Vliw_merge.Packet.of_instr machine ~thread (random_instr rng machine)))

let selection_repr (s : Engine.selection) =
  Printf.sprintf "issued=[%s] rejected=[%s] packet=%s"
    (String.concat ";" (List.map string_of_int s.issued))
    (String.concat ";"
       (List.map (fun (r : Engine.reject) -> string_of_int r.thread) s.rejected))
    (match s.packet with
    | None -> "none"
    | Some p -> Printf.sprintf "threads=%x mask=%x" p.threads p.mask)

let check_select ?(machine = Machine.default)
    ?(routing = Vliw_merge.Conflict.Flexible) ?(seed = 0xC0FFEEL)
    ?(samples = 64) scheme =
  let rng = Rng.create seed in
  let n = Vliw_merge.Scheme.n_threads scheme in
  for _ = 1 to samples do
    let avail = random_avail rng machine n in
    let rotation = Rng.int rng (max 1 n) in
    let batched = Engine.select_batched machine ~routing scheme ~rotation avail in
    let reference =
      Engine.select_reference machine ~routing scheme ~rotation avail
    in
    let agree (a : Engine.selection) (b : Engine.selection) =
      a.issued = b.issued && a.rejected = b.rejected && a.packet = b.packet
    in
    if not (agree batched reference) then
      raise
        (Violation
           (Printf.sprintf
              "select_batched <> select_reference on %s (rotation %d):\n\
               batched %s\nref     %s"
              (Vliw_merge.Scheme.to_string scheme)
              rotation (selection_repr batched)
              (selection_repr reference)))
  done
