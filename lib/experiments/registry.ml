(* First-class experiment registry.

   Every paper artifact and extension study is registered here once;
   the CLI (`vliwsim exp`) and perfbench's exp-all workload both derive
   their dispatch from this list instead of maintaining parallel
   hand-written sequences.

   An entry existentially packages the artifact type produced by its
   [run] function together with the matching [render] (and optional
   [csv]) functions, so adding an experiment is a one-line change and
   type errors stay local to the entry.

   A [ctx] carries the shared execution parameters, the lazily forced
   Figure 10 grid and a [Sweep.memo]. fig6, fig11, fig12, claims and
   fig10 itself all read the same 9-mix x 16-scheme sweep, forced once
   per context. The memo extends "only run once per context" to every
   program and cell: the figures are sweeps around one default machine
   and one set of Table 2 mixes, so fig10 re-meets fig4's 1S/3SSS
   cells, baselines ablations' baseline cells, sensitivity's default
   points ablations' LLHH cells, and compiler's perfect-memory block
   rows table1's perfect rows; each is compiled and simulated once. *)

type ctx = {
  scale : Common.scale;
  seed : int64;
  jobs : int;  (* worker domains for sweep cells; 0 = auto, 1 = serial *)
  telemetry : bool;  (* attach per-cell counter registries to the sweep *)
  max_retries : int;  (* per-cell retry budget before a cell degrades *)
  checkpoint : string option;  (* journal path for the shared fig10 sweep *)
  resume : bool;  (* restore journaled fig10 cells instead of re-running *)
  log : string -> unit;  (* diagnostic sink (journal warnings etc.) *)
  on_event : (Sweep.event -> unit) option;  (* structured progress stream *)
  replicate_seeds : int64 list option;  (* seed list for `exp replicates` *)
  replicate_exec :
    (seeds:int64 list -> (int64 * Fig10.data) list) option;
      (* distributed per-seed fig10 executor for replicates *)
  memo : Sweep.memo;  (* programs and cells shared by every study *)
  fig10 : Fig10.data Lazy.t;
}

(* The checkpoint journal is wired to the shared fig10 sweep only: it is
   the expensive artifact every downstream figure reads, and a single
   journal path cannot serve two sweeps with different configurations
   (fig4's 3-scheme grid would clobber fig10's 16-scheme one). The retry
   budget applies to every sweep-backed experiment. *)
(* [grid_exec] swaps the shared fig10 sweep's execution engine: when
   given (the distributed coordinator, injected by the CLI for
   `exp --workers N`), the lazy artifact is folded from its merged
   cells instead of running Sweep.run_cells in-process. The executor
   owns fault tolerance and checkpointing; bit-identical cells give a
   bit-identical artifact. *)
let make_ctx ?(scale = Common.Default) ?(seed = Common.default_seed) ?(jobs = 1)
    ?(telemetry = false) ?(max_retries = 0) ?checkpoint
    ?(resume = false) ?(log = fun (_ : string) -> ()) ?on_event
    ?replicate_seeds ?replicate_exec ?grid_exec () =
  let memo = Sweep.memo () in
  {
    scale;
    seed;
    jobs;
    telemetry;
    max_retries;
    checkpoint;
    resume;
    log;
    on_event;
    replicate_seeds;
    replicate_exec;
    memo;
    fig10 =
      (match grid_exec with
      | Some exec ->
        lazy
          (let scheme_names, mix_names, cells =
             exec ~scheme_names:Fig10.scheme_names
           in
           Fig10.of_cells ~scheme_names ~mix_names cells)
      | None ->
        lazy
          (Fig10.run ~scale ~seed ~jobs ~telemetry ~max_retries
             ?checkpoint ~resume ~log ?on_event ~memo ()));
  }

type csv = string list * string list list

(* What an experiment hands the run ledger. Experiments whose grid is
   not the shared fig10 sweep (e.g. "adaptive") export their own cells
   here, so `vliwsim exp` can record and `vliwsim profile` can render
   them; [li_policy] names the controller policy of adaptive columns —
   part of the ledger fingerprint, so an adaptive run never collides
   with a static one. *)
type ledger_info = {
  li_cells : Sweep.cell array;  (* mix-major *)
  li_scheme_names : string list;
  li_mix_names : string list;
  li_gauges : (string * float) list;
  li_policy : string;  (* "static" for plain sweeps *)
}

type t =
  | E : {
      id : string;
      title : string;
      expensive : bool;
          (* excluded from `exp all` (e.g. replicates re-runs the
             whole fig10 grid per seed) *)
      run : ctx -> 'a;
      render : 'a -> string;
      csv : ('a -> csv) option;
      info : ('a -> ledger_info) option;
    } -> t

let id (E e) = e.id
let title (E e) = e.title
let expensive (E e) = e.expensive
let has_csv (E e) = Option.is_some e.csv

(* Run an entry and return its rendered text plus CSV data when the
   experiment exports any. *)
let run_entry ctx (E e) =
  let artifact = e.run ctx in
  (e.render artifact, Option.map (fun f -> f artifact) e.csv)

(* Like [run_entry], also extracting the experiment's ledger export. *)
let run_entry_full ctx (E e) =
  let artifact = e.run ctx in
  ( e.render artifact,
    Option.map (fun f -> f artifact) e.csv,
    Option.map (fun f -> f artifact) e.info )

(* A simulating study at the ctx's scale and seed with its engine knobs,
   still to be applied to the study's own arguments. *)
let study ctx (run : 'a Sweep.study) =
  run ~scale:ctx.scale ~seed:ctx.seed ~jobs:ctx.jobs
    ~max_retries:ctx.max_retries ?on_event:ctx.on_event ~memo:ctx.memo

let entry ?(expensive = false) ?csv ?info id title run render =
  E { id; title; expensive; run; render; csv; info }

let all : t list =
  [
    entry "table1" "Table 1"
      (fun ctx -> (study ctx Table1.run) ())
      Table1.render ~csv:Table1.csv_rows;
    entry "table2" "Table 2" (fun _ -> ()) (fun () -> Table2.render ());
    entry "fig4" "Figure 4"
      (fun ctx -> (study ctx Fig4.run) ())
      Fig4.render;
    entry "fig5" "Figure 5" (fun _ -> Fig5.run ()) Fig5.render ~csv:Fig5.csv_rows;
    entry "fig6" "Figure 6"
      (fun ctx -> Fig6.of_grid (Lazy.force ctx.fig10).grid)
      Fig6.render;
    entry "fig9" "Figure 9" (fun _ -> Fig9.run ()) Fig9.render ~csv:Fig9.csv_rows;
    entry "fig10" "Figure 10"
      (fun ctx -> Lazy.force ctx.fig10)
      Fig10.render
      ~csv:(fun (d : Fig10.data) -> Common.grid_csv d.grid);
    entry "fig11" "Figure 11"
      (fun ctx -> Fig11.of_fig10 (Lazy.force ctx.fig10))
      Fig11.render ~csv:Fig11.csv_rows;
    entry "fig12" "Figure 12"
      (fun ctx -> Fig12.of_fig10 (Lazy.force ctx.fig10))
      Fig12.render ~csv:Fig12.csv_rows;
    entry "claims" "Headline claims"
      (fun ctx -> Claims.of_fig10 (Lazy.force ctx.fig10))
      Claims.render;
    entry "ablations" "Ablations"
      (fun ctx -> (study ctx Ablations.run) ())
      Ablations.render;
    entry "ext8" "Extension: 8 threads"
      (fun ctx -> (study ctx Ext8.run) ())
      Ext8.render;
    entry "baselines" "Baselines (IMT/BMT vs merging)"
      (fun ctx -> (study ctx Baselines.run) ())
      Baselines.render;
    entry "sensitivity" "Sensitivity"
      (fun ctx -> (study ctx Sensitivity.all) ())
      Sensitivity.render_all;
    entry "compiler" "Compiler: block vs trace scheduling"
      (fun ctx -> (study ctx Compiler_cmp.run) ())
      Compiler_cmp.render;
    entry "waste" "Waste decomposition"
      (fun ctx -> (study ctx Waste.run) ~mix:"LLHH" ())
      (Waste.render "LLHH");
    entry "speedup" "Weighted speedup and fairness"
      (fun ctx -> (study ctx Speedup.run) ~mix:"LLHH" ())
      (Speedup.render "LLHH");
    entry "replicates" "Headline claims across seeds" ~expensive:true
      ~info:(fun (t : Replicates.t) ->
        {
          (* the grid cells live in the per-seed records of the
             executor; the summary record carries the statistics *)
          li_cells = [||];
          li_scheme_names = Fig10.scheme_names;
          li_mix_names = Vliw_workloads.Mixes.names;
          li_gauges =
            (("replicates.n", float_of_int t.n) :: Replicates.cell_gauges t.cells);
          li_policy = "static";
        })
      (fun ctx ->
        Replicates.run ~scale:ctx.scale ?seeds:ctx.replicate_seeds
          ~jobs:ctx.jobs ?fig10s:ctx.replicate_exec ())
      Replicates.render;
    (* Expensive: 7 columns x 9 mixes with telemetry, on top of the
       standard set — run explicitly (`exp adaptive`). The checkpoint
       path is derived from the shared one: the column set differs from
       fig10's, so the journals must never share a file. *)
    entry "adaptive" "Adaptive merging (per-timeslice controller)"
      ~expensive:true
      ~csv:Adaptive.csv_rows
      ~info:(fun (d : Adaptive.data) ->
        {
          li_cells = d.cells;
          li_scheme_names = d.grid.scheme_names;
          li_mix_names = d.grid.mix_names;
          li_gauges = Adaptive.gauges d;
          li_policy = d.policy;
        })
      (fun ctx ->
        Adaptive.run ~scale:ctx.scale ~seed:ctx.seed ~jobs:ctx.jobs
          ~max_retries:ctx.max_retries
          ?checkpoint:(Option.map (fun p -> p ^ ".adaptive") ctx.checkpoint)
          ~resume:ctx.resume ~log:ctx.log ?on_event:ctx.on_event ())
      Adaptive.render;
  ]

let ids = List.map id all

let find wanted = List.find_opt (fun (E e) -> e.id = wanted) all

let find_exn wanted =
  match find wanted with
  | Some e -> e
  | None -> invalid_arg ("registry: unknown experiment " ^ wanted)

(* The entries regenerated by `exp all`. *)
let standard = List.filter (fun e -> not (expensive e)) all
