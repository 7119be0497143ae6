(* Self-contained HTML dashboard for a simulation run.

   One file, zero JavaScript, zero external references: all styling is
   an inline <style> block and every chart is inline SVG, so the report
   opens from a file:// URL on an air-gapped machine and survives being
   mailed around. Rendered sections:

   - run summary (config, git rev, fingerprint, fault-tolerance stats);
   - the fig10-style IPC grid as grouped bars (series = schemes,
     groups = mixes), with a data-table fallback under <details>;
   - horizontal/vertical waste breakdown bars from telemetry counters;
   - stall-attribution tables grouped by counter prefix, with inline
     share bars;
   - per-worker sweep cell timeline (gantt), degraded cells flagged;
   - cross-run mean-IPC trajectory over same-fingerprint ledger runs.

   Colour discipline (see the dataviz palette notes): categorical hues
   are assigned in fixed slot order and never cycled — more than 8
   schemes switches the grid to a single-hue ordinal blue ramp with
   per-bar tooltips; single-series charts use slot 1 only; the status
   red is reserved for degraded cells and always paired with a text
   label. Light and dark palettes are both explicit (CSS custom
   properties swapped by prefers-color-scheme), values carry text
   tokens rather than series colours, and every mark has an SVG <title>
   so hover identification needs no JS. *)

let pf = Printf.sprintf

(* --- palette (validated slot order; light/dark pairs) ---------------- *)

let categorical =
  [|
    ("#2a78d6", "#3987e5");
    ("#eb6834", "#d95926");
    ("#1baf7a", "#199e70");
    ("#eda100", "#c98500");
    ("#e87ba4", "#d55181");
    ("#008300", "#008300");
    ("#4a3aa7", "#9085e9");
    ("#e34948", "#e66767");
  |]

(* Ordinal blue ramp: on light surfaces start no lighter than step 250,
   on dark go no darker than step 600 (contrast floors). *)
let seq_light =
  [| "#86b6ef"; "#6da7ec"; "#5598e7"; "#3987e5"; "#2a78d6"; "#256abf";
     "#1c5cab"; "#184f95"; "#104281" |]

let seq_dark =
  [| "#cde2fb"; "#b7d3f6"; "#9ec5f4"; "#86b6ef"; "#6da7ec"; "#5598e7";
     "#3987e5"; "#2a78d6"; "#256abf" |]

(* Colour for series [i] of [k]: categorical slots when they fit, an
   evenly-sampled ordinal ramp otherwise. Returns (light, dark). *)
let series_color ~k i =
  if k <= Array.length categorical then categorical.(i)
  else begin
    let sample (ramp : string array) =
      let n = Array.length ramp in
      if k = 1 then ramp.(n / 2)
      else ramp.(i * (n - 1) / (k - 1))
    in
    (sample seq_light, sample seq_dark)
  end

(* Series CSS variables: the chart body references var(--c0..--cN) so
   the light/dark swap happens in one place. *)
let series_vars k =
  let buf_light = Buffer.create 256 and buf_dark = Buffer.create 256 in
  for i = 0 to k - 1 do
    let light, dark = series_color ~k i in
    Buffer.add_string buf_light (pf "--c%d:%s;" i light);
    Buffer.add_string buf_dark (pf "--c%d:%s;" i dark)
  done;
  (Buffer.contents buf_light, Buffer.contents buf_dark)

(* --- text helpers ----------------------------------------------------- *)

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_num v =
  if Float.is_nan v then "n/a"
  else if Float.abs v >= 1000.0 then pf "%.0f" v
  else pf "%.2f" v

let fmt_time epoch =
  if epoch <= 0.0 then "-"
  else begin
    let tm = Unix.gmtime epoch in
    pf "%04d-%02d-%02d %02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  end

(* Round a chart maximum up to 1/2/2.5/5 x 10^k so axis ticks land on
   readable values. *)
let nice_max v =
  if v <= 0.0 || Float.is_nan v then 1.0
  else begin
    let mag = Float.pow 10.0 (Float.floor (Float.log10 v)) in
    let frac = v /. mag in
    let nice =
      if frac <= 1.0 then 1.0
      else if frac <= 2.0 then 2.0
      else if frac <= 2.5 then 2.5
      else if frac <= 5.0 then 5.0
      else 10.0
    in
    nice *. mag
  end

(* Bar with a 4px-rounded data end, anchored flat to the baseline. *)
let bar_path ~x ~y ~w ~h =
  let r = Float.min 4.0 (Float.min (w /. 2.0) h) in
  pf "M%.1f %.1fL%.1f %.1fQ%.1f %.1f %.1f %.1fL%.1f %.1fQ%.1f %.1f %.1f %.1fL%.1f %.1fZ"
    x (y +. h) x (y +. r) x y (x +. r) y
    (x +. w -. r) y (x +. w) y (x +. w) (y +. r)
    (x +. w) (y +. h)

(* Left-anchored bar (horizontal), rounded at the value end. *)
let hbar_path ~x ~y ~w ~h =
  let r = Float.min 4.0 (Float.min (h /. 2.0) w) in
  pf "M%.1f %.1fL%.1f %.1fQ%.1f %.1f %.1f %.1fL%.1f %.1fQ%.1f %.1f %.1f %.1fL%.1f %.1fZ"
    x y (x +. w -. r) y (x +. w) y (x +. w) (y +. r)
    (x +. w) (y +. h -. r) (x +. w) (y +. h) (x +. w -. r) (y +. h)
    x (y +. h)

let y_axis buf ~left ~top ~plot_w ~plot_h ~vmax ~ticks =
  for t = 0 to ticks do
    let v = vmax *. float_of_int t /. float_of_int ticks in
    let y = top +. plot_h -. (plot_h *. float_of_int t /. float_of_int ticks) in
    Buffer.add_string buf
      (pf "<line class=\"grid\" x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\"/>"
         left y (left +. plot_w) y);
    Buffer.add_string buf
      (pf "<text class=\"tick\" x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\">%s</text>"
         (left -. 6.0) (y +. 3.5) (fmt_num v))
  done

(* --- sections --------------------------------------------------------- *)

let section_summary (r : Ledger.run) =
  let row k v = pf "<tr><th>%s</th><td>%s</td></tr>" (esc k) (esc v) in
  let fault =
    pf "%d retries, %d degraded, %d timeouts, %d resumed" r.retries r.degraded
      r.timeouts r.resumed
  in
  let gauges =
    match r.gauges with
    | [] -> ""
    | gs ->
      String.concat ""
        (List.map (fun (k, v) -> row k (fmt_num v)) gs)
  in
  pf
    {|<section><h2>Run %s</h2><table class="kv">%s%s%s%s%s%s%s%s%s%s%s</table></section>|}
    (esc r.id)
    (row "command" (r.cmd ^ " " ^ r.label))
    (row "recorded" (fmt_time r.time_s))
    (row "git revision" r.git_rev)
    (row "config fingerprint" r.fingerprint)
    (if r.policy = "static" then "" else row "controller policy" r.policy)
    (row "scale / seed" (pf "%s / 0x%Lx" r.scale r.seed))
    (row "jobs" (string_of_int r.jobs))
    (row "wall clock" (pf "%.2f s" r.wall_s))
    (row "grid" (pf "%d cells (%s)" (Array.length r.cells)
                   (Ledger.grid_digest r.cells)))
    (row "fault tolerance" fault)
    gauges

let grid_lookup (r : Ledger.run) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (c : Ledger.cell) -> Hashtbl.replace tbl (c.mix, c.scheme) c)
    r.cells;
  fun mix scheme -> Hashtbl.find_opt tbl (mix, scheme)

let section_ipc_grid (r : Ledger.run) =
  if Array.length r.cells = 0 then ""
  else begin
    let schemes = r.scheme_names and mixes = r.mix_names in
    let k = List.length schemes and n = List.length mixes in
    if k = 0 || n = 0 then ""
    else begin
      let lookup = grid_lookup r in
      let vmax =
        Array.fold_left
          (fun acc (c : Ledger.cell) ->
            if Float.is_nan c.ipc then acc else Float.max acc c.ipc)
          0.0 r.cells
      in
      let vmax = nice_max vmax in
      let left = 46.0 and top = 10.0 and bottom = 34.0 and right = 8.0 in
      let plot_w = 820.0 and plot_h = 240.0 in
      let w = left +. plot_w +. right and h = top +. plot_h +. bottom in
      let buf = Buffer.create 8192 in
      Buffer.add_string buf
        (pf "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" aria-label=\"IPC by mix and scheme\">"
           w h);
      y_axis buf ~left ~top ~plot_w ~plot_h ~vmax ~ticks:4;
      let gw = plot_w /. float_of_int n in
      let band = gw *. 0.82 in
      let bw =
        Float.max 2.0 ((band -. (2.0 *. float_of_int (k - 1))) /. float_of_int k)
      in
      List.iteri
        (fun gi mix ->
          let gx = left +. (gw *. float_of_int gi) +. ((gw -. band) /. 2.0) in
          Buffer.add_string buf
            (pf "<text class=\"tick\" x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\">%s</text>"
               (left +. (gw *. (float_of_int gi +. 0.5)))
               (top +. plot_h +. 16.0) (esc mix));
          List.iteri
            (fun si scheme ->
              match lookup mix scheme with
              | None -> ()
              | Some c ->
                let v = if Float.is_nan c.ipc then 0.0 else c.ipc in
                let bh = plot_h *. v /. vmax in
                let x = gx +. (float_of_int si *. (bw +. 2.0)) in
                let y = top +. plot_h -. bh in
                let tip =
                  pf "%s / %s: IPC %s%s" mix scheme
                    (if Float.is_nan c.ipc then "n/a" else pf "%.4f" c.ipc)
                    (if c.degraded then " (degraded)" else "")
                in
                if Float.is_nan c.ipc || c.degraded then
                  (* Status colour + text marker: degraded is a state,
                     never just another hue. *)
                  Buffer.add_string buf
                    (pf "<g><path d=\"%s\" class=\"deg\"/><title>%s</title></g>"
                       (bar_path ~x ~y:(top +. plot_h -. 4.0) ~w:bw ~h:4.0)
                       (esc tip))
                else
                  Buffer.add_string buf
                    (pf "<g><path d=\"%s\" fill=\"var(--c%d)\"/><title>%s</title></g>"
                       (bar_path ~x ~y ~w:bw ~h:bh) si (esc tip)))
            schemes)
        mixes;
      Buffer.add_string buf
        (pf "<line class=\"axis\" x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\"/>"
           left (top +. plot_h) (left +. plot_w) (top +. plot_h));
      Buffer.add_string buf "</svg>";
      let legend =
        if k <= Array.length categorical then
          "<div class=\"legend\">"
          ^ String.concat ""
              (List.mapi
                 (fun si scheme ->
                   pf "<span><i style=\"background:var(--c%d)\"></i>%s</span>" si
                     (esc scheme))
                 schemes)
          ^ "</div>"
        else
          pf
            "<p class=\"note\">%d schemes exceed the 8-slot categorical palette; bars use a single-hue ramp in scheme order — hover a bar or open the data table below.</p>"
            k
      in
      let table =
        let buf = Buffer.create 2048 in
        Buffer.add_string buf
          "<details><summary>Data table</summary><table class=\"data\"><tr><th>mix</th>";
        List.iter
          (fun s -> Buffer.add_string buf (pf "<th>%s</th>" (esc s)))
          schemes;
        Buffer.add_string buf "</tr>";
        List.iter
          (fun mix ->
            Buffer.add_string buf (pf "<tr><th>%s</th>" (esc mix));
            List.iter
              (fun scheme ->
                let txt =
                  match lookup mix scheme with
                  | Some c when not (Float.is_nan c.ipc) -> pf "%.4f" c.ipc
                  | Some _ -> "n/a"
                  | None -> "-"
                in
                Buffer.add_string buf (pf "<td>%s</td>" txt))
              schemes;
            Buffer.add_string buf "</tr>")
          mixes;
        Buffer.add_string buf "</table></details>";
        Buffer.contents buf
      in
      pf
        "<section><h2>IPC by workload mix and merge scheme</h2>%s%s%s%s</section>"
        (Buffer.contents buf) legend
        (if r.degraded > 0 then
           "<p class=\"note\"><i class=\"degswatch\"></i>degraded cell (simulation fell back after repeated failures)</p>"
         else "")
        table
    end
  end

(* Single-series horizontal bars for a counter family; slot-1 blue only
   (one series needs no legend and never a second hue). *)
let hbar_chart ~title rows =
  match rows with
  | [] -> ""
  | _ ->
    let vmax =
      nice_max (List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 rows)
    in
    let label_w = 190.0 and bar_w = 480.0 and value_w = 110.0 in
    let row_h = 22.0 and top = 6.0 in
    let h = top +. (row_h *. float_of_int (List.length rows)) +. 6.0 in
    let w = label_w +. bar_w +. value_w in
    let buf = Buffer.create 2048 in
    Buffer.add_string buf
      (pf "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" aria-label=\"%s\">" w h
         (esc title));
    List.iteri
      (fun i (name, v) ->
        let y = top +. (row_h *. float_of_int i) in
        let bw = bar_w *. v /. vmax in
        Buffer.add_string buf
          (pf "<text class=\"tick\" x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\">%s</text>"
             (label_w -. 8.0) (y +. 14.0) (esc name));
        Buffer.add_string buf
          (pf "<g><path d=\"%s\" fill=\"var(--c0)\"/><title>%s: %s</title></g>"
             (hbar_path ~x:label_w ~y:(y +. 3.0) ~w:(Float.max 1.0 bw) ~h:14.0)
             (esc name) (fmt_num v));
        Buffer.add_string buf
          (pf "<text class=\"val\" x=\"%.1f\" y=\"%.1f\">%s</text>"
             (label_w +. Float.max 1.0 bw +. 8.0)
             (y +. 14.0) (fmt_num v)))
      rows;
    Buffer.add_string buf "</svg>";
    pf "<h3>%s</h3>%s" (esc title) (Buffer.contents buf)

let counters_with_prefix counters prefix =
  List.filter_map
    (fun (name, v) ->
      if
        String.length name > String.length prefix
        && String.sub name 0 (String.length prefix) = prefix
      then
        Some
          ( String.sub name (String.length prefix)
              (String.length name - String.length prefix),
            float_of_int v )
      else None)
    counters

(* Adaptive-controller panel: only renders when the run engaged a
   non-static policy or actually reconfigured the merge network.
   Decision counts come from the controller.decisions.* counters the
   sweep books per column, so the chart shows how often each candidate
   scheme won a timeslice. *)
let section_adaptive (r : Ledger.run) =
  let count name =
    match List.assoc_opt name r.counters with Some v -> v | None -> 0
  in
  let decisions = counters_with_prefix r.counters "controller.decisions." in
  let switches = count "sim.scheme_switches" in
  if r.policy = "static" && decisions = [] && switches = 0 then ""
  else begin
    let row k v = pf "<tr><th>%s</th><td>%s</td></tr>" (esc k) (esc v) in
    pf
      "<section><h2>Adaptive controller</h2><table class=\"kv\">%s%s%s%s%s</table>%s</section>"
      (row "policy" r.policy)
      (row "scheme switches" (string_of_int switches))
      (row "controller switches" (string_of_int (count "controller.switches")))
      (row "switch stall cycles"
         (string_of_int (count "sim.switch_stall_cycles")))
      (row "switch bubble cycles"
         (string_of_int (count "core.switch_bubble_cycles")))
      (hbar_chart ~title:"Per-timeslice scheme decisions" decisions)
  end

(* Sweep-service panel: only renders for [serve] records (or any run
   booking service.* counters). The headline number is the cache-hit
   rate — the whole point of content-addressed serving. *)
let section_service (r : Ledger.run) =
  let cells = counters_with_prefix r.counters "service.cells." in
  if r.cmd <> "serve" && cells = [] then ""
  else begin
    let count name =
      match List.assoc_opt name cells with Some v -> v | None -> 0.0
    in
    let cached = count "cached" and simulated = count "simulated" in
    let total = cached +. simulated +. count "degraded" in
    let hit_rate =
      if total = 0.0 then "n/a"
      else pf "%.1f%%" (100.0 *. cached /. total)
    in
    let row k v = pf "<tr><th>%s</th><td>%s</td></tr>" (esc k) (esc v) in
    pf
      "<section><h2>Sweep service</h2><table class=\"kv\">%s%s%s</table>%s</section>"
      (row "cache-hit rate" hit_rate)
      (row "cells served from cache" (fmt_num cached))
      (row "cells simulated" (fmt_num simulated))
      (hbar_chart ~title:"Cell provenance" cells)
  end

(* Distributed-sweep panel: only renders for [dist] records (or any run
   booking dist.* counters). Headline numbers are the worker fleet and
   the fault-tolerance work: deaths, requeues, retries, degrades. *)
let section_dist (r : Ledger.run) =
  let cells = counters_with_prefix r.counters "dist.cells." in
  let shards = counters_with_prefix r.counters "dist.shards." in
  let workers = counters_with_prefix r.counters "dist.workers." in
  if r.cmd <> "dist" && cells = [] && shards = [] && workers = [] then ""
  else begin
    let count group name =
      match List.assoc_opt name group with Some v -> v | None -> 0.0
    in
    let row k v = pf "<tr><th>%s</th><td>%s</td></tr>" (esc k) (esc v) in
    pf
      "<section><h2>Distributed sweep</h2><table class=\"kv\">%s%s%s%s</table>%s%s</section>"
      (row "workers"
         (fmt_num (count workers "spawned" +. count workers "attached")))
      (row "worker deaths" (fmt_num (count workers "died")))
      (row "shards requeued" (fmt_num (count shards "requeued")))
      (row "cells degraded" (fmt_num (count cells "degraded")))
      (hbar_chart ~title:"Cell provenance" cells)
      (hbar_chart ~title:"Shard lifecycle" shards)
  end

(* Request-latency panel: renders when the record carries span.* gauges
   (a traced serve job or a traced dist sweep). Quantiles are exact
   (nearest-rank) and plotted in milliseconds; per-kind span counts ride
   in the kv table. *)
let section_latency (r : Ledger.run) =
  let kinds =
    List.filter_map
      (fun (name, v) ->
        match String.split_on_char '.' name with
        | [ "span"; kind; "count" ] -> Some (kind, int_of_float v)
        | _ -> None)
      r.gauges
  in
  if kinds = [] then ""
  else begin
    let rows =
      List.concat_map
        (fun (kind, _) ->
          List.filter_map
            (fun q ->
              match List.assoc_opt (pf "span.%s.%s" kind q) r.gauges with
              | Some v -> Some (pf "%s %s" kind q, v *. 1000.0)
              | None -> None)
            [ "p50"; "p95"; "p99" ])
        kinds
    in
    let row k v = pf "<tr><th>%s</th><td>%s</td></tr>" (esc k) (esc v) in
    pf
      "<section><h2>Request latency</h2><table class=\"kv\">%s</table>%s<p class=\"note\">Exact (nearest-rank) quantiles over this run's trace spans, one family per span kind.</p></section>"
      (String.concat ""
         (List.map
            (fun (kind, n) -> row (kind ^ " spans") (string_of_int n))
            kinds))
      (hbar_chart ~title:"Span latency quantiles (ms)" rows)
  end

let section_waste (r : Ledger.run) =
  let vertical = counters_with_prefix r.counters "waste.vertical." in
  let horizontal = counters_with_prefix r.counters "waste.horizontal." in
  if vertical = [] && horizontal = [] then ""
  else
    pf "<section><h2>Issue-slot waste breakdown</h2>%s%s</section>"
      (hbar_chart ~title:"Vertical waste (whole empty cycles)" vertical)
      (hbar_chart ~title:"Horizontal waste (unfilled slots in issuing cycles)"
         horizontal)

(* Stall attribution as nested tables: counters grouped by their first
   dot segment, each row carrying an inline share bar. Values stay in
   text ink; only the share bar wears the series colour. *)
let section_stalls (r : Ledger.run) =
  if r.counters = [] then ""
  else begin
    let groups = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (name, v) ->
        let cat, rest =
          match String.index_opt name '.' with
          | Some i ->
            ( String.sub name 0 i,
              String.sub name (i + 1) (String.length name - i - 1) )
          | None -> (name, name)
        in
        if not (Hashtbl.mem groups cat) then begin
          Hashtbl.add groups cat (ref []);
          order := cat :: !order
        end;
        let cell = Hashtbl.find groups cat in
        cell := (rest, v) :: !cell)
      r.counters;
    let buf = Buffer.create 4096 in
    List.iter
      (fun cat ->
        let rows = List.rev !(Hashtbl.find groups cat) in
        let total = List.fold_left (fun acc (_, v) -> acc + v) 0 rows in
        Buffer.add_string buf
          (pf "<table class=\"data stall\"><tr><th colspan=\"4\">%s (total %d)</th></tr>"
             (esc cat) total);
        List.iter
          (fun (name, v) ->
            let share =
              if total = 0 then 0.0
              else 100.0 *. float_of_int v /. float_of_int total
            in
            Buffer.add_string buf
              (pf
                 "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%.1f%%</td><td class=\"sharecell\"><div class=\"share\" style=\"width:%.1f%%\"></div></td></tr>"
                 (esc name) v share share))
          rows;
        Buffer.add_string buf "</table>")
      (List.rev !order);
    pf "<section><h2>Stall &amp; event attribution</h2>%s</section>"
      (Buffer.contents buf)
  end

let section_timeline (r : Ledger.run) =
  if Array.length r.cells = 0 then ""
  else begin
    let t0 =
      Array.fold_left
        (fun acc (c : Ledger.cell) -> Float.min acc c.started_s)
        infinity r.cells
    in
    let t1 =
      Array.fold_left
        (fun acc (c : Ledger.cell) -> Float.max acc (c.started_s +. c.elapsed_s))
        0.0 r.cells
    in
    let span = Float.max 1e-9 (t1 -. t0) in
    let workers =
      1
      + Array.fold_left
          (fun acc (c : Ledger.cell) -> max acc c.worker)
          0 r.cells
    in
    let left = 70.0 and top = 6.0 and right = 8.0 and bottom = 24.0 in
    let plot_w = 770.0 in
    let lane_h = 22.0 in
    let plot_h = lane_h *. float_of_int workers in
    let w = left +. plot_w +. right and h = top +. plot_h +. bottom in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (pf "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" aria-label=\"Sweep cell timeline\">"
         w h);
    for lane = 0 to workers - 1 do
      let y = top +. (lane_h *. float_of_int lane) in
      Buffer.add_string buf
        (pf "<text class=\"tick\" x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\">worker %d</text>"
           (left -. 8.0) (y +. 15.0) lane);
      Buffer.add_string buf
        (pf "<line class=\"grid\" x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\"/>"
           left (y +. lane_h) (left +. plot_w) (y +. lane_h))
    done;
    Array.iter
      (fun (c : Ledger.cell) ->
        let x = left +. (plot_w *. (c.started_s -. t0) /. span) in
        let bw = Float.max 1.5 (plot_w *. c.elapsed_s /. span) in
        let y = top +. (lane_h *. float_of_int c.worker) +. 3.0 in
        let cls = if c.degraded then "class=\"deg\"" else "fill=\"var(--c0)\"" in
        let tip =
          pf "%s / %s: %.3fs at +%.3fs, %d attempt%s%s" c.mix c.scheme
            c.elapsed_s (c.started_s -. t0) c.attempts
            (if c.attempts = 1 then "" else "s")
            (if c.degraded then ", degraded" else "")
        in
        Buffer.add_string buf
          (pf "<g><rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" rx=\"2\" %s stroke=\"var(--surface)\" stroke-width=\"1\"/><title>%s</title></g>"
             x y bw (lane_h -. 6.0) cls (esc tip)))
      r.cells;
    Buffer.add_string buf
      (pf "<text class=\"tick\" x=\"%.1f\" y=\"%.1f\">0s</text>" left
         (top +. plot_h +. 16.0));
    Buffer.add_string buf
      (pf "<text class=\"tick\" x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\">%.2fs</text>"
         (left +. plot_w) (top +. plot_h +. 16.0) span);
    Buffer.add_string buf "</svg>";
    pf
      "<section><h2>Sweep cell timeline</h2>%s<p class=\"note\">One lane per worker domain; hover a bar for the (mix, scheme) cell and its timing.</p></section>"
      (Buffer.contents buf)
  end

let section_trajectory ~(runs : Ledger.run list) (current : Ledger.run) =
  (* Grid runs chart mean IPC; gauge-only records (the `exp replicates`
     summary) chart their first gauge, so their trends plot the same
     way result drift does. *)
  let metric_label, metric =
    if Array.length current.cells > 0 then
      ( "mean IPC",
        fun (r : Ledger.run) ->
          if Array.length r.cells = 0 then Float.nan else Ledger.mean_ipc r )
    else begin
      let key = match current.gauges with (k, _) :: _ -> k | [] -> "" in
      ( key,
        fun (r : Ledger.run) ->
          match List.assoc_opt key r.gauges with
          | Some v -> v
          | None -> Float.nan )
    end
  in
  if metric_label = "" then ""
  else begin
  let comparable =
    List.filter
      (fun (r : Ledger.run) ->
        r.fingerprint = current.fingerprint
        && not (Float.is_nan (metric r)))
      runs
  in
  match comparable with
  | [] | [ _ ] ->
    if Float.is_nan (metric current) then ""
    else
      pf
        "<section><h2>Cross-run trajectory</h2><p class=\"hero\">%s</p><p class=\"note\">%s this run — the trajectory chart appears once the ledger holds a second run with this configuration fingerprint.</p></section>"
        (fmt_num (metric current))
        (esc metric_label)
  | _ ->
    let pts = List.map (fun r -> (r, metric r)) comparable in
    let n = List.length pts in
    if n < 2 then ""
    else begin
      let vmax = nice_max (List.fold_left (fun a (_, v) -> Float.max a v) 0.0 pts) in
      let left = 46.0 and top = 10.0 and bottom = 30.0 and right = 16.0 in
      let plot_w = 812.0 and plot_h = 180.0 in
      let w = left +. plot_w +. right and h = top +. plot_h +. bottom in
      let px i = left +. (plot_w *. float_of_int i /. float_of_int (n - 1)) in
      let py v = top +. plot_h -. (plot_h *. v /. vmax) in
      let buf = Buffer.create 4096 in
      Buffer.add_string buf
        (pf "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" aria-label=\"%s across runs\">"
           w h (esc metric_label));
      y_axis buf ~left ~top ~plot_w ~plot_h ~vmax ~ticks:4;
      let path =
        String.concat " "
          (List.mapi
             (fun i (_, v) -> pf "%s%.1f %.1f" (if i = 0 then "M" else "L") (px i) (py v))
             pts)
      in
      Buffer.add_string buf
        (pf "<path d=\"%s\" fill=\"none\" stroke=\"var(--c0)\" stroke-width=\"2\"/>"
           path);
      let label_every = max 1 (n / 10) in
      List.iteri
        (fun i ((r : Ledger.run), v) ->
          let cur = r.id = current.id in
          Buffer.add_string buf
            (pf
               "<g><circle cx=\"%.1f\" cy=\"%.1f\" r=\"%s\" fill=\"var(--c0)\" stroke=\"var(--surface)\" stroke-width=\"2\"/><title>%s (%s, git %s): %s %.4f, wall %.2fs</title></g>"
               (px i) (py v)
               (if cur then "6" else "4")
               (esc r.id) (fmt_time r.time_s) (esc r.git_rev)
               (esc metric_label) v r.wall_s);
          if i mod label_every = 0 || cur then
            Buffer.add_string buf
              (pf "<text class=\"tick\" x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\">%s</text>"
                 (px i) (top +. plot_h +. 16.0) (esc r.id)))
        pts;
      Buffer.add_string buf "</svg>";
      pf
        "<section><h2>Cross-run trajectory</h2>%s<p class=\"note\">%s across the %d ledger runs sharing configuration fingerprint %s; the large marker is this run.</p></section>"
        (Buffer.contents buf) (esc metric_label) n (esc current.fingerprint)
    end
  end

(* --- document --------------------------------------------------------- *)

let style ~k =
  let light_vars, dark_vars = series_vars (max 1 k) in
  pf
    {|:root{color-scheme:light dark}
body{margin:0;padding:24px;background:var(--surface);color:var(--ink);
  font:14px/1.5 system-ui,sans-serif;
  --surface:#fcfcfb;--ink:#0b0b0b;--ink2:#52514e;--grid:#e7e6e2;--deg:#d03b3b;%s}
@media (prefers-color-scheme:dark){body{
  --surface:#1a1a19;--ink:#ffffff;--ink2:#c3c2b7;--grid:#33322f;--deg:#e66767;%s}}
main{max-width:900px;margin:0 auto}
h1{font-size:20px}h2{font-size:16px;margin:28px 0 8px}h3{font-size:13px;color:var(--ink2);margin:14px 0 4px}
section{margin-bottom:8px}
svg{display:block;width:100%%;height:auto}
svg text{font:11px system-ui,sans-serif;fill:var(--ink2)}
svg text.val{fill:var(--ink)}
.grid{stroke:var(--grid);stroke-width:1}
.axis{stroke:var(--ink2);stroke-width:1}
.deg,path.deg,rect.deg{fill:var(--deg)}
.degswatch{display:inline-block;width:10px;height:10px;border-radius:2px;background:var(--deg);margin-right:6px}
.legend{display:flex;flex-wrap:wrap;gap:4px 16px;margin:6px 0;color:var(--ink2)}
.legend i{display:inline-block;width:10px;height:10px;border-radius:2px;margin-right:6px}
.note{color:var(--ink2);font-size:12px}
.hero{font-size:40px;font-weight:600;margin:6px 0}
table{border-collapse:collapse;margin:6px 0}
th,td{text-align:left;padding:3px 12px 3px 0;border-bottom:1px solid var(--grid)}
td.num{text-align:right;font-variant-numeric:tabular-nums}
table.kv th{color:var(--ink2);font-weight:500;padding-right:20px}
table.data{font-variant-numeric:tabular-nums;font-size:13px}
table.stall{width:100%%;margin-bottom:16px}
td.sharecell{width:40%%}
.share{height:8px;border-radius:2px;background:var(--c0);min-width:1px}
details summary{cursor:pointer;color:var(--ink2);font-size:13px;margin:6px 0}|}
    light_vars dark_vars

let render ?(runs = []) (r : Ledger.run) =
  let k = max 1 (List.length r.scheme_names) in
  pf
    {|<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width,initial-scale=1">
<title>vliwsim run %s</title>
<style>%s</style></head>
<body><main>
<h1>vliwsim run report</h1>
%s%s%s%s%s%s%s%s%s%s
<p class="note">Generated by vliwsim; self-contained file (no scripts, no external resources).</p>
</main></body></html>
|}
    (esc r.id) (style ~k) (section_summary r) (section_ipc_grid r)
    (section_adaptive r) (section_service r) (section_dist r)
    (section_latency r) (section_waste r) (section_stalls r)
    (section_timeline r) (section_trajectory ~runs r)
