(* Named monotonic counters and fixed-bucket histograms.

   Handles ([counter]/[histogram]) are resolved once by name and then
   bumped without any lookup, so per-cycle instrumentation costs a few
   integer stores. The simulator's event counters go one step further:
   a fixed block of integer slots ([events]) that is named only when a
   snapshot is taken. Snapshots are immutable, name-sorted, and
   mergeable (sweep cells each snapshot their own registry; aggregation
   sums them), which is what lets per-cell telemetry ride through a
   multicore sweep without any cross-domain sharing. *)

type counter = { c_name : string; mutable value : int }

type histogram = {
  h_name : string;
  bounds : float array;  (* ascending bucket upper bounds *)
  counts : int array;  (* length = Array.length bounds + 1 (overflow) *)
  mutable total : int;
  stats : float array;
      (* [| sum; min; max |]: a float array stores its elements unboxed,
         so an observation allocates nothing (a mutable float field of a
         mixed record would box every store) *)
}

(* The simulator's event counters: one slot per (event kind, reason or
   level), indexed by the positions of [event_names], plus the two
   issue histograms. *)
type events = {
  slots : int array;
  slots_filled : histogram;
  threads_merged : histogram;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  mutable events : events option;
}

let create () =
  { counters = Hashtbl.create 32; histograms = Hashtbl.create 8; events = None }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; value = 0 } in
    Hashtbl.add t.counters name c;
    c

let add c by = c.value <- c.value + by

let incr c = add c 1

let value c = c.value

let histogram t name ~bounds =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let sorted = Array.copy bounds in
    Array.sort compare sorted;
    let h =
      {
        h_name = name;
        bounds = sorted;
        counts = Array.make (Array.length sorted + 1) 0;
        total = 0;
        stats = [| 0.0; infinity; neg_infinity |];
      }
    in
    Hashtbl.add t.histograms name h;
    h

(* Inlined into both observers: passing a float to a function that is
   not inlined boxes it. *)
let[@inline] record h b v =
  h.counts.(b) <- h.counts.(b) + 1;
  h.total <- h.total + 1;
  h.stats.(0) <- h.stats.(0) +. v;
  if v < h.stats.(1) then h.stats.(1) <- v;
  if v > h.stats.(2) then h.stats.(2) <- v

let rec bucket_of (bounds : float array) v i =
  if i >= Array.length bounds || v <= bounds.(i) then i
  else bucket_of bounds v (i + 1)

let observe h v = record h (bucket_of h.bounds v 0) v

(* The simulator core records an integer sample every issuing cycle;
   its bucket search takes the int, for the same reason. *)
let rec int_bucket_of (bounds : float array) i k =
  if k >= Array.length bounds || float_of_int i <= bounds.(k) then k
  else int_bucket_of bounds i (k + 1)

let observe_int h i = record h (int_bucket_of h.bounds i 0) (float_of_int i)

(* --- event slots ------------------------------------------------------ *)

(* The one table of event counter names; a slot is its index here. *)
let event_names =
  [|
    "events.fetch_stall";
    "events.merge_reject.conflict";
    "events.merge_reject.capacity";
    "events.merge_reject.priority";
    "events.issue";
    "events.cache_miss.l1i";
    "events.cache_miss.l1d";
    "events.bmt_switch";
    "events.scheme_switch";
  |]

(* Slot of each event kind; the bump functions below use the same
   indices. *)
let reject_slot = function
  | Event.Conflict -> 1
  | Event.Capacity -> 2
  | Event.Priority -> 3

let miss_slot = function Event.L1i -> 5 | Event.L1d -> 6

let event_name = function
  | Event.Fetch_stall _ -> event_names.(0)
  | Event.Merge_reject { reason; _ } -> event_names.(reject_slot reason)
  | Event.Issue _ -> event_names.(4)
  | Event.Cache_miss { level; _ } -> event_names.(miss_slot level)
  | Event.Bmt_switch _ -> event_names.(7)
  | Event.Scheme_switch _ -> event_names.(8)

let issue_width_bounds = [| 1.0; 2.0; 4.0; 6.0; 8.0; 12.0; 16.0 |]

let threads_merged_bounds = [| 1.0; 2.0; 3.0; 4.0; 6.0; 8.0 |]

let events t =
  match t.events with
  | Some e -> e
  | None ->
    let e =
      {
        slots = Array.make (Array.length event_names) 0;
        slots_filled =
          histogram t "issue.slots_filled" ~bounds:issue_width_bounds;
        threads_merged =
          histogram t "issue.threads_merged" ~bounds:threads_merged_bounds;
      }
    in
    t.events <- Some e;
    e

let bump e slot n = e.slots.(slot) <- e.slots.(slot) + n

let fetch_stall e = bump e 0 1

let merge_rejects e reason n = bump e (reject_slot reason) n

let issue e ~threads_merged ~slots_filled =
  bump e 4 1;
  observe_int e.slots_filled slots_filled;
  observe_int e.threads_merged threads_merged

let cache_miss e level = bump e (miss_slot level) 1

let bmt_switch e = bump e 7 1

let scheme_switch e = bump e 8 1

(* --- snapshots ------------------------------------------------------- *)

type hist_snapshot = {
  bounds : float array;
  counts : int array;
  total : int;
  sum : float;
  vmin : float;
  vmax : float;
}

type snapshot = {
  counters : (string * int) list;  (* name-sorted *)
  histograms : (string * hist_snapshot) list;  (* name-sorted *)
}

(* Merge two name-sorted assoc lists, combining values on equal keys. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
    if ka = kb then (ka, combine ka va vb) :: merge_assoc combine ta tb
    else if ka < kb then (ka, va) :: merge_assoc combine ta b
    else (kb, vb) :: merge_assoc combine a tb

(* A slot is named only once bumped, so a snapshot lists exactly the
   event counters a by-name registry would have created. *)
let event_counters t =
  match t.events with
  | None -> []
  | Some e ->
    Array.to_list (Array.mapi (fun i v -> (event_names.(i), v)) e.slots)
    |> List.filter (fun (_, v) -> v > 0)
    |> List.sort compare

let snapshot (t : t) =
  let counters =
    Hashtbl.fold (fun name c acc -> (name, c.value) :: acc) t.counters []
    |> List.sort compare
    |> merge_assoc (fun _ x y -> x + y) (event_counters t)
  in
  let histograms =
    Hashtbl.fold
      (fun name (h : histogram) acc ->
        ( name,
          {
            bounds = Array.copy h.bounds;
            counts = Array.copy h.counts;
            total = h.total;
            sum = h.stats.(0);
            vmin = h.stats.(1);
            vmax = h.stats.(2);
          } )
        :: acc)
      t.histograms []
    |> List.sort compare
  in
  { counters; histograms }

let empty = { counters = []; histograms = [] }

let count s name =
  match List.assoc_opt name s.counters with Some v -> v | None -> 0

let merge_hist name (a : hist_snapshot) (b : hist_snapshot) =
  if a.bounds <> b.bounds then
    invalid_arg ("Counters.merge: bucket bounds differ for histogram " ^ name);
  {
    bounds = a.bounds;
    counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
    total = a.total + b.total;
    sum = a.sum +. b.sum;
    vmin = min a.vmin b.vmin;
    vmax = max a.vmax b.vmax;
  }

let merge a b =
  {
    counters = merge_assoc (fun _ x y -> x + y) a.counters b.counters;
    histograms = merge_assoc merge_hist a.histograms b.histograms;
  }

let hist_mean (h : hist_snapshot) =
  if h.total = 0 then 0.0 else h.sum /. float_of_int h.total

(* Bucket-interpolated quantile: find the bucket the rank falls in and
   interpolate linearly inside it — the bucketed analogue of
   [Vliw_util.Stats.percentile]'s rule (which tests cross-check this
   against on degenerate single-value buckets). *)
let quantile (h : hist_snapshot) p =
  if h.total = 0 then 0.0
  else begin
    let target = p /. 100.0 *. float_of_int h.total in
    let n_buckets = Array.length h.counts in
    let rec go i cum =
      if i >= n_buckets then h.vmax
      else begin
        let cum' = cum +. float_of_int h.counts.(i) in
        if cum' >= target && h.counts.(i) > 0 then begin
          let lo = if i = 0 then min h.vmin h.bounds.(0) else h.bounds.(i - 1) in
          let hi = if i < Array.length h.bounds then h.bounds.(i) else h.vmax in
          let frac = (target -. cum) /. float_of_int h.counts.(i) in
          lo +. (frac *. (hi -. lo))
        end
        else go (i + 1) cum'
      end
    in
    let v = go 0 0.0 in
    Float.min h.vmax (Float.max h.vmin v)
  end

(* --- rendering ------------------------------------------------------- *)

let flat s =
  List.map (fun (name, v) -> (name, string_of_int v)) s.counters
  @ List.concat_map
      (fun (name, h) ->
        [
          (name ^ ".count", string_of_int h.total);
          (name ^ ".mean", Printf.sprintf "%.4f" (hist_mean h));
          (name ^ ".p50", Printf.sprintf "%.4f" (quantile h 50.0));
          (name ^ ".p95", Printf.sprintf "%.4f" (quantile h 95.0));
          (name ^ ".p99", Printf.sprintf "%.4f" (quantile h 99.0));
        ])
      s.histograms

let to_csv s =
  ([ "counter"; "value" ], List.map (fun (k, v) -> [ k; v ]) (flat s))
