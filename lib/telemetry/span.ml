(* Cross-process tracing spans.

   Ids come from a SplitMix64 stream owned by the collector — never
   from [Random] or the clock — and wall timestamps come from an
   injectable clock function, so span trees are deterministic under
   test. Spans cross the wire as NDJSON objects whose float fields are
   IEEE-754 bit images (the repo-wide exactness convention): a worker's
   child spans survive the coordinator merge bit-identical. *)

module J = Vliw_util.Json
module Stats = Vliw_util.Stats
module Rng = Vliw_util.Rng

type kind =
  | Submit
  | Queue_wait
  | Schedule
  | Dispatch
  | Shard
  | Prepare_row
  | Simulate_cell
  | Retry
  | Ledger_append

let all_kinds =
  [
    Submit;
    Queue_wait;
    Schedule;
    Dispatch;
    Shard;
    Prepare_row;
    Simulate_cell;
    Retry;
    Ledger_append;
  ]

let kind_name = function
  | Submit -> "submit"
  | Queue_wait -> "queue_wait"
  | Schedule -> "schedule"
  | Dispatch -> "dispatch"
  | Shard -> "shard"
  | Prepare_row -> "prepare_row"
  | Simulate_cell -> "simulate_cell"
  | Retry -> "retry"
  | Ledger_append -> "ledger_append"

let kind_of_name s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

type t = {
  trace : int64;
  id : int64;
  parent : int64 option;
  kind : kind;
  name : string;
  lane : string;
  start_s : float;
  dur_s : float;
}

let id_to_hex id = Printf.sprintf "0x%Lx" id

let id_of_hex s =
  match Int64.of_string_opt s with
  | Some id -> Ok id
  | None -> Error (Printf.sprintf "span: bad id %S" s)

(* {1 Collector} *)

type collector = {
  mutable recorded : t list;  (* reverse insertion order *)
  ids : Rng.t;
  clock : unit -> float;
  mutex : Mutex.t;
}

let collector ?(clock = Unix.gettimeofday) ~seed () =
  { recorded = []; ids = Rng.create seed; clock; mutex = Mutex.create () }

let now c = c.clock ()

let locked c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

let fresh_id c = locked c (fun () -> Rng.next_int64 c.ids)

let add c span = locked c (fun () -> c.recorded <- span :: c.recorded)

let record c ~trace ?parent ~kind ~name ~lane ~start_s ~dur_s () =
  let span =
    {
      trace;
      id = fresh_id c;
      parent;
      kind;
      name;
      lane;
      start_s;
      dur_s;
    }
  in
  add c span;
  span

let spans c = locked c (fun () -> List.rev c.recorded)

(* {1 Wire codec} *)

let bits_to_hex f = Printf.sprintf "0x%Lx" (Int64.bits_of_float f)

let to_json s =
  let base =
    [
      ("trace", J.Str (id_to_hex s.trace));
      ("span", J.Str (id_to_hex s.id));
    ]
  in
  let parent =
    match s.parent with
    | None -> []
    | Some p -> [ ("parent", J.Str (id_to_hex p)) ]
  in
  J.Obj
    (base @ parent
    @ [
        ("kind", J.Str (kind_name s.kind));
        ("name", J.Str s.name);
        ("lane", J.Str s.lane);
        ("t0", J.Str (bits_to_hex s.start_s));
        ("dur", J.Str (bits_to_hex s.dur_s));
      ])

let ( let* ) = Result.bind

let field_id j key =
  match J.member key j with
  | Some (J.Str s) -> Result.map Option.some (id_of_hex s)
  | Some _ -> Error (Printf.sprintf "span: %s must be a hex string" key)
  | None -> Ok None

let require key = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "span: missing %s" key)

let field_bits j key =
  let* id = field_id j key in
  let* id = require key id in
  Ok (Int64.float_of_bits id)

let field_str j key =
  match J.member key j with
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "span: %s must be a string" key)
  | None -> Error (Printf.sprintf "span: missing %s" key)

let of_json j =
  let* trace = field_id j "trace" in
  let* trace = require "trace" trace in
  let* id = field_id j "span" in
  let* id = require "span" id in
  let* parent = field_id j "parent" in
  let* kind_s = field_str j "kind" in
  let* kind =
    match kind_of_name kind_s with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "span: unknown kind %S" kind_s)
  in
  let* name = field_str j "name" in
  let* lane = field_str j "lane" in
  let* start_s = field_bits j "t0" in
  let* dur_s = field_bits j "dur" in
  Ok { trace; id; parent; kind; name; lane; start_s; dur_s }

let list_to_json spans = J.List (List.map to_json spans)

let list_of_json j =
  match j with
  | J.List items ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* s = of_json item in
        Ok (s :: acc))
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error "span: spans must be a list"

(* {1 Analysis} *)

let durations_by_kind spans =
  List.filter_map
    (fun kind ->
      match List.filter (fun s -> s.kind = kind) spans with
      | [] -> None
      | matching ->
        Some (kind, Array.of_list (List.map (fun s -> s.dur_s) matching)))
    all_kinds

let latency_gauges spans =
  List.concat_map
    (fun (kind, durs) ->
      let prefix = "span." ^ kind_name kind in
      [
        (prefix ^ ".count", float_of_int (Array.length durs));
        (prefix ^ ".p50", Stats.p50 durs);
        (prefix ^ ".p95", Stats.p95 durs);
        (prefix ^ ".p99", Stats.p99 durs);
      ])
    (durations_by_kind spans)

(* Latency bounds in seconds: sub-millisecond scheduling up through
   multi-minute sweeps, roughly geometric. *)
let hist_bounds =
  [| 1e-4; 1e-3; 5e-3; 0.025; 0.1; 0.5; 2.0; 10.0; 60.0; 300.0 |]

let observe_histograms registry spans =
  List.iter
    (fun (kind, durs) ->
      let h =
        Counters.histogram registry
          ("span." ^ kind_name kind ^ ".seconds")
          ~bounds:hist_bounds
      in
      Array.iter (Counters.observe h) durs)
    (durations_by_kind spans)

let validate ?(slack_s = 0.01) spans =
  let tbl = Hashtbl.create (List.length spans * 2) in
  List.iter (fun s -> Hashtbl.replace tbl (s.trace, s.id) s) spans;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun s ->
      if not (Float.is_finite s.start_s) then
        problem "span %s: non-finite start" (id_to_hex s.id);
      if not (s.dur_s >= 0.0) then
        problem "span %s: negative duration %g" (id_to_hex s.id) s.dur_s;
      match s.parent with
      | None -> ()
      | Some p -> (
        match Hashtbl.find_opt tbl (s.trace, p) with
        | None ->
          problem "span %s: parent %s not in trace %s" (id_to_hex s.id)
            (id_to_hex p) (id_to_hex s.trace)
        | Some parent ->
          if
            s.start_s < parent.start_s -. slack_s
            || s.start_s +. s.dur_s
               > parent.start_s +. parent.dur_s +. slack_s
          then
            problem "span %s (%s) escapes parent %s (%s)" (id_to_hex s.id)
              (kind_name s.kind) (id_to_hex p) (kind_name parent.kind)))
    spans;
  List.rev !problems

(* {1 Chrome export} *)

let to_chrome ?(process_name = "vliwsim fleet") spans =
  match spans with
  | [] -> Chrome_trace.of_spans ~process_name ~lane_names:[] []
  | _ ->
    let lanes = Hashtbl.create 8 in
    let lane_names = ref [] in
    let lane_of s =
      match Hashtbl.find_opt lanes s.lane with
      | Some i -> i
      | None ->
        let i = Hashtbl.length lanes in
        Hashtbl.add lanes s.lane i;
        lane_names := (i, s.lane) :: !lane_names;
        i
    in
    let t_min =
      List.fold_left (fun acc s -> min acc s.start_s) infinity spans
    in
    let chrome_spans =
      List.map
        (fun s ->
          let args =
            [
              ("trace", id_to_hex s.trace);
              ("span", id_to_hex s.id);
              ("kind", kind_name s.kind);
            ]
            @
            match s.parent with
            | None -> []
            | Some p -> [ ("parent", id_to_hex p) ]
          in
          {
            Chrome_trace.lane = lane_of s;
            name =
              (if s.name = "" then kind_name s.kind
               else kind_name s.kind ^ " " ^ s.name);
            start_us = (s.start_s -. t_min) *. 1e6;
            dur_us = s.dur_s *. 1e6;
            args;
          })
        spans
    in
    Chrome_trace.of_spans ~process_name ~lane_names:(List.rev !lane_names)
      chrome_spans
