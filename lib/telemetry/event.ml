type reject_reason = Conflict | Capacity | Priority

type cache_level = L1i | L1d

type t =
  | Fetch_stall of { thread : int; penalty : int }
  | Merge_reject of { thread : int; reason : reject_reason }
  | Issue of { threads : int list; threads_merged : int; slots_filled : int }
  | Cache_miss of { thread : int; level : cache_level }
  | Bmt_switch of { from_thread : int; to_thread : int }
  | Scheme_switch of { from_scheme : string; to_scheme : string; penalty : int }

let reason_to_string = function
  | Conflict -> "conflict"
  | Capacity -> "capacity"
  | Priority -> "priority"

let level_to_string = function L1i -> "l1i" | L1d -> "l1d"

let args = function
  | Fetch_stall { thread; penalty } ->
    [ ("thread", string_of_int thread); ("penalty", string_of_int penalty) ]
  | Merge_reject { thread; reason } ->
    [ ("thread", string_of_int thread); ("reason", reason_to_string reason) ]
  | Issue { threads; threads_merged; slots_filled } ->
    [
      ("threads", String.concat "+" (List.map string_of_int threads));
      ("threads_merged", string_of_int threads_merged);
      ("slots_filled", string_of_int slots_filled);
    ]
  | Cache_miss { thread; level } ->
    [ ("thread", string_of_int thread); ("level", level_to_string level) ]
  | Bmt_switch { from_thread; to_thread } ->
    [
      ("from", string_of_int from_thread); ("to", string_of_int to_thread);
    ]
  | Scheme_switch { from_scheme; to_scheme; penalty } ->
    [
      ("from", from_scheme);
      ("to", to_scheme);
      ("penalty", string_of_int penalty);
    ]
