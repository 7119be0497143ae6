(** Typed simulator events.

    The taxonomy follows the paper's accounting of why issue slots were
    or weren't filled: fetch stalls and cache misses explain vertical
    waste, merge rejects explain horizontal waste, and the issue event
    records what the merge network achieved each cycle. [thread] fields
    are hardware-context indices (the lane identity in trace exports),
    not software-thread ids.

    The core builds an event only for a recording sink ({!Sink});
    counting goes through {!Counters.events} slots, whose names
    ({!Counters.event_name}) refine the kind by reject reason or cache
    level. *)

type reject_reason =
  | Conflict  (** Cluster (CSMT) or pinned-slot (fixed-slot SMT) collision. *)
  | Capacity  (** Combined operations exceed the cluster issue width (SMT). *)
  | Priority
      (** Ready but not selected by the issue policy (IMT/BMT round-robin). *)

type cache_level = L1i | L1d

type t =
  | Fetch_stall of { thread : int; penalty : int }
      (** ICache miss while fetching; the thread blocks for [penalty]. *)
  | Merge_reject of { thread : int; reason : reject_reason }
      (** The thread offered an instruction and was denied issue. *)
  | Issue of { threads : int list; threads_merged : int; slots_filled : int }
      (** A packet issued: which hardware threads, how many, how many
          operation slots it filled. *)
  | Cache_miss of { thread : int; level : cache_level }
  | Bmt_switch of { from_thread : int; to_thread : int }
      (** Blocked-multithreading context switch. *)
  | Scheme_switch of { from_scheme : string; to_scheme : string; penalty : int }
      (** Mid-run merge-network reconfiguration (adaptive controller);
          [penalty] is the issue-stall bubble charged, in cycles. *)

val reason_to_string : reject_reason -> string

val level_to_string : cache_level -> string

val args : t -> (string * string) list
(** Payload as ordered key/value strings (trace-export annotations). *)
