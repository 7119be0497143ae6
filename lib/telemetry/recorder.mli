(** Pre-allocated ring buffer of timestamped events.

    The buffer is allocated once at creation; recording never allocates
    beyond the entry record itself. When full, the oldest entry is
    overwritten and {!dropped} counts the loss, so long runs keep the
    most recent window — the part a trace viewer wants. *)

type entry = { cycle : int; event : Event.t }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 entries. *)

val length : t -> int
(** Live entries currently held. *)

val dropped : t -> int
(** Entries overwritten because the buffer was full. *)

val record : t -> cycle:int -> Event.t -> unit

val iter : t -> (entry -> unit) -> unit
(** Oldest to newest. *)

val to_list : t -> entry list
(** Oldest first. *)

val sink : t -> Sink.t
