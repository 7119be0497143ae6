type kind = Static | Table of int array  (* 2-bit saturating counters *)

type t = {
  kind : kind;
  mutable queries : int;
  mutable correct : int;
}

let create = function
  | Vliw_isa.Machine.No_predictor -> { kind = Static; queries = 0; correct = 0 }
  | Vliw_isa.Machine.Bimodal entries ->
    if entries <= 0 || entries land (entries - 1) <> 0 then
      invalid_arg "Predictor.create: entries must be a positive power of two";
    (* Counters start weakly not-taken, matching the static machine. *)
    { kind = Table (Array.make entries 1); queries = 0; correct = 0 }

let predict_and_update t ~addr ~taken =
  t.queries <- t.queries + 1;
  let prediction =
    match t.kind with
    | Static -> false
    | Table counters ->
      (* Instructions are 64 bytes apart; drop the offset bits. *)
      let idx = (addr lsr 6) land (Array.length counters - 1) in
      let c = counters.(idx) in
      (* Int comparisons: the polymorphic [min]/[max] are runtime calls. *)
      counters.(idx) <-
        (if taken then (if c < 3 then c + 1 else 3)
         else if c > 0 then c - 1
         else 0);
      c >= 2
  in
  let correct = prediction = taken in
  if correct then t.correct <- t.correct + 1;
  correct

let accuracy t =
  if t.queries = 0 then 1.0 else float_of_int t.correct /. float_of_int t.queries
