type signature = {
  sg_mask : int;
  sg_counts : int array;
  sg_pins : int array;
  sg_ops : int;
  sg_mem : int;
  sg_branch : bool;
}

type t = {
  ops : Op.t list array;
  addr : int;
  mutable sg : (Machine.t * signature) option;
}

let make ~clusters ~addr = { ops = Array.make clusters []; addr; sg = None }

let of_cluster_ops ~addr ops = { ops; addr; sg = None }

let cluster_mask t =
  let mask = ref 0 in
  Array.iteri (fun c ops -> if ops <> [] then mask := !mask lor (1 lsl c)) t.ops;
  !mask

let op_count t =
  match t.sg with
  | Some (_, sg) -> sg.sg_ops
  | None -> Array.fold_left (fun acc ops -> acc + List.length ops) 0 t.ops

let is_empty t = Array.for_all (fun ops -> ops = []) t.ops

let has_branch t =
  Array.exists (List.exists (fun (op : Op.t) -> op.klass = Op.Branch)) t.ops

let mem_ops t =
  Array.fold_left
    (fun acc ops -> acc @ List.filter Op.is_mem ops)
    [] t.ops

let class_counts ops ~mem ~mul ~branch ~alu =
  let count (op : Op.t) =
    match op.klass with
    | Op.Load | Op.Store -> incr mem
    | Op.Mul -> incr mul
    | Op.Branch -> incr branch
    | Op.Alu | Op.Copy -> incr alu
  in
  List.iter count ops

let fits_cluster (m : Machine.t) ops =
  let mem = ref 0 and mul = ref 0 and branch = ref 0 and alu = ref 0 in
  class_counts ops ~mem ~mul ~branch ~alu;
  !mem <= m.n_lsu && !mul <= m.n_mul && !branch <= m.n_branch
  && !mem + !mul + !branch + !alu <= m.issue_width

(* --- signatures: the merge engine's precomputed view -----------------

   A signature condenses everything the per-cycle conflict checks need
   into integers: the cluster-occupancy mask, one packed per-cluster
   class-count word, and the fixed-slot pinned mask from a single greedy
   layout pass. Conflict checks then reduce to bitmask tests and packed
   additions, with no list traversal and no re-routing. *)

(* Packed class counts: mem | mul<<15 | branch<<30 | total<<45. Fifteen
   bits per field keeps sums of any realistic number of merged packets
   far from overflow in a 63-bit int, and lets two packed words be
   combined with plain [+]. *)
let count_shift_mul = 15
let count_shift_branch = 30
let count_shift_total = 45
let count_field = 0x7FFF

let pack_counts ops =
  let mem = ref 0 and mul = ref 0 and branch = ref 0 and alu = ref 0 in
  class_counts ops ~mem ~mul ~branch ~alu;
  !mem
  lor (!mul lsl count_shift_mul)
  lor (!branch lsl count_shift_branch)
  lor ((!mem + !mul + !branch + !alu) lsl count_shift_total)

let packed_fits (m : Machine.t) packed =
  packed land count_field <= m.n_lsu
  && (packed lsr count_shift_mul) land count_field <= m.n_mul
  && (packed lsr count_shift_branch) land count_field <= m.n_branch
  && packed lsr count_shift_total <= m.issue_width

(* Guard-bit form of [packed_fits]: the bias lifts every field by
   0x3FFF minus its limit, so a field over its limit sets its bit 14
   and the word fits iff no guard bit is set. Exact while every field
   and limit is below 2^14: a biased field stays below 2^15 and never
   carries into its neighbour. *)
let fits_guard =
  List.fold_left
    (fun acc shift -> acc lor (0x4000 lsl shift))
    0
    [ 0; count_shift_mul; count_shift_branch; count_shift_total ]

let fits_bias (m : Machine.t) =
  List.fold_left
    (fun acc (limit, shift) -> acc lor ((0x3FFF - limit) lsl shift))
    0
    [
      (m.n_lsu, 0);
      (m.n_mul, count_shift_mul);
      (m.n_branch, count_shift_branch);
      (m.issue_width, count_shift_total);
    ]

(* Same greedy discipline as the routing block applied to one thread's
   operations in isolation: fixed-slot classes claim their dedicated
   slots in list order, ALU/copy operations fill any free slot. Returns
   the bitmask of claimed slots, or -1 when the operations cannot be
   placed at all. *)
let pinned_mask (m : Machine.t) ops =
  let used = ref 0 in
  let claim pred =
    let rec find s =
      if s >= m.issue_width then false
      else if !used land (1 lsl s) = 0 && pred s then begin
        used := !used lor (1 lsl s);
        true
      end
      else find (s + 1)
    in
    find 0
  in
  let flexible (op : Op.t) =
    match op.klass with Op.Alu | Op.Copy -> true | _ -> false
  in
  let fixed, alus = List.partition (fun op -> not (flexible op)) ops in
  let ok_fixed =
    List.for_all
      (fun (op : Op.t) -> claim (fun s -> Machine.slot_allows m ~slot:s op.klass))
      fixed
  in
  let ok_alu = List.for_all (fun _ -> claim (fun _ -> true)) alus in
  if ok_fixed && ok_alu then !used else -1

let compute_signature (m : Machine.t) t =
  let n = Array.length t.ops in
  let counts = Array.make n 0 in
  let pins = Array.make n 0 in
  let mask = ref 0 in
  let total = ref 0 and mem = ref 0 and branch = ref false in
  for c = 0 to n - 1 do
    let ops = t.ops.(c) in
    if ops <> [] then begin
      let packed = pack_counts ops in
      mask := !mask lor (1 lsl c);
      counts.(c) <- packed;
      pins.(c) <- pinned_mask m ops;
      total := !total + List.length ops;
      mem := !mem + (packed land count_field);
      if (packed lsr count_shift_branch) land count_field <> 0 then
        branch := true
    end
  done;
  {
    sg_mask = !mask;
    sg_counts = counts;
    sg_pins = pins;
    sg_ops = !total;
    sg_mem = !mem;
    sg_branch = !branch;
  }

(* Memoized per instruction. The compiler precomputes signatures in the
   parent domain (Program.generate), so worker domains of a sweep only
   ever read the cache. A machine mismatch (tests reusing an instruction
   across machines) recomputes and recaches. *)
let signature (m : Machine.t) t =
  match t.sg with
  | Some (m', sg) when m' == m -> sg
  | Some (m', sg) when m' = m -> sg
  | _ ->
    let sg = compute_signature m t in
    t.sg <- Some (m, sg);
    sg

let well_formed (m : Machine.t) t =
  Array.length t.ops = m.clusters && Array.for_all (fits_cluster m) t.ops

(* Greedy slot assignment for display: fixed-slot classes claim their
   dedicated slots, ALU operations fill whatever is left. *)
let slot_layout (m : Machine.t) ops =
  let slots = Array.make m.issue_width None in
  let place pred op =
    let rec find s =
      if s >= m.issue_width then None
      else if slots.(s) = None && pred s then Some s
      else find (s + 1)
    in
    match find 0 with
    | Some s -> slots.(s) <- Some op
    | None -> ()
  in
  let flexible (op : Op.t) =
    match op.klass with Op.Alu | Op.Copy -> true | _ -> false
  in
  let fixed, alus = List.partition (fun op -> not (flexible op)) ops in
  List.iter
    (fun (op : Op.t) -> place (fun s -> Machine.slot_allows m ~slot:s op.klass) op)
    fixed;
  List.iter (fun op -> place (fun _ -> true) op) alus;
  slots

let pp m ppf t =
  Array.iteri
    (fun c ops ->
      if c > 0 then Format.fprintf ppf " |";
      let slots = slot_layout m ops in
      Array.iter
        (fun slot ->
          match slot with
          | None -> Format.fprintf ppf " %4s" "-"
          | Some (op : Op.t) -> Format.fprintf ppf " %4s" (Op.class_name op.klass))
        slots)
    t.ops
