type reject = { thread : int; cause : Conflict.failure }

type selection = {
  packet : Packet.t option;
  issued : int list;
  rejected : reject list;
}

(* The oracle's tree walk: each child subtree is evaluated and
   immediately merged into the accumulator (equivalent to evaluating all
   children first: sibling evaluations are independent). A rejected
   packet is denied whole: every thread it carries was refused issue at
   that merge block, under the check's failure cause. *)
let rec eval m ~routing ~rotation ~n ~rejects avail = function
  | Scheme.Thread i -> avail.((i + rotation) mod n)
  | Scheme.Merge { kind; impl = _; inputs } ->
    List.fold_left
      (fun acc input ->
        match eval m ~routing ~rotation ~n ~rejects avail input with
        | None -> acc
        | Some (p : Packet.t) as r ->
          (match acc with
          | None -> r
          | Some accp ->
            (match Conflict.Reference.check m ~routing kind accp p with
            | None -> Some (Packet.union accp p)
            | Some cause ->
              for thread = 0 to n - 1 do
                if p.threads land (1 lsl thread) <> 0 then
                  rejects := { thread; cause } :: !rejects
              done;
              acc)))
      None inputs

let select_reference m ?(routing = Conflict.Flexible) scheme ?(rotation = 0)
    avail =
  let n = Scheme.n_threads scheme in
  assert (Array.length avail >= n);
  let rotation = ((rotation mod n) + n) mod n in
  let rejects = ref [] in
  match eval m ~routing ~rotation ~n ~rejects avail scheme with
  | None -> { packet = None; issued = []; rejected = [] }
  | Some p ->
    {
      packet = Some p;
      issued = Packet.thread_list p;
      rejected = List.sort (fun a b -> compare a.thread b.thread) !rejects;
    }

(* --- batched bit-parallel kernel --------------------------------------

   A compiled evaluator for one (machine, routing, scheme): the cycle's
   candidates are packed into flat int lanes (one word-level signature
   lane per cluster), and the scheme tree is evaluated with word-parallel
   bitwise/integer ops over those lanes. No per-thread closures, no
   per-node option allocation, no list construction: the traversal is
   top-level recursion over the immutable scheme tree, intermediate
   packets live in depth-indexed accumulator registers, and the outcome
   is three thread bitmasks plus the union-order buffer. [eval] therefore
   allocates nothing — the simulator's steady-state loop can run it every
   cycle and stay off the minor heap.

   The conflict decisions are the signature arithmetic of
   {!Conflict.csmt_compatible}, {!Conflict.smt_compatible} and
   {!Conflict.smt_compatible_fixed}, applied to the register lanes
   instead of packets; the traversal mirrors the oracle's [eval] (same
   accumulate-then-check fold, same reject bookkeeping), so
   [select_batched] agrees bit-for-bit with [select_reference] —
   property-tested. *)

module Batch = struct
  type t = {
    machine : Vliw_isa.Machine.t;
    routing : Conflict.routing_mode;
    scheme : Scheme.t;
    n : int;
    clusters : int;
    (* Lane maintenance is gated by what the scheme's checks read: a
       pure-CSMT scheme never looks past the cluster masks, flexible SMT
       reads packed counts, fixed-slot SMT reads pinned masks. *)
    need_counts : bool;
    need_pins : bool;
    (* Port lanes, indexed by hardware thread; [i * clusters + c] in the
       flattened per-cluster arrays. *)
    mutable live : int;  (* bitmask of ports holding a candidate *)
    p_threads : int array;
    p_mask : int array;
    p_counts : int array;
    p_pins : int array;
    (* Accumulator registers, one per tree depth: the merge node at
       depth [d] accumulates in register [d] while its children
       evaluate into register [d+1]. *)
    r_threads : int array;
    r_mask : int array;
    r_counts : int array;
    r_pins : int array;
    order : int array;  (* accepted leaves in union order *)
    mutable order_len : int;
    mutable out_issued : int;  (* outcome thread bitmasks *)
    mutable out_conflict : int;
    mutable out_capacity : int;
  }

  let create (machine : Vliw_isa.Machine.t) ~routing scheme =
    let n = Scheme.n_threads scheme in
    let clusters = machine.Vliw_isa.Machine.clusters in
    let smt_blocks = Scheme.block_count Scheme_kind.Smt scheme in
    let depths = Scheme.levels scheme + 1 in
    {
      machine;
      routing;
      scheme;
      n;
      clusters;
      need_counts = smt_blocks > 0 && routing = Conflict.Flexible;
      need_pins = smt_blocks > 0 && routing = Conflict.Fixed_slots;
      live = 0;
      p_threads = Array.make n 0;
      p_mask = Array.make n 0;
      p_counts = Array.make (n * clusters) 0;
      p_pins = Array.make (n * clusters) 0;
      r_threads = Array.make depths 0;
      r_mask = Array.make depths 0;
      r_counts = Array.make (depths * clusters) 0;
      r_pins = Array.make (depths * clusters) 0;
      order = Array.make n 0;
      order_len = 0;
      out_issued = 0;
      out_conflict = 0;
      out_capacity = 0;
    }

  let scheme t = t.scheme

  let clear t = t.live <- 0

  let set_port t i (sg : Vliw_isa.Instr.signature) =
    t.live <- t.live lor (1 lsl i);
    t.p_threads.(i) <- 1 lsl i;
    t.p_mask.(i) <- sg.sg_mask;
    if t.need_counts then
      Array.blit sg.sg_counts 0 t.p_counts (i * t.clusters) t.clusters;
    if t.need_pins then
      Array.blit sg.sg_pins 0 t.p_pins (i * t.clusters) t.clusters

  let set_port_packet t i (p : Packet.t) =
    t.live <- t.live lor (1 lsl i);
    t.p_threads.(i) <- p.threads;
    t.p_mask.(i) <- p.mask;
    if t.need_counts then
      Array.blit p.counts 0 t.p_counts (i * t.clusters) t.clusters;
    if t.need_pins then
      Array.blit p.pins 0 t.p_pins (i * t.clusters) t.clusters

  (* Conflict decisions as integer codes (0 compatible, 1 cluster
     conflict, 2 slot capacity) between registers [d] and [s] — the same
     arithmetic as the {!Conflict} checks, minus the option allocation. *)
  let rec flexible_fits t a b c =
    c >= t.clusters
    || (Vliw_isa.Instr.packed_fits t.machine
          (t.r_counts.(a + c) + t.r_counts.(b + c))
       && flexible_fits t a b (c + 1))

  let rec fixed_code t a b shared c =
    if c >= t.clusters then 0
    else if shared land (1 lsl c) = 0 then fixed_code t a b shared (c + 1)
    else begin
      let pa = t.r_pins.(a + c) and pb = t.r_pins.(b + c) in
      if pa <> -1 && pb <> -1 then
        if pa land pb = 0 then fixed_code t a b shared (c + 1) else 1
      else 2
    end

  let check_code t kind d s =
    match ((kind : Scheme_kind.t), t.routing) with
    | Scheme_kind.Csmt, _ -> if t.r_mask.(d) land t.r_mask.(s) = 0 then 0 else 1
    | Smt, Conflict.Flexible ->
      if flexible_fits t (d * t.clusters) (s * t.clusters) 0 then 0 else 2
    | Smt, Conflict.Fixed_slots ->
      fixed_code t (d * t.clusters) (s * t.clusters)
        (t.r_mask.(d) land t.r_mask.(s))
        0

  let load_port t d i =
    t.r_threads.(d) <- t.p_threads.(i);
    t.r_mask.(d) <- t.p_mask.(i);
    if t.need_counts then
      Array.blit t.p_counts (i * t.clusters) t.r_counts (d * t.clusters)
        t.clusters;
    if t.need_pins then
      Array.blit t.p_pins (i * t.clusters) t.r_pins (d * t.clusters) t.clusters

  let copy_reg t d s =
    t.r_threads.(d) <- t.r_threads.(s);
    t.r_mask.(d) <- t.r_mask.(s);
    if t.need_counts then
      Array.blit t.r_counts (s * t.clusters) t.r_counts (d * t.clusters)
        t.clusters;
    if t.need_pins then
      Array.blit t.r_pins (s * t.clusters) t.r_pins (d * t.clusters) t.clusters

  let union_into t d s =
    t.r_threads.(d) <- t.r_threads.(d) lor t.r_threads.(s);
    t.r_mask.(d) <- t.r_mask.(d) lor t.r_mask.(s);
    if t.need_counts then begin
      let a = d * t.clusters and b = s * t.clusters in
      for c = 0 to t.clusters - 1 do
        t.r_counts.(a + c) <- t.r_counts.(a + c) + t.r_counts.(b + c)
      done
    end;
    if t.need_pins then begin
      let a = d * t.clusters and b = s * t.clusters in
      for c = 0 to t.clusters - 1 do
        let pa = t.r_pins.(a + c) and pb = t.r_pins.(b + c) in
        t.r_pins.(a + c) <- (if pa = -1 || pb = -1 then -1 else pa lor pb)
      done
    end

  (* The oracle's tree fold on register lanes: the node evaluates into
     register [d] and reports whether it produced a value. An accepted
     leaf appends its port to [order]; a rejected subtree truncates back
     to the mark taken before it ran (its leaves are contiguous at the
     tail) and books its threads under the failure cause. [order] thus
     ends as the in-order traversal of accepted leaves: the union order,
     from which the merged packet can be rebuilt bit-identically. *)
  let rec eval_node t d rotation node =
    match (node : Scheme.t) with
    | Scheme.Thread i ->
      let hw = (i + rotation) mod t.n in
      if t.live land (1 lsl hw) = 0 then false
      else begin
        load_port t d hw;
        t.order.(t.order_len) <- hw;
        t.order_len <- t.order_len + 1;
        true
      end
    | Scheme.Merge { kind; impl = _; inputs } ->
      eval_inputs t d rotation kind false inputs

  and eval_inputs t d rotation kind has_acc = function
    | [] -> has_acc
    | input :: rest ->
      let mark = t.order_len in
      let has_acc =
        if not (eval_node t (d + 1) rotation input) then has_acc
        else if not has_acc then begin
          copy_reg t d (d + 1);
          true
        end
        else begin
          (match check_code t kind d (d + 1) with
          | 0 -> union_into t d (d + 1)
          | code ->
            t.order_len <- mark;
            if code = 1 then
              t.out_conflict <- t.out_conflict lor t.r_threads.(d + 1)
            else t.out_capacity <- t.out_capacity lor t.r_threads.(d + 1));
          true
        end
      in
      eval_inputs t d rotation kind has_acc rest

  let eval t ~rotation =
    let rotation = ((rotation mod t.n) + t.n) mod t.n in
    t.order_len <- 0;
    t.out_conflict <- 0;
    t.out_capacity <- 0;
    t.out_issued <-
      (if eval_node t 0 rotation t.scheme then t.r_threads.(0) else 0)

  let issued t = t.out_issued

  let rejected_conflict t = t.out_conflict

  let rejected_capacity t = t.out_capacity

  let order t = t.order

  let order_len t = t.order_len
end

let select_batched m ?(routing = Conflict.Flexible) scheme ?(rotation = 0) avail
    =
  let b = Batch.create m ~routing scheme in
  Array.iteri
    (fun i p ->
      if i < b.Batch.n then
        match p with
        | None -> ()
        | Some p -> Batch.set_port_packet b i p)
    avail;
  Batch.eval b ~rotation;
  let packet =
    match Batch.order_len b with
    | 0 -> None
    | olen ->
      let first = Option.get avail.(b.Batch.order.(0)) in
      let acc = ref first in
      for k = 1 to olen - 1 do
        acc := Packet.union !acc (Option.get avail.(b.Batch.order.(k)))
      done;
      Some !acc
  in
  let issued = Packet.bits_to_list (Batch.issued b) in
  let rejected = ref [] in
  let conflict = Batch.rejected_conflict b
  and capacity = Batch.rejected_capacity b in
  for thread = b.Batch.n - 1 downto 0 do
    if conflict land (1 lsl thread) <> 0 then
      rejected := { thread; cause = Conflict.Cluster_conflict } :: !rejected
    else if capacity land (1 lsl thread) <> 0 then
      rejected := { thread; cause = Conflict.Slot_capacity } :: !rejected
  done;
  { packet; issued; rejected = !rejected }
