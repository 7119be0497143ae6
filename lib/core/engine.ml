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
   top-level recursion over the immutable scheme tree that returns the
   index of the lane holding a subtree's packet, and the outcome is three
   thread bitmasks plus the union-order buffer. [eval] therefore
   allocates nothing — the simulator's steady-state loop can run it every
   cycle and stay off the minor heap.

   The conflict decisions are the signature arithmetic of
   {!Conflict.csmt_compatible}, {!Conflict.smt_compatible} and
   {!Conflict.smt_compatible_fixed}, applied to the lanes instead of
   packets; the traversal mirrors the oracle's [eval] (same
   accumulate-then-check fold, same reject bookkeeping), so
   [select_batched] agrees bit-for-bit with [select_reference] —
   property-tested. *)

module Batch = struct
  type t = {
    routing : Conflict.routing_mode;
    scheme : Scheme.t;  (* canonical: what the walk evaluates *)
    n : int;
    clusters : int;
    (* Lane maintenance is gated by what the scheme's checks read: a
       pure-CSMT scheme never looks past the cluster masks, flexible SMT
       reads packed counts, fixed-slot SMT reads pinned masks. *)
    need_counts : bool;
    need_pins : bool;
    bias : int;  (* guard-bit capacity check: Instr.fits_bias machine *)
    guard : int;
    mutable live : int;  (* bitmask of ports holding a candidate *)
    mutable last : int;  (* port loaded last: the live one when only one is *)
    (* Lanes [0, n) are the ports, indexed by hardware thread; lane
       [n + d] is the accumulator register of the merge nodes at depth
       [d]. Per-cluster lanes are flattened as [lane * clusters + c]. A
       subtree's packet is named by its lane: a leaf is its port lane,
       a merge node's accumulator is its first producing child's lane
       until a union writes register [n + d]. Nothing is ever copied. *)
    l_threads : int array;
    l_mask : int array;
    l_counts : int array;
    l_pins : int array;
    rot : int array;  (* [rotation * n + i]: scheme input i's hardware port *)
    order : int array;  (* accepted leaves in union order *)
    mutable order_len : int;
    mutable out_issued : int;  (* outcome thread bitmasks *)
    mutable out_conflict : int;
    mutable out_capacity : int;
  }

  let create (machine : Vliw_isa.Machine.t) ~routing scheme =
    let scheme = Scheme.canonical scheme in
    let n = Scheme.n_threads scheme in
    let clusters = machine.Vliw_isa.Machine.clusters in
    let smt_blocks = Scheme.block_count Scheme_kind.Smt scheme in
    let lanes = n + Scheme.levels scheme + 1 in
    {
      routing;
      scheme;
      n;
      clusters;
      need_counts = smt_blocks > 0 && routing = Conflict.Flexible;
      need_pins = smt_blocks > 0 && routing = Conflict.Fixed_slots;
      bias = Vliw_isa.Instr.fits_bias machine;
      guard = Vliw_isa.Instr.fits_guard;
      live = 0;
      last = 0;
      l_threads = Array.make lanes 0;
      l_mask = Array.make lanes 0;
      l_counts = Array.make (lanes * clusters) 0;
      l_pins = Array.make (lanes * clusters) 0;
      rot = Array.init (n * n) (fun k -> ((k / n) + (k mod n)) mod n);
      order = Array.make n 0;
      order_len = 0;
      out_issued = 0;
      out_conflict = 0;
      out_capacity = 0;
    }

  let clear t = t.live <- 0

  let load_lanes t i threads mask (counts : int array) (pins : int array) =
    t.live <- t.live lor (1 lsl i);
    t.last <- i;
    t.l_threads.(i) <- threads;
    t.l_mask.(i) <- mask;
    let base = i * t.clusters in
    if t.need_counts then
      for c = 0 to t.clusters - 1 do
        t.l_counts.(base + c) <- counts.(c)
      done;
    if t.need_pins then
      for c = 0 to t.clusters - 1 do
        t.l_pins.(base + c) <- pins.(c)
      done

  let set_port t i (sg : Vliw_isa.Instr.signature) =
    load_lanes t i (1 lsl i) sg.sg_mask sg.sg_counts sg.sg_pins

  let set_port_packet t i (p : Packet.t) =
    load_lanes t i p.threads p.mask p.counts p.pins

  (* Conflict decisions as integer codes (0 compatible, 1 cluster
     conflict, 2 slot capacity) between lanes [a] and [b] — the same
     decisions as the {!Conflict} checks, minus the option allocation.
     The flexible capacity check is {!Vliw_isa.Instr.packed_fits} in its
     guard-bit form: one add and one AND per cluster. *)
  let rec flexible_fits t a b c =
    c >= t.clusters
    || ((t.l_counts.(a + c) + t.l_counts.(b + c) + t.bias) land t.guard = 0
       && flexible_fits t a b (c + 1))

  let rec fixed_code t a b shared c =
    if c >= t.clusters then 0
    else if shared land (1 lsl c) = 0 then fixed_code t a b shared (c + 1)
    else begin
      let pa = t.l_pins.(a + c) and pb = t.l_pins.(b + c) in
      if pa <> -1 && pb <> -1 then
        if pa land pb = 0 then fixed_code t a b shared (c + 1) else 1
      else 2
    end

  let check_code t kind a b =
    match ((kind : Scheme_kind.t), t.routing) with
    | Scheme_kind.Csmt, _ -> if t.l_mask.(a) land t.l_mask.(b) = 0 then 0 else 1
    | Smt, Conflict.Flexible ->
      if flexible_fits t (a * t.clusters) (b * t.clusters) 0 then 0 else 2
    | Smt, Conflict.Fixed_slots ->
      fixed_code t (a * t.clusters) (b * t.clusters)
        (t.l_mask.(a) land t.l_mask.(b))
        0

  (* Lane [dst] := lane [a] ∪ lane [b]; [dst] may be [a]. *)
  let union t dst a b =
    t.l_threads.(dst) <- t.l_threads.(a) lor t.l_threads.(b);
    t.l_mask.(dst) <- t.l_mask.(a) lor t.l_mask.(b);
    let k = t.clusters in
    if t.need_counts then
      for c = 0 to k - 1 do
        t.l_counts.((dst * k) + c) <-
          t.l_counts.((a * k) + c) + t.l_counts.((b * k) + c)
      done;
    if t.need_pins then
      for c = 0 to k - 1 do
        let pa = t.l_pins.((a * k) + c) and pb = t.l_pins.((b * k) + c) in
        t.l_pins.((dst * k) + c) <- (if pa = -1 || pb = -1 then -1 else pa lor pb)
      done

  (* The oracle's tree fold on lanes: a node returns the lane holding its
     packet, or -1 when it produced none. A merge node at depth [d]
     evaluates children at depth [d] until one produces (that lane is
     the accumulator as is), then evaluates the rest at depth [d+1] and
     unions accepted ones into register [n + d]; children at depth [d+1]
     write only registers above [n + d], so the accumulator survives
     them. An accepted leaf appends its port to [order]; a rejected
     subtree truncates back to the mark taken before it ran (its leaves
     are contiguous at the tail) and books its threads under the failure
     cause. [order] thus ends as the in-order traversal of accepted
     leaves: the union order, from which the merged packet can be
     rebuilt bit-identically. *)
  let rec eval_node t d base node =
    match (node : Scheme.t) with
    | Scheme.Thread i ->
      let hw = t.rot.(base + i) in
      if t.live land (1 lsl hw) = 0 then -1
      else begin
        t.order.(t.order_len) <- hw;
        t.order_len <- t.order_len + 1;
        hw
      end
    | Scheme.Merge { kind; impl = _; inputs } ->
      eval_inputs t d base kind (-1) inputs

  and eval_inputs t d base kind acc = function
    | [] -> acc
    | input :: rest when acc < 0 ->
      eval_inputs t d base kind (eval_node t d base input) rest
    | input :: rest ->
      let mark = t.order_len in
      let b = eval_node t (d + 1) base input in
      let acc =
        if b < 0 then acc
        else
          match check_code t kind acc b with
          | 0 ->
            union t (t.n + d) acc b;
            t.n + d
          | code ->
            t.order_len <- mark;
            if code = 1 then t.out_conflict <- t.out_conflict lor t.l_threads.(b)
            else t.out_capacity <- t.out_capacity lor t.l_threads.(b);
            acc
      in
      eval_inputs t d base kind acc rest

  (* With at most one live port the walk has nothing to check: the lone
     candidate (if any) reaches the root whole, under any rotation. *)
  let eval t ~rotation =
    if rotation < 0 || rotation >= t.n then
      invalid_arg "Engine.Batch.eval: rotation out of range";
    t.out_conflict <- 0;
    t.out_capacity <- 0;
    if t.live = 0 then begin
      t.order_len <- 0;
      t.out_issued <- 0
    end
    else if t.live land (t.live - 1) = 0 then begin
      t.order.(0) <- t.last;
      t.order_len <- 1;
      t.out_issued <- t.l_threads.(t.last)
    end
    else begin
      t.order_len <- 0;
      let lane = eval_node t 0 (rotation * t.n) t.scheme in
      t.out_issued <- (if lane < 0 then 0 else t.l_threads.(lane))
    end

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
  Batch.eval b ~rotation:(((rotation mod b.Batch.n) + b.Batch.n) mod b.Batch.n);
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
