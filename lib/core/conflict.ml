type routing_mode = Flexible | Fixed_slots

(* Why a merge was denied, for telemetry attribution. Cluster-mask and
   pinned-slot collisions are conflicts (the packets want the same
   resource); an SMT union that overflows a cluster's slot constraints
   is a capacity failure (the resources simply run out). *)
type failure = Cluster_conflict | Slot_capacity

let csmt_compatible (a : Packet.t) (b : Packet.t) = a.mask land b.mask = 0

(* Operation-level check with full routing flexibility: the union must
   satisfy every cluster's slot constraints. Packed class-count words
   add without interaction between fields, so the combined demand of a
   cluster is one addition and the constraint test one unpacking. Every
   cluster is checked — including clusters only one packet occupies —
   matching the historical list-based check. *)
let smt_compatible (m : Vliw_isa.Machine.t) (a : Packet.t) (b : Packet.t) =
  let clusters = Array.length a.counts in
  let rec check c =
    c >= clusters
    || (Vliw_isa.Instr.packed_fits m (a.counts.(c) + b.counts.(c))
       && check (c + 1))
  in
  check 0

(* Fixed-slot mode: every operation is pinned to the slot it occupies in
   its own thread's instruction (no routing block). Two packets merge
   only if, on every shared cluster, those pinned slots do not collide.
   The pinned masks were computed once per instruction at compile time
   (Instr.signature) and combined through Packet.union, so the check is
   pure bitmask arithmetic — no re-routing per check. *)
let smt_check_fixed (_m : Vliw_isa.Machine.t) (a : Packet.t) (b : Packet.t) =
  let clusters = Array.length a.counts in
  let rec check c =
    if c >= clusters then None
    else if a.mask land b.mask land (1 lsl c) = 0 then check (c + 1)
    else begin
      let pa = a.pins.(c) and pb = b.pins.(c) in
      if pa <> -1 && pb <> -1 then
        if pa land pb = 0 then check (c + 1) else Some Cluster_conflict
      else Some Slot_capacity
    end
  in
  check 0

let smt_compatible_fixed m a b = smt_check_fixed m a b = None

(* The pre-signature implementations, kept verbatim as the oracle the
   batched kernel is property-tested against (Engine.select_reference).
   These walk the tagged operation lists and, in fixed-slot mode,
   re-derive each thread's pinned slots through Routing.route — exactly
   the work the signature layer precomputes. *)
module Reference = struct
  let smt_compatible (m : Vliw_isa.Machine.t) (a : Packet.t) (b : Packet.t) =
    let clusters = Array.length a.clusters in
    let rec check c =
      if c >= clusters then true
      else begin
        let ops = Packet.ops_in a c @ Packet.ops_in b c in
        Vliw_isa.Instr.fits_cluster m ops && check (c + 1)
      end
    in
    check 0

  let thread_slot_mask (m : Vliw_isa.Machine.t) entries thread =
    let ops =
      List.filter_map
        (fun (e : Packet.entry) -> if e.thread = thread then Some e else None)
        entries
    in
    match
      Routing.route m
        {
          Packet.clusters = [| ops |];
          threads = 1 lsl thread;
          mask = (if ops = [] then 0 else 1);
          counts = [| 0 |];
          pins = [| 0 |];
          nops = List.length ops;
        }
    with
    | None -> None
    | Some routed ->
      let mask = ref 0 in
      Array.iteri
        (fun s slot -> if slot <> None then mask := !mask lor (1 lsl s))
        routed.(0);
      Some !mask

  let cluster_slot_mask m (p : Packet.t) c =
    List.fold_left
      (fun acc thread ->
        match acc with
        | None -> None
        | Some acc_mask ->
          (match thread_slot_mask m p.clusters.(c) thread with
          | None -> None
          | Some mask -> Some (acc_mask lor mask)))
      (Some 0) (Packet.cluster_threads p c)

  let smt_check_fixed (m : Vliw_isa.Machine.t) (a : Packet.t) (b : Packet.t) =
    let clusters = Array.length a.clusters in
    let rec check c =
      if c >= clusters then None
      else begin
        let shared = a.mask land b.mask land (1 lsl c) <> 0 in
        if not shared then check (c + 1)
        else
          match (cluster_slot_mask m a c, cluster_slot_mask m b c) with
          | Some ma, Some mb ->
            if ma land mb = 0 then check (c + 1) else Some Cluster_conflict
          | None, _ | _, None -> Some Slot_capacity
      end
    in
    check 0

  let check m ?(routing = Flexible) kind a b =
    match ((kind : Scheme_kind.t), routing) with
    | Scheme_kind.Csmt, _ ->
      if csmt_compatible a b then None else Some Cluster_conflict
    | Smt, Flexible ->
      if smt_compatible m a b then None else Some Slot_capacity
    | Smt, Fixed_slots -> smt_check_fixed m a b
end
