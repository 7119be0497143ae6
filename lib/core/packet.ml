type entry = { thread : int; op : Vliw_isa.Op.t }

type t = {
  clusters : entry list array;
  threads : int;
  mask : int;
  counts : int array;
  pins : int array;
  nops : int;
}

let of_instr (m : Vliw_isa.Machine.t) ~thread (instr : Vliw_isa.Instr.t) =
  let sg = Vliw_isa.Instr.signature m instr in
  let clusters = Array.map (List.map (fun op -> { thread; op })) instr.ops in
  {
    clusters;
    threads = 1 lsl thread;
    mask = sg.sg_mask;
    counts = sg.sg_counts;
    pins = sg.sg_pins;
    nops = sg.sg_ops;
  }

(* Pinned masks combine by union, except that inability to place ([-1])
   is absorbing: a merged packet is unroutable in fixed-slot mode as soon
   as any contributor is. *)
let union_pins a b = if a = -1 || b = -1 then -1 else a lor b

let union a b =
  assert (Array.length a.clusters = Array.length b.clusters);
  {
    clusters = Array.map2 (fun x y -> x @ y) a.clusters b.clusters;
    threads = a.threads lor b.threads;
    mask = a.mask lor b.mask;
    counts = Array.map2 ( + ) a.counts b.counts;
    pins = Array.map2 union_pins a.pins b.pins;
    nops = a.nops + b.nops;
  }

let op_count t = t.nops

let bits_to_list bits =
  let rec go i acc =
    if 1 lsl i > bits then List.rev acc
    else go (i + 1) (if bits land (1 lsl i) <> 0 then i :: acc else acc)
  in
  go 0 []

let thread_list t = bits_to_list t.threads

let cluster_threads t c =
  let bits =
    List.fold_left (fun acc e -> acc lor (1 lsl e.thread)) 0 t.clusters.(c)
  in
  bits_to_list bits

let ops_in t c = List.map (fun e -> e.op) t.clusters.(c)

let is_empty t = t.mask = 0

let pp m ppf t =
  let instr =
    Vliw_isa.Instr.of_cluster_ops ~addr:0
      (Array.map (List.map (fun e -> e.op)) t.clusters)
  in
  Format.fprintf ppf "threads=%s: %a"
    (String.concat "," (List.map string_of_int (thread_list t)))
    (Vliw_isa.Instr.pp m) instr
