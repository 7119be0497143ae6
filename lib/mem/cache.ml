type t = {
  sets : int;
  ways : int;
  line_shift : int;
  set_bits : int;  (* log2 sets when sets is a power of two, else -1 *)
  tags : int array;  (* sets * ways, -1 = invalid *)
  stamps : int array;  (* LRU timestamps, parallel to tags *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (g : Vliw_isa.Machine.cache_geom) =
  if not (is_pow2 g.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  let sets = g.size_bytes / (g.line_bytes * g.ways) in
  if sets <= 0 then invalid_arg "Cache.create: geometry yields no sets";
  {
    sets;
    ways = g.ways;
    line_shift = log2 g.line_bytes;
    set_bits = (if is_pow2 sets then log2 sets else -1);
    tags = Array.make (sets * g.ways) (-1);
    stamps = Array.make (sets * g.ways) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let locate t addr =
  let line = addr lsr t.line_shift in
  let set = line mod t.sets in
  let tag = line / t.sets in
  (set * t.ways, tag)

(* Index of the way holding [tag], or -1. Top-level recursion with an
   int sentinel keeps the per-access lookup allocation-free (a nested
   [let rec] would build a closure per call), and the annotations make
   the tag test an integer compare rather than a polymorphic [compare]
   call into the runtime. *)
let rec find_way (tags : int array) (tag : int) limit idx =
  if idx >= limit then -1
  else if tags.(idx) = tag then idx
  else find_way tags tag limit (idx + 1)

let find t base tag = find_way t.tags tag (base + t.ways) base

let probe t addr =
  let base, tag = locate t addr in
  find t base tag >= 0

let access t addr =
  (* [locate] open-coded: the tuple return would allocate per access,
     and for power-of-two set counts (the usual geometry) the set/tag
     split is shift-and-mask instead of two integer divisions. *)
  let line = addr lsr t.line_shift in
  let pow2 = t.set_bits >= 0 in
  let set = if pow2 then line land (t.sets - 1) else line mod t.sets in
  let tag = if pow2 then line lsr t.set_bits else line / t.sets in
  let base = set * t.ways in
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let idx = find t base tag in
  if idx >= 0 then begin
    t.stamps.(idx) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* Evict the least recently used way (empty ways have stamp 0). *)
    let victim = ref base in
    for w = 1 to t.ways - 1 do
      if t.stamps.(base + w) < t.stamps.(!victim) then victim := base + w
    done;
    t.tags.(!victim) <- tag;
    t.stamps.(!victim) <- t.clock;
    false
  end

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0

let accesses t = t.accesses

let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0

let n_sets t = t.sets
