(* SplitMix64, implemented on unboxed native ints.

   OCaml's native int is 63 bits, so the 64-bit state and the scrambled
   output are carried as two 32-bit limbs (hi, lo). This keeps the hot
   path completely allocation-free: the Int64 formulation boxes roughly
   ten intermediates per draw, and the simulator draws once per memory
   operation and branch. The output sequence is bit-for-bit identical to
   the Int64 formulation (cross-checked in test_util).

   [zhi]/[zlo] are scratch registers holding the scrambled output of the
   latest draw; only [hi]/[lo] are generator state. *)

type t = {
  mutable hi : int;  (* state bits 32..63 *)
  mutable lo : int;  (* state bits 0..31 *)
  mutable zhi : int;
  mutable zlo : int;
}

let mask32 = 0xFFFFFFFF

let create seed =
  {
    hi = Int64.to_int (Int64.shift_right_logical seed 32);
    lo = Int64.to_int (Int64.logand seed 0xFFFFFFFFL);
    zhi = 0;
    zlo = 0;
  }

let copy t = { hi = t.hi; lo = t.lo; zhi = 0; zlo = 0 }

(* golden gamma 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

(* z <- z lxor (z lsr k), on the (zhi, zlo) limbs; 0 < k < 32. *)
let xor_shift t k =
  let shi = t.zhi lsr k in
  let slo = ((t.zhi land ((1 lsl k) - 1)) lsl (32 - k)) lor (t.zlo lsr k) in
  t.zhi <- t.zhi lxor shi;
  t.zlo <- t.zlo lxor slo

(* z <- z * (c1·2^32 + c0) mod 2^64. Native multiplication yields the
   exact low 63 bits of a product (wraparound is mod 2^63), so low-32
   extractions of 32x32 products are direct; only the high half of
   zlo·c0 needs a 16-bit limb split, because its bit 63 would be lost
   to the native wraparound. *)
let mul_const t c1 c0 =
  let a1 = t.zhi and a0 = t.zlo in
  let ah = a0 lsr 16 and al = a0 land 0xFFFF in
  let bh = c0 lsr 16 and bl = c0 land 0xFFFF in
  let low = al * bl in
  let mid = (ah * bl) + (al * bh) in
  let high = ah * bh in
  let tt = low + ((mid land 0xFFFF) lsl 16) in
  let p_lo = tt land mask32 in
  let p_hi = high + (mid lsr 16) + (tt lsr 32) in
  t.zlo <- p_lo;
  t.zhi <- (p_hi + (a0 * c1) + (a1 * c0)) land mask32

(* SplitMix64 step: advance by the golden gamma and scramble into
   (zhi, zlo). *)
let next t =
  let lo = t.lo + gamma_lo in
  t.lo <- lo land mask32;
  t.hi <- (t.hi + gamma_hi + (lo lsr 32)) land mask32;
  t.zhi <- t.hi;
  t.zlo <- t.lo;
  xor_shift t 30;
  mul_const t 0xBF58476D 0x1CE4E5B9;
  xor_shift t 27;
  mul_const t 0x94D049BB 0x133111EB;
  xor_shift t 31

let next_int64 t =
  next t;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.zhi) 32)
    (Int64.of_int t.zlo)

let split t = create (next_int64 t)

let int t bound =
  assert (bound > 0);
  next t;
  (* The Int64 formulation is (z lsr 1) rem bound. z lsr 1 is an
     unsigned 63-bit value — one bit more than a native int holds
     positively — so reduce limb-wise: z lsr 1 = zhi·2^31 + (zlo lsr 1).
     For bounds below 2^30 every intermediate stays under 2^60. *)
  if bound <= 0x40000000 then
    (((t.zhi mod bound) * (0x80000000 mod bound)) + (t.zlo lsr 1))
    mod bound
  else
    Int64.to_int
      (Int64.rem
         (Int64.logor
            (Int64.shift_left (Int64.of_int t.zhi) 31)
            (Int64.of_int (t.zlo lsr 1)))
         (Int64.of_int bound))

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  next t;
  (* (z lsr 11) has 53 bits: exact as a float *)
  float_of_int ((t.zhi lsl 21) lor (t.zlo lsr 11))
  /. 9007199254740992.0 *. bound

let bool t =
  next t;
  t.zlo land 1 = 1

(* Open-coded [float t 1.0 < p]: the uniform draw stays in registers
   instead of crossing a function boundary as a boxed float. Scaling the
   53-bit draw by 2^-53 is exact, so the multiply equals [float]'s
   division bit for bit. *)
let bernoulli t p =
  next t;
  float_of_int ((t.zhi lsl 21) lor (t.zlo lsr 11)) *. 0x1p-53 < p

let geometric t p =
  assert (p > 0.0 && p <= 1.0);
  if p >= 1.0 then 0
  else begin
    let u = float t 1.0 in
    let u = if u <= 0.0 then min_float else u in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))
  end

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then min_float else u in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = float t 1.0 and u2 = float t 1.0 in
  let u1 = if u1 <= 0.0 then min_float else u1 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let choose_weighted t items =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 items in
  assert (total > 0.0);
  let target = float t total in
  let rec pick i acc =
    if i = Array.length items - 1 then fst items.(i)
    else
      let acc = acc +. snd items.(i) in
      if target < acc then fst items.(i) else pick (i + 1) acc
  in
  pick 0 0.0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
