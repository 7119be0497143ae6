(* SplitMix64 on an 8-byte state buffer.

   The state lives in a [Bytes] read and written with [get/set_int64_le],
   and every step runs on [Int64] locals: native code keeps those
   unboxed (no flambda needed), so a draw allocates nothing — the
   simulator draws once per memory operation and branch. *)

type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

(* Advance by the golden gamma and return the scrambled output. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 = next

let split t = create (next t)

let int t bound =
  assert (bound > 0);
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

(* (z lsr 11) has 53 bits: exact as a float. *)
let float t bound =
  Int64.to_float (Int64.shift_right_logical (next t) 11)
  /. 9007199254740992.0 *. bound

(* Open-coded [float t 1.0 < p]: the uniform draw stays in registers
   instead of crossing a function boundary as a boxed float. Scaling the
   53-bit draw by 2^-53 is exact, so the multiply equals [float]'s
   division bit for bit. *)
let bernoulli t p =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53 < p

let gaussian t ~mu ~sigma =
  let u1 = float t 1.0 and u2 = float t 1.0 in
  let u1 = if u1 <= 0.0 then min_float else u1 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
