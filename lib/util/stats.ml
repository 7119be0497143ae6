(* Every aggregate here rejects the empty array with [Invalid_argument]
   instead of guessing a value. The historical behaviour — [assert] for
   the order statistics (which vanishes under -noassert) and a silent
   [0.0] from [mean] — let empty inputs flow through experiment
   aggregation unnoticed; now they fail loudly at the call site. *)

let require_nonempty fn xs =
  if Array.length xs = 0 then
    invalid_arg (Printf.sprintf "Stats.%s: empty array" fn)

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  require_nonempty "mean" xs;
  sum xs /. float_of_int (Array.length xs)

let geomean xs =
  require_nonempty "geomean" xs;
  let acc = Array.fold_left (fun acc x -> acc +. log x) 0.0 xs in
  exp (acc /. float_of_int (Array.length xs))

let stddev xs =
  require_nonempty "stddev" xs;
  let m = mean xs in
  let var = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
  sqrt (var /. float_of_int (Array.length xs))

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let median xs =
  require_nonempty "median" xs;
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n mod 2 = 1 then ys.(n / 2) else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.0

let percentile xs p =
  require_nonempty "percentile" xs;
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %g not in [0, 100]" p);
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))
  end

let quantile_exact xs p =
  require_nonempty "quantile_exact" xs;
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg
      (Printf.sprintf "Stats.quantile_exact: p = %g not in [0, 100]" p);
  let ys = sorted_copy xs in
  let n = Array.length ys in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  ys.(min (n - 1) (max 0 (rank - 1)))

let p50 xs = quantile_exact xs 50.0
let p95 xs = quantile_exact xs 95.0
let p99 xs = quantile_exact xs 99.0

let min_max xs =
  require_nonempty "min_max" xs;
  Array.fold_left
    (fun (mn, mx) x -> (min mn x, max mx x))
    (xs.(0), xs.(0))
    xs

let pct_diff a b = (a -. b) /. b *. 100.0

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let summarize xs =
  require_nonempty "summarize" xs;
  let mn, mx = min_max xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = mn;
    max = mx;
    median = median xs;
  }
