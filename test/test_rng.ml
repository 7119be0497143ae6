module Rng = Vliw_util.Rng
module Q = QCheck

let test_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_distinct_seeds () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different streams" false
    (Rng.next_int64 a = Rng.next_int64 b)

let test_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 50 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let test_shuffle_permutation () =
  let rng = Rng.create 3L in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 20 Fun.id) sorted

let test_bernoulli_extremes () =
  let rng = Rng.create 11L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1" true (Rng.bernoulli rng 1.0);
    Alcotest.(check bool) "p=0" false (Rng.bernoulli rng 0.0)
  done

let test_gaussian_moments () =
  let rng = Rng.create 17L in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mu:3.0 ~sigma:2.0) in
  let mean = Vliw_util.Stats.mean xs in
  let sd = Vliw_util.Stats.stddev xs in
  Alcotest.(check bool) "mean ~3" true (abs_float (mean -. 3.0) < 0.1);
  Alcotest.(check bool) "sd ~2" true (abs_float (sd -. 2.0) < 0.1)

(* The implementation against a straight Int64 SplitMix64 on a mutable
   field: identical raw streams, and identical [int]/[float]
   projections, with [int] bounds on both sides of 2^30 up to
   [max_int]. *)
module Ref64 = struct
  type t = { mutable state : int64 }

  let create seed = { state = seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let float t bound =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    /. 9007199254740992.0 *. bound

  let bernoulli t p =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    /. 9007199254740992.0 < p
end

(* [bernoulli] against the Int64 formulation, over p values that sit on
   the 2^-53 grid of possible draws (0, 1, dyadic fractions and their
   neighbours one ulp away) and a few that do not. *)
let test_bernoulli_matches_int64_reference () =
  let ps =
    [ 0.0; 1.0; 0.5; 0.25; 0.75; 0x1p-53; 0x1p-52; 1.0 -. 0x1p-53;
      Float.succ 0.5; Float.pred 0.5; 0x1p-10; 0.1; 0.3; 0.999 ]
  in
  let draws = ref 0 in
  List.iter
    (fun seed ->
      let a = Rng.create seed and b = Ref64.create seed in
      for _ = 1 to 8_000 do
        List.iter
          (fun p ->
            incr draws;
            if Rng.bernoulli a p <> Ref64.bernoulli b p then
              Alcotest.failf "seed %Ld, p %h: draw %d differs" seed p !draws)
          ps
      done)
    [ 0L; 42L; Int64.min_int ];
  Alcotest.(check bool) "at least 1e5 draws" true (!draws >= 100_000)

let test_matches_int64_reference () =
  List.iter
    (fun seed ->
      let a = Rng.create seed and b = Ref64.create seed in
      for _ = 1 to 200 do
        Alcotest.(check int64) "raw stream" (Ref64.next b) (Rng.next_int64 a)
      done;
      (* Projections, including bounds above 2^30. *)
      List.iter
        (fun bound ->
          let a = Rng.create seed and b = Ref64.create seed in
          for _ = 1 to 100 do
            Alcotest.(check int) "int projection" (Ref64.int b bound)
              (Rng.int a bound)
          done)
        [ 2; 7; 4096; 0x40000000; 0x40000001; max_int ];
      let a = Rng.create seed and b = Ref64.create seed in
      for _ = 1 to 100 do
        Alcotest.(check (float 0.0)) "float projection" (Ref64.float b 1.0)
          (Rng.float a 1.0)
      done)
    [ 0L; 1L; 42L; -1L; 0x5EEDL; Int64.min_int; Int64.max_int; 0xDEADBEEFCAFEL ]

let prop_int_bound =
  Q.Test.make ~name:"int within bound" ~count:500
    Q.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_float_bound =
  Q.Test.make ~name:"float within bound" ~count:500
    Q.(pair (float_range 0.001 1e6) small_int)
    (fun (bound, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

let suite =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "matches Int64 SplitMix64" `Quick
        test_matches_int64_reference;
      Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
      Alcotest.test_case "split independent" `Quick test_split_independent;
      Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
      Alcotest.test_case "bernoulli matches Int64 SplitMix64" `Quick
        test_bernoulli_matches_int64_reference;
      Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
      Tgen.to_alcotest prop_int_bound;
      Tgen.to_alcotest prop_float_bound;
    ] )
