module Cache = Vliw_mem.Cache
module Q = QCheck

let geom ~size ~ways ~line =
  { Vliw_isa.Machine.size_bytes = size; ways; line_bytes = line }

let test_cold_miss_then_hit () =
  let c = Cache.create (geom ~size:1024 ~ways:2 ~line:64) in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line hit" true (Cache.access c 63);
  Alcotest.(check bool) "next line miss" false (Cache.access c 64);
  Alcotest.(check int) "accesses" 4 (Cache.accesses c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_lru_eviction () =
  (* 2-way, 64B lines, 2 sets (256 B total). Addresses 0, 128, 256 map to
     set 0. The third distinct line evicts the least recently used. *)
  let c = Cache.create (geom ~size:256 ~ways:2 ~line:64) in
  ignore (Cache.access c 0);
  ignore (Cache.access c 256);
  Alcotest.(check bool) "0 still resident" true (Cache.probe c 0);
  ignore (Cache.access c 0);
  (* LRU is now 256. *)
  ignore (Cache.access c 512);
  Alcotest.(check bool) "0 kept (recently used)" true (Cache.probe c 0);
  Alcotest.(check bool) "256 evicted" false (Cache.probe c 256)

let test_capacity_full_residency () =
  let c = Cache.create (geom ~size:4096 ~ways:4 ~line:64) in
  for i = 0 to 63 do
    ignore (Cache.access c (i * 64))
  done;
  (* Footprint = capacity: everything resident afterwards. *)
  for i = 0 to 63 do
    Alcotest.(check bool) "resident" true (Cache.access c (i * 64))
  done

let test_thrashing () =
  let c = Cache.create (geom ~size:4096 ~ways:4 ~line:64) in
  (* 128 lines through a 64-line cache, cyclic: with LRU every access
     misses once warm. *)
  for round = 0 to 2 do
    for i = 0 to 127 do
      let hit = Cache.access c (i * 64) in
      if round > 0 then Alcotest.(check bool) "cyclic thrash always misses" false hit
    done
  done

let test_flush () =
  let c = Cache.create (geom ~size:1024 ~ways:2 ~line:64) in
  ignore (Cache.access c 0);
  Cache.flush c;
  Alcotest.(check bool) "gone after flush" false (Cache.probe c 0)

let test_probe_no_side_effect () =
  let c = Cache.create (geom ~size:1024 ~ways:2 ~line:64) in
  Alcotest.(check bool) "probe miss" false (Cache.probe c 0);
  Alcotest.(check int) "no accesses recorded" 0 (Cache.accesses c);
  Alcotest.(check bool) "still miss" false (Cache.probe c 0)

let test_reset_stats () =
  let c = Cache.create (geom ~size:1024 ~ways:2 ~line:64) in
  ignore (Cache.access c 0);
  Cache.reset_stats c;
  Alcotest.(check int) "accesses" 0 (Cache.accesses c);
  Alcotest.(check int) "misses" 0 (Cache.misses c);
  Alcotest.(check bool) "contents survive" true (Cache.probe c 0)

let test_geometry () =
  let c = Cache.create (geom ~size:(64 * 1024) ~ways:4 ~line:64) in
  Alcotest.(check int) "sets" 256 (Cache.n_sets c);
  Alcotest.check_raises "bad line size"
    (Invalid_argument "Cache.create: line size must be a power of two") (fun () ->
      ignore (Cache.create (geom ~size:1024 ~ways:2 ~line:48)))

let prop_miss_rate_bounded =
  Q.Test.make ~name:"miss rate within [0,1]" ~count:100
    Q.(list_of_size Gen.(int_range 1 200) (int_bound 100_000))
    (fun addrs ->
      let c = Cache.create (geom ~size:1024 ~ways:2 ~line:64) in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      let r = Cache.miss_rate c in
      r >= 0.0 && r <= 1.0 && Cache.misses c <= Cache.accesses c)

let prop_access_then_probe =
  Q.Test.make ~name:"access makes line resident" ~count:200
    Q.(int_bound 1_000_000)
    (fun addr ->
      let c = Cache.create (geom ~size:4096 ~ways:4 ~line:64) in
      ignore (Cache.access c addr);
      Cache.probe c addr)

(* A naive model: per set, the resident line tags in most-recently-used
   order, at most [ways] long. *)
let model_run ~sets ~ways ~line addrs =
  let lru = Array.make sets [] in
  List.map
    (fun addr ->
      let l = addr / line in
      let set = l mod sets and tag = l / sets in
      let hit = List.mem tag lru.(set) in
      let rest = List.filter (( <> ) tag) lru.(set) in
      lru.(set) <- List.filteri (fun i _ -> i < ways) (tag :: rest);
      hit)
    addrs

(* The cache against the model over random geometries, power-of-two set
   counts (shift-and-mask split) and others (division), with address
   streams dense enough in few lines to hit, evict and re-hit. *)
let prop_matches_lru_model =
  let gen =
    Q.Gen.(
      let* line = map (fun k -> 1 lsl k) (int_range 2 7) in
      let* ways = int_range 1 8 in
      let* sets = oneof [ map (fun k -> 1 lsl k) (int_range 0 5); int_range 1 40 ] in
      let* lines = int_range 1 (4 * sets * ways) in
      let* addrs =
        list_size (int_range 1 400)
          (map2 (fun l off -> (l * line) + off) (int_bound (lines - 1)) (int_bound (line - 1)))
      in
      return (line, ways, sets, addrs))
  in
  let print (line, ways, sets, addrs) =
    Printf.sprintf "line=%d ways=%d sets=%d addrs=[%s]" line ways sets
      (String.concat ";" (List.map string_of_int addrs))
  in
  Q.Test.make ~name:"access = per-set LRU list model" ~count:500
    (Q.make ~print gen)
    (fun (line, ways, sets, addrs) ->
      let c = Cache.create (geom ~size:(sets * ways * line) ~ways ~line) in
      let hits = List.map (Cache.access c) addrs in
      let expected = model_run ~sets ~ways ~line addrs in
      Cache.n_sets c = sets
      && hits = expected
      && Cache.accesses c = List.length addrs
      && Cache.misses c = List.length (List.filter not expected))

let suite =
  ( "cache",
    [
      Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
      Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
      Alcotest.test_case "capacity residency" `Quick test_capacity_full_residency;
      Alcotest.test_case "cyclic thrashing" `Quick test_thrashing;
      Alcotest.test_case "flush" `Quick test_flush;
      Alcotest.test_case "probe has no side effects" `Quick test_probe_no_side_effect;
      Alcotest.test_case "reset stats" `Quick test_reset_stats;
      Alcotest.test_case "geometry" `Quick test_geometry;
      Tgen.to_alcotest prop_miss_rate_bounded;
      Tgen.to_alcotest prop_access_then_probe;
      Tgen.to_alcotest prop_matches_lru_model;
    ] )
