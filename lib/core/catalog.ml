type entry = {
  name : string;
  scheme : Scheme.t;
  perf_group : string;
  description : string;
}

let t0 = Scheme.thread 0
let t1 = Scheme.thread 1
let t2 = Scheme.thread 2
let t3 = Scheme.thread 3

let s = Scheme.smt
let c = Scheme.csmt
let cp = Scheme.csmt_parallel

let entry name scheme perf_group description =
  { name; scheme; perf_group; description }

(* Figure 9 order: cost-ascending (schemes with fewer SMT blocks first). *)
let all =
  [
    entry "ST" t0 "ST" "single-threaded baseline (no merging)";
    entry "C4" (cp [ t0; t1; t2; t3 ]) "3CCC,C4"
      "4-thread parallel CSMT (one 4-input block)";
    entry "3CCC" (c (c (c t0 t1) t2) t3) "3CCC,C4" "4-thread serial CSMT cascade";
    entry "2CC"
      (c (c t0 t1) (c t2 t3))
      "2CC" "balanced tree, CSMT pairs then CSMT top";
    entry "1S" (s t0 t1) "1S" "2-thread SMT baseline";
    entry "2SC3"
      (cp [ s t0 t1; t2; t3 ])
      "3SCC,3CSC,3CCS,2SC3,2C3S"
      "SMT pair then 3-input parallel CSMT (the paper's pick)";
    entry "3CSC"
      (c (s (c t0 t1) t2) t3)
      "3SCC,3CSC,3CCS,2SC3,2C3S" "cascade CSMT, SMT, CSMT";
    entry "2C3S"
      (s (cp [ t0; t1; t2 ]) t3)
      "3SCC,3CSC,3CCS,2SC3,2C3S" "3-input parallel CSMT then SMT";
    entry "3CCS"
      (s (c (c t0 t1) t2) t3)
      "3SCC,3CSC,3CCS,2SC3,2C3S" "cascade CSMT, CSMT, SMT";
    entry "3SCC"
      (c (c (s t0 t1) t2) t3)
      "3SCC,3CSC,3CCS,2SC3,2C3S" "cascade SMT, CSMT, CSMT";
    entry "2CS"
      (s (c t0 t1) (c t2 t3))
      "2CS" "balanced tree, CSMT pairs then SMT top";
    entry "2SC"
      (c (s t0 t1) (s t2 t3))
      "2SC" "balanced tree, SMT pairs then CSMT top";
    entry "3SSC"
      (c (s (s t0 t1) t2) t3)
      "3CSS,3SCS,3SSC" "cascade SMT, SMT, CSMT";
    entry "3SCS"
      (s (c (s t0 t1) t2) t3)
      "3CSS,3SCS,3SSC" "cascade SMT, CSMT, SMT";
    entry "3CSS"
      (s (s (c t0 t1) t2) t3)
      "3CSS,3SCS,3SSC" "cascade CSMT, SMT, SMT";
    entry "2SS"
      (s (s t0 t1) (s t2 t3))
      "2SS" "balanced tree, SMT pairs then SMT top";
    entry "3SSS" (s (s (s t0 t1) t2) t3) "3SSS" "4-thread serial SMT cascade";
  ]

let four_thread =
  List.filter (fun e -> Scheme.n_threads e.scheme = 4) all

let find name =
  let target = String.uppercase_ascii name in
  List.find_opt (fun e -> String.uppercase_ascii e.name = target) all

let find_exn name =
  match find name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Catalog.find_exn: unknown scheme %S" name)

let perf_groups =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  let record e =
    match Hashtbl.find_opt tbl e.perf_group with
    | Some members -> Hashtbl.replace tbl e.perf_group (e.name :: members)
    | None ->
      Hashtbl.add tbl e.perf_group [ e.name ];
      order := e.perf_group :: !order
  in
  List.iter record all;
  List.rev_map (fun g -> (g, List.rev (Hashtbl.find tbl g))) !order
