(* The run ledger under several writers: forked processes appending to
   one ledger, an append after a torn tail, a writer killed with
   SIGKILL mid-append, random interleavings of
   append / gc / merge against the increasing-id invariant the tail read
   relies on, and two processes replacing one file through
   [Atomic_io.write_file]. *)

module A = Vliw_util.Atomic_io
module L = Vliw_telemetry.Ledger

let temp_dir () =
  let dir = Filename.temp_file "vliwledger" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let cell ipc =
  {
    L.mix = "LLHH";
    scheme = "C4";
    ipc;
    elapsed_s = 0.01;
    started_s = 0.0;
    worker = 0;
    attempts = 1;
    degraded = false;
  }

let mk_run ?(ipc = 1.5) ?(seed = 42L) ~label () =
  L.make ~cells:[| cell ipc |] ~cmd:"exp" ~label ~scale:"quick" ~seed ~jobs:1
    ~scheme_names:[ "C4" ] ~mix_names:[ "LLHH" ] ~wall_s:0.1 ()

let ids dir = List.map (fun (r : L.run) -> r.id) (L.load ~dir)

(* Run [body i] in each of [n] forked children; fail unless all exit 0.
   Children leave through [_exit], so the parent's buffers and at_exit
   handlers are not run twice. *)
let in_children n body =
  let pids =
    List.init n (fun i ->
        match Unix.fork () with
        | 0 ->
          let code = match body i with () -> 0 | exception _ -> 1 in
          Unix._exit code
        | pid -> pid)
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "a writer process failed")
    pids

(* --- concurrent appends ------------------------------------------------ *)

let test_concurrent_appends () =
  with_temp_dir (fun dir ->
      in_children 4 (fun p ->
          for i = 1 to 25 do
            ignore
              (L.append ~dir
                 (mk_run ~seed:(Int64.of_int ((100 * p) + i))
                    ~label:(Printf.sprintf "p%d-%d" p i) ()))
          done);
      let lines =
        String.split_on_char '\n' (read_file (L.ledger_path ~dir))
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "every line is a record" 100 (List.length lines);
      Alcotest.(check (list string))
        "ids r1..r100, unique and increasing in file order"
        (List.init 100 (fun i -> Printf.sprintf "r%d" (i + 1)))
        (ids dir))

(* --- torn tail --------------------------------------------------------- *)

let test_torn_tail () =
  with_temp_dir (fun dir ->
      let path = L.ledger_path ~dir in
      List.iter
        (fun label -> ignore (L.append ~dir (mk_run ~label ())))
        [ "first"; "second"; "third" ];
      (* cut the last record in half: no terminating newline remains *)
      let text = read_file path in
      let last_start =
        String.rindex_from text (String.length text - 2) '\n' + 1
      in
      let cut = last_start + ((String.length text - last_start) / 2) in
      Unix.truncate path cut;
      Alcotest.(check (option string))
        "last_line skips the torn tail"
        (Some (List.nth (String.split_on_char '\n' text) 1))
        (A.last_line ~path);
      let fresh = L.append ~dir (mk_run ~label:"after-tear" ()) in
      Alcotest.(check string) "id is 1 + the last complete record's" "r3"
        fresh.L.id;
      let text' = read_file path in
      Alcotest.(check bool) "the torn prefix is kept verbatim" true
        (String.sub text' 0 cut = String.sub text 0 cut);
      Alcotest.(check string) "the new record starts on its own line"
        (L.to_json fresh |> Vliw_util.Json.to_string |> fun l -> "\n" ^ l ^ "\n")
        (String.sub text' cut (String.length text' - cut));
      Alcotest.(check (list string))
        "load keeps every complete record plus the new one"
        [ "first"; "second"; "after-tear" ]
        (List.map (fun (r : L.run) -> r.label) (L.load ~dir)))

(* --- kill -9 mid-append -------------------------------------------------- *)

(* A child appends records 1, 2, ... (ipc = index) and reports each
   completed append with one byte on a pipe; after a seeded random delay
   it is SIGKILLed, possibly inside an append. The ledger must load as
   r1..rk with every record intact, lose at most the append in flight,
   and hand the next append r(k+1). *)
let test_kill_mid_append () =
  List.iter
    (fun seed ->
      with_temp_dir (fun dir ->
          let st = Random.State.make [| seed |] in
          let delay = 0.005 +. Random.State.float st 0.045 in
          let rd, wr = Unix.pipe () in
          match Unix.fork () with
          | 0 ->
            Unix.close rd;
            let tick = Bytes.make 1 'x' in
            let rec loop i =
              ignore
                (L.append ~dir
                   (mk_run ~ipc:(float_of_int i) ~label:(Printf.sprintf "c%d" i) ()));
              ignore (Unix.write wr tick 0 1);
              loop (i + 1)
            in
            (try loop 1 with _ -> ());
            Unix._exit 1
          | pid ->
            Unix.close wr;
            Unix.sleepf delay;
            Unix.kill pid Sys.sigkill;
            (match Unix.waitpid [] pid with
            | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
            | _ -> Alcotest.fail "the writer did not die of SIGKILL");
            let acked =
              In_channel.input_all (Unix.in_channel_of_descr rd) |> String.length
            in
            Unix.close rd;
            let runs = L.load ~dir in
            let k = List.length runs in
            let what = Printf.sprintf "seed %d: " seed in
            Alcotest.(check (list string))
              (what ^ "ids r1..rk")
              (List.init k (fun i -> Printf.sprintf "r%d" (i + 1)))
              (List.map (fun (r : L.run) -> r.id) runs);
            Alcotest.(check (list (pair string (float 0.0))))
              (what ^ "every record intact")
              (List.init k (fun i ->
                   (Printf.sprintf "c%d" (i + 1), float_of_int (i + 1))))
              (List.map (fun (r : L.run) -> (r.label, L.mean_ipc r)) runs);
            Alcotest.(check bool)
              (Printf.sprintf "%sat most the killed append lost (%d acked, %d kept)"
                 what acked k)
              true
              (k = acked || k = acked + 1);
            Alcotest.(check string) (what ^ "next id")
              (Printf.sprintf "r%d" (k + 1))
              (L.append ~dir (mk_run ~label:"after-kill" ())).L.id))
    [ 1; 2; 3; 4; 5 ]

(* --- id invariant under append / gc / merge ---------------------------- *)

type op =
  | Append of int  (* grid variant: equal variants are gc duplicates *)
  | Gc
  | Merge of int list  (* a source ledger holding these variants *)

let show_op = function
  | Append v -> Printf.sprintf "append %d" v
  | Gc -> "gc"
  | Merge vs -> Printf.sprintf "merge [%s]" (String.concat ";" (List.map string_of_int vs))

let variant_run v = mk_run ~ipc:(1.0 +. float_of_int v) ~label:(Printf.sprintf "v%d" v) ()

let test_id_invariant =
  let gen_op =
    QCheck.Gen.(
      let variant = int_bound 3 in
      frequency
        [
          (5, map (fun v -> Append v) variant);
          (2, return Gc);
          (2, map (fun vs -> Merge vs) (list_size (int_bound 4) variant));
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat ", " (List.map show_op ops))
      QCheck.Gen.(list_size (int_range 1 12) gen_op)
  in
  QCheck.Test.make ~count:60
    ~name:"ledger: ids unique and the last is the max under append/gc/merge" arb
    (fun ops ->
      with_temp_dir (fun root ->
          let dir = Filename.concat root "target" in
          let sources = ref 0 in
          let apply = function
            | Append v -> ignore (L.append ~dir (variant_run v))
            | Gc -> ignore (L.gc ~dir ())
            | Merge vs ->
              incr sources;
              let src = Filename.concat root (Printf.sprintf "src%d" !sources) in
              List.iter (fun v -> ignore (L.append ~dir:src (variant_run v))) vs;
              ignore (L.merge ~dir ~from:[ src ] ())
          in
          List.for_all
            (fun op ->
              apply op;
              let ns =
                List.map (fun id -> int_of_string (String.sub id 1 (String.length id - 1))) (ids dir)
              in
              let rec increasing = function
                | a :: (b :: _ as rest) -> a < b && increasing rest
                | _ -> true
              in
              increasing ns
              && List.length (List.sort_uniq compare ns) = List.length ns
              && (ns = [] || List.nth ns (List.length ns - 1) = List.fold_left max 0 ns))
            ops))

(* --- one git lookup per process ---------------------------------------- *)

let test_git_rev_once () =
  let a = mk_run ~label:"a" () and b = mk_run ~label:"b" () in
  Alcotest.(check string) "same revision on every record" a.L.git_rev b.L.git_rev;
  Alcotest.(check bool) "a revision or unknown" true (a.L.git_rev <> "")

(* --- write_file from two processes ------------------------------------- *)

let test_concurrent_write_file () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "shared.txt" in
      let content i = String.make (64 * 1024) (Char.chr (Char.code 'a' + i)) in
      in_children 2 (fun i ->
          for _ = 1 to 50 do
            A.write_file ~path (content i)
          done);
      let final = read_file path in
      Alcotest.(check bool) "the file is one writer's complete content" true
        (final = content 0 || final = content 1);
      Alcotest.(check (list string)) "no temp file left behind" [ "shared.txt" ]
        (Array.to_list (Sys.readdir dir)))

let () =
  Alcotest.run "vliw-merge-repro-ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "concurrent appends from 4 processes" `Quick
            test_concurrent_appends;
          Alcotest.test_case "append after a torn tail" `Quick test_torn_tail;
          Alcotest.test_case "kill -9 mid-append" `Quick test_kill_mid_append;
          QCheck_alcotest.to_alcotest test_id_invariant;
          Alcotest.test_case "one git revision per process" `Quick test_git_rev_once;
          Alcotest.test_case "write_file from two processes" `Quick
            test_concurrent_write_file;
        ] );
    ]
