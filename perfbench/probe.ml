(* Measurement primitives shared by the workloads and the layer suite:
   a clock, order statistics, process memory, an FNV digest for output
   checks, and the bench-side span buffer that a traced run writes out
   as a Chrome trace. *)

(* A declared metric: its name, unit and which direction is better. *)
type metric = { name : string; unit : string; better : string }

let lower name unit = { name; unit; better = "lower" }
let higher name unit = { name; unit; better = "higher" }

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs = Vliw_util.Stats.median (Array.of_list xs)

let sum = List.fold_left ( +. ) 0.0

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* FNV-1a over a list of strings, the same hash family the ledger uses
   for grid digests, so a combined digest reads like theirs. *)
let digest_strings parts =
  let h =
    List.fold_left
      (fun acc s ->
        String.fold_left
          (fun acc c ->
            Int64.mul
              (Int64.logxor acc (Int64.of_int (Char.code c)))
              0x100000001B3L)
          acc (s ^ "\x00"))
      0xCBF29CE484222325L parts
  in
  Printf.sprintf "%016Lx" h

let grid_digest (cells : Vliw_experiments.Sweep.cell array) =
  Vliw_telemetry.Ledger.grid_digest
    (Array.map
       (fun (c : Vliw_experiments.Sweep.cell) ->
         {
           Vliw_telemetry.Ledger.mix = c.mix;
           scheme = c.scheme;
           ipc = c.ipc;
           elapsed_s = c.elapsed_s;
           started_s = c.started_s;
           worker = c.worker;
           attempts = c.attempts;
           degraded = c.error <> None;
         })
       cells)

(* --- spans ------------------------------------------------------------- *)

(* One timed slice of a traced round. [layer] is the library layer the
   slice belongs to ("compile", "simulate", "control", ...); [top]
   marks the slices that tile the round (their sum is the closure
   check's numerator), as opposed to slices nested inside one. *)
type span = {
  layer : string;
  name : string;
  lane : string;
  start_s : float;
  dur_s : float;
  top : bool;
}

type spans = { mutable items : span list }

let spans () = { items = [] }

let add buf sp = buf.items <- sp :: buf.items

let span buf ?(top = true) ~layer ~lane name f =
  let t0 = now () in
  let r = f () in
  add buf { layer; name; lane; start_s = t0; dur_s = now () -. t0; top };
  r

(* Spans the daemon or coordinator recorded through its own tracer,
   mapped onto bench layers. *)
let of_service_span ~layer (s : Vliw_telemetry.Span.t) =
  {
    layer;
    name = Vliw_telemetry.Span.kind_name s.kind ^ " " ^ s.name;
    lane = s.lane;
    start_s = s.start_s;
    dur_s = s.dur_s;
    top = false;
  }

let write_chrome ~path ~process_name items =
  let lanes = ref [] in
  let lane_id name =
    match List.assoc_opt name !lanes with
    | Some i -> i
    | None ->
      let i = List.length !lanes in
      lanes := (name, i) :: !lanes;
      i
  in
  let items = List.rev items in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start_s) infinity items in
  let slices =
    List.map
      (fun s ->
        {
          Vliw_telemetry.Chrome_trace.lane = lane_id s.lane;
          name = s.name;
          start_us = (s.start_s -. t0) *. 1e6;
          dur_us = s.dur_s *. 1e6;
          args = [ ("layer", s.layer) ];
        })
      items
  in
  let lane_names = List.map (fun (n, i) -> (i, n)) (List.rev !lanes) in
  Vliw_util.Atomic_io.write_file ~path
    (Vliw_telemetry.Chrome_trace.of_spans ~process_name ~lane_names slices)

(* --- child processes ---------------------------------------------------- *)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let status_code = function
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255

(* Run [argv] with stdout and stderr discarded; return its exit code. *)
let run_quiet argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process argv.(0) argv null null null)
  in
  status_code (waitpid_retry pid)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
