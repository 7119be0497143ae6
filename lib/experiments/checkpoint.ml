(* Sweep checkpoint journal.

   One journal records the completed cells of one (mix x scheme) sweep:
   a [meta] header naming the sweep's full configuration and one [cell]
   line per completed (mix, scheme) pair with its row seed, IPC and
   optional telemetry counters. The IPC is stored as the hex image of
   its IEEE-754 bits, so a resumed grid is bit-identical to an
   uninterrupted one — no decimal round-trip.

   Persistence goes through [Vliw_util.Atomic_io] (temp-file +
   rename): a crash mid-save leaves either the previous journal or the
   new one, never a torn file. The journal is rewritten whole on every
   append; sweeps have at most a few hundred cells, so the O(cells)
   rewrite is noise next to a single simulation.

   Degraded cells (exhausted retry budget) are deliberately NOT
   journaled: resuming retries them instead of pinning the failure. *)

type meta = {
  scale : string;
  seed : int64;
  scheme_names : string list;
  mix_names : string list;
  telemetry : bool;
}

type record = {
  mix : string;
  scheme : string;
  row_seed : int64;
  ipc : float;
  attempts : int;
  counters : (string * int) list option;
}

type t = { meta : meta; records : record list }

let create meta = { meta; records = [] }

let add t r = { t with records = t.records @ [ r ] }

let find t ~mix ~scheme =
  List.find_opt (fun r -> r.mix = mix && r.scheme = scheme) t.records

let meta_equal a b =
  a.scale = b.scale && a.seed = b.seed
  && a.scheme_names = b.scheme_names
  && a.mix_names = b.mix_names
  && a.telemetry = b.telemetry

(* --- field encoding --------------------------------------------------

   Names (mixes, schemes, counters) are plain tokens today, but the
   format must not silently corrupt if one ever grows a space or an
   equals sign: every value is percent-encoded outside [A-Za-z0-9_.:/-]. *)

let plain_char c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | ':' | '/' | '-' -> true
  | _ -> false

let encode s =
  if String.for_all plain_char s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if plain_char c then Buffer.add_char buf c
        else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents buf
  end

let decode s =
  if not (String.contains s '%') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '%' && !i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr code)
        | None -> Buffer.add_char buf s.[!i]);
        i := !i + 3
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let names_field names = String.concat "," (List.map encode names)

let parse_names s =
  if s = "" then [] else List.map decode (String.split_on_char ',' s)

let counters_field cs =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (encode k) v) cs)

let parse_counters s =
  if s = "" then Some []
  else
    let parse_one field =
      match String.rindex_opt field ':' with
      | None -> None
      | Some i ->
        let k = decode (String.sub field 0 i) in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        Option.map (fun v -> (k, v)) (int_of_string_opt v)
    in
    let fields = String.split_on_char ',' s in
    let parsed = List.filter_map parse_one fields in
    if List.length parsed = List.length fields then Some parsed else None

(* --- serialization --------------------------------------------------- *)

let magic = "vliwsim-checkpoint v1"

let meta_line m =
  Printf.sprintf "meta scale=%s seed=0x%Lx telemetry=%b schemes=%s mixes=%s"
    (encode m.scale) m.seed m.telemetry
    (names_field m.scheme_names)
    (names_field m.mix_names)

let record_line r =
  let base =
    Printf.sprintf "cell mix=%s scheme=%s seed=0x%Lx ipc=0x%Lx attempts=%d"
      (encode r.mix) (encode r.scheme) r.row_seed
      (Int64.bits_of_float r.ipc)
      r.attempts
  in
  match r.counters with
  | None -> base
  | Some cs -> base ^ " counters=" ^ counters_field cs

let to_string t =
  String.concat "\n"
    ((magic :: meta_line t.meta :: List.map record_line t.records) @ [ "" ])

let save ~path t = Vliw_util.Atomic_io.write_file ~path (to_string t)

(* Parse a "key=value key=value" tail into an assoc list. *)
let parse_fields s =
  String.split_on_char ' ' s
  |> List.filter_map (fun field ->
         match String.index_opt field '=' with
         | None -> None
         | Some i ->
           Some
             ( String.sub field 0 i,
               String.sub field (i + 1) (String.length field - i - 1) ))

let field fields k = List.assoc_opt k fields

let parse_meta line =
  let fields = parse_fields line in
  match (field fields "scale", field fields "seed") with
  | Some scale, Some seed_s ->
    Option.map
      (fun seed ->
        {
          scale = decode scale;
          seed;
          telemetry = field fields "telemetry" = Some "true";
          scheme_names =
            parse_names (Option.value ~default:"" (field fields "schemes"));
          mix_names =
            parse_names (Option.value ~default:"" (field fields "mixes"));
        })
      (Int64.of_string_opt seed_s)
  | _ -> None

let parse_record line =
  let fields = parse_fields line in
  match
    ( field fields "mix",
      field fields "scheme",
      field fields "seed",
      field fields "ipc" )
  with
  | Some mix, Some scheme, Some seed_s, Some ipc_s ->
    (match (Int64.of_string_opt seed_s, Int64.of_string_opt ipc_s) with
    | Some row_seed, Some ipc_bits ->
      Some
        {
          mix = decode mix;
          scheme = decode scheme;
          row_seed;
          ipc = Int64.float_of_bits ipc_bits;
          attempts =
            Option.value ~default:1
              (Option.bind (field fields "attempts") int_of_string_opt);
          counters = Option.bind (field fields "counters") parse_counters;
        }
    | _ -> None)
  | _ -> None

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
    (match String.split_on_char '\n' text with
    | first :: rest when first = magic ->
      let meta = ref None and records = ref [] in
      List.iter
        (fun line ->
          if String.length line > 5 && String.sub line 0 5 = "meta " then
            meta :=
              (match !meta with
              | Some _ as m -> m (* first meta wins *)
              | None -> parse_meta (String.sub line 5 (String.length line - 5)))
          else if String.length line > 5 && String.sub line 0 5 = "cell " then
            (* A malformed cell line (manual edit, disk corruption) is
               dropped rather than fatal: the sweep just re-runs it. *)
            match parse_record (String.sub line 5 (String.length line - 5)) with
            | Some r -> records := r :: !records
            | None -> ())
        rest;
      (match !meta with
      | None -> Error (path ^ ": missing or unparsable meta line")
      | Some meta -> Ok { meta; records = List.rev !records })
    | _ -> Error (path ^ ": not a vliwsim checkpoint (bad magic)"))

(* --- the open journal of a running sweep ----------------------------- *)

type journal = { path : string; mutable state : t }

let open_journal ?(log = fun (_ : string) -> ()) ~resume ~path meta =
  let state =
    if not resume then create meta
    else
      match load ~path with
      | Ok j when meta_equal j.meta meta -> j
      | Ok _ ->
        log
          (path
         ^ ": checkpoint belongs to a different sweep configuration; starting \
            fresh");
        create meta
      | Error msg ->
        if Sys.file_exists path then log (msg ^ "; starting fresh");
        create meta
  in
  (* Persist the header immediately: a kill before the first cell
     completes must still leave a resumable journal behind. *)
  save ~path state;
  { path; state }

let journaled j ~mix ~scheme = find j.state ~mix ~scheme

let append j r =
  if find j.state ~mix:r.mix ~scheme:r.scheme = None then begin
    j.state <- add j.state r;
    save ~path:j.path j.state
  end
