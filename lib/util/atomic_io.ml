(* Crash-safe file writes: the temp-file + rename primitive that used to
   live inside [Csv.atomically], promoted to a first-class utility so
   every writer of load-bearing files (CSV exports, checkpoint journals,
   Chrome traces, the run ledger, OpenMetrics textfiles, HTML reports)
   shares one torn-file-safety story.

   A reader of [path] observes either the previous content or the
   complete new content, never a truncated file: the content is written
   to a uniquely named temp file beside [path] and renamed over the
   destination, and rename is atomic on POSIX filesystems. Unique names
   mean two writers of one path never share a temp file; the last rename
   wins whole. If the writer raises, the destination is untouched and
   the temp file is removed; a process killed mid-write leaves at worst
   a stale temp file behind.

   Append-only stores (the run ledger) instead grow in place: one
   O_APPEND write per batch of lines under an fcntl lock on a sidecar
   file, so an append costs O(record), not O(file). *)

let with_file ~path f =
  let tmp, oc =
    Filename.open_temp_file ~perms:0o666
      ~temp_dir:(Filename.dirname path)
      (Filename.basename path ^ ".") ".tmp"
  in
  (match f oc with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

let write_file ~path content =
  with_file ~path (fun oc -> output_string oc content)

(* The lock lives on a sidecar, not on [path]: a rewrite renames a new
   inode over [path], and a lock on the old inode would not exclude a
   writer that opened the new one. *)
let with_lock ~path f =
  let fd =
    Unix.openfile (path ^ ".lock") [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o666
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let rec lock () =
        try Unix.lockf fd Unix.F_LOCK 0
        with Unix.Unix_error (Unix.EINTR, _, _) -> lock ()
      in
      lock ();
      f ())

let chunk = 4096

(* Offset of the last '\n' before offset [before], reading backwards in
   [chunk]-sized pieces; [None] if there is none. *)
let rindex_newline ic ~before =
  let rec go hi =
    if hi <= 0 then None
    else
      let lo = max 0 (hi - chunk) in
      In_channel.seek ic (Int64.of_int lo);
      match In_channel.really_input_string ic (hi - lo) with
      | None -> None
      | Some s -> (
        match String.rindex_opt s '\n' with Some i -> Some (lo + i) | None -> go lo)
  in
  go before

let last_line ~path =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_bin path (fun ic ->
        let size = Int64.to_int (In_channel.length ic) in
        match rindex_newline ic ~before:size with
        | None -> None
        | Some stop ->
          let start =
            match rindex_newline ic ~before:stop with Some i -> i + 1 | None -> 0
          in
          In_channel.seek ic (Int64.of_int start);
          In_channel.really_input_string ic (stop - start))

let append_lines ~path lines =
  let fd =
    Unix.openfile path
      [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o666
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      let torn =
        size > 0
        &&
        let last = Bytes.create 1 in
        ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
        Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n'
      in
      let text =
        String.concat ""
          ((if torn then "\n" else "") :: List.map (fun l -> l ^ "\n") lines)
      in
      ignore (Unix.write_substring fd text 0 (String.length text)))

let append_line ~path line = with_lock ~path (fun () -> append_lines ~path [ line ])
