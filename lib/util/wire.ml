(* The NDJSON socket layer shared by the daemon, the coordinator, the
   worker and the CLI clients. Every bind, connect, accept, select,
   read and line write on their descriptors happens here, so this is
   the one place where those calls' errors are classified. *)

type endpoint = Socket of string | Tcp of int

let endpoints ~socket ~tcp =
  Option.to_list (Option.map (fun p -> Socket p) socket)
  @ Option.to_list (Option.map (fun p -> Tcp p) tcp)

let endpoint_name = function
  | Socket path -> path
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port

let sockaddr = function
  | Socket path -> Unix.ADDR_UNIX path
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let socket endpoint =
  Unix.socket
    (match endpoint with Socket _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET)
    Unix.SOCK_STREAM 0

let connect endpoint =
  let fd = socket endpoint in
  match Unix.connect fd (sockaddr endpoint) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* Make [path] bindable. Only a socket nobody answers on is removed: a
   live daemon keeps its path, and a regular file is never touched. *)
let claim_path path =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    match connect (Socket path) with
    | probe ->
      Unix.close probe;
      raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> Unix.unlink path)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let listen endpoint =
  (match endpoint with Socket path -> claim_path path | Tcp _ -> ());
  let fd = socket endpoint in
  try
    (match endpoint with
    | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Socket _ -> ());
    Unix.bind fd (sockaddr endpoint);
    Unix.listen fd 16;
    fd
  with e ->
    Unix.close fd;
    raise e

let close_listener endpoint fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match endpoint with
  | Socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* One write(2) per step, so an EINTR never hides how much went out. *)
let write_line fd doc =
  let line = Ndjson.line doc in
  let len = String.length line in
  let rec push off =
    if off < len then
      match Unix.single_write_substring fd line off (len - off) with
      | n -> push (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
  in
  push 0

type conn = { fd : Unix.file_descr; reader : Ndjson.reader; buf : Bytes.t }

let conn ?max_line_bytes fd =
  { fd; reader = Ndjson.reader ?max_line_bytes (); buf = Bytes.create 65536 }

let fd c = c.fd

let accept ?max_line_bytes listener =
  match Unix.accept listener with
  | fd, _ -> Some (conn ?max_line_bytes fd)
  | exception Unix.Unix_error _ -> None

type input =
  | Lines of (Json.t, Ndjson.error) result list
  | Eof of Ndjson.error option
  | Reset

let read c =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> (
    match Ndjson.close c.reader with
    | Some (Error e) -> Eof (Some e)
    | _ -> Eof None)
  | n -> Lines (Ndjson.feed c.reader ~len:n (Bytes.unsafe_to_string c.buf))
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> Lines []
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Reset

type 'a ready = Accept of Unix.file_descr | Readable of 'a

let select ~listeners ~timeout peers =
  let fds = listeners @ List.map (fun (c, _) -> c.fd) peers in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | ready, _, _ ->
    List.filter_map
      (fun fd -> if List.mem fd ready then Some (Accept fd) else None)
      listeners
    @ List.filter_map
        (fun (c, p) -> if List.mem c.fd ready then Some (Readable p) else None)
        peers
