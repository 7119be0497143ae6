type entry = { cycle : int; event : Event.t }

type t = {
  buf : entry array;
  mutable next : int;  (* write position *)
  mutable len : int;  (* live entries, <= capacity *)
  mutable dropped : int;
}

let dummy =
  { cycle = -1; event = Event.Issue { threads = []; threads_merged = 0; slots_filled = 0 } }

let create ?(capacity = 65_536) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  { buf = Array.make capacity dummy; next = 0; len = 0; dropped = 0 }

let length t = t.len

let dropped t = t.dropped

let record t ~cycle event =
  let cap = Array.length t.buf in
  if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.buf.(t.next) <- { cycle; event };
  t.next <- (t.next + 1) mod cap

let iter t f =
  let cap = Array.length t.buf in
  let first = (t.next - t.len + cap) mod cap in
  for i = 0 to t.len - 1 do
    f t.buf.((first + i) mod cap)
  done

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let sink t = Sink.fn (fun ~cycle event -> record t ~cycle event)
