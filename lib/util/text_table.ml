type align = Left | Right | Center

(* Column width in terminal cells, approximated as the number of UTF-8
   scalar values (continuation bytes 0b10xxxxxx don't count). Byte
   length over-pads any label containing a multi-byte character ("µs",
   "×", box-drawing), which skews every column after it. Combining
   marks and double-width CJK are not special-cased — the tables this
   renders never contain them. Equals [String.length] on pure ASCII. *)
let display_width s =
  String.fold_left
    (fun acc c -> if Char.code c land 0xC0 = 0x80 then acc else acc + 1)
    0 s

type row = Cells of string list | Sep

type t = {
  header : string list;
  ncols : int;
  mutable aligns : align list;
  mutable rows : row list; (* reversed *)
}

let default_aligns n = List.init n (fun i -> if i = 0 then Left else Right)

let create ~header =
  let ncols = List.length header in
  { header; ncols; aligns = default_aligns ncols; rows = [] }

let set_aligns t aligns =
  if List.length aligns <> t.ncols then
    invalid_arg "Text_table.set_aligns: arity mismatch";
  t.aligns <- aligns

let add_row t cells =
  if List.length cells <> t.ncols then
    invalid_arg "Text_table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Sep :: t.rows

let add_float_row t label xs =
  add_row t (label :: List.map (Printf.sprintf "%.2f") xs)

let pad align width s =
  let n = display_width s in
  if n >= width then s
  else begin
    let fill = width - n in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
      let left = fill / 2 in
      String.make left ' ' ^ s ^ String.make (fill - left) ' '
  end

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map display_width t.header) in
  let update cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (display_width c)) cells
  in
  List.iter (function Cells c -> update c | Sep -> ()) rows;
  let buf = Buffer.create 256 in
  let emit_cells cells =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i c ->
        let align = List.nth t.aligns i in
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad align widths.(i) c))
      cells;
    Buffer.add_string buf " |\n"
  in
  let emit_sep () =
    Buffer.add_char buf '|';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '|')
      widths;
    Buffer.add_char buf '\n'
  in
  emit_cells t.header;
  emit_sep ();
  List.iter (function Cells c -> emit_cells c | Sep -> emit_sep ()) rows;
  Buffer.contents buf
