type t = Smt | Csmt

let of_char = function 'S' -> Some Smt | 'C' -> Some Csmt | _ -> None
