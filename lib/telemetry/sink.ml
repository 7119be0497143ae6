type t = Null | Fn of (cycle:int -> Event.t -> unit)

let null = Null

let enabled = function Null -> false | Fn _ -> true

let emit t ~cycle event =
  match t with Null -> () | Fn f -> f ~cycle event

let fn f = Fn f
