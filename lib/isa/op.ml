type op_class = Alu | Mul | Load | Store | Branch | Copy

type t = { klass : op_class; id : int }

let make klass id = { klass; id }

let is_mem op =
  match op.klass with Load | Store -> true | Alu | Mul | Branch | Copy -> false

let class_name = function
  | Alu -> "add"
  | Mul -> "mpy"
  | Load -> "ld"
  | Store -> "st"
  | Branch -> "br"
  | Copy -> "mov"
