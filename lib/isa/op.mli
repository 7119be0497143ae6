(** VLIW operations.

    The base architecture (VEX / HP-ST Lx family, §5.1 of the paper)
    distinguishes four operation classes. ALU operations may execute in
    any issue slot; memory, multiply and branch operations are restricted
    to fixed slots — this asymmetry is what makes operation-level (SMT)
    merging non-trivial. *)

type op_class =
  | Alu
  | Mul
  | Load
  | Store
  | Branch
  | Copy
      (** Inter-cluster move inserted by the cluster-assignment pass;
          executes in any slot of the source cluster, single-cycle. *)

type t = {
  klass : op_class;
  id : int;  (** Unique id within the enclosing program, for tracing. *)
}

val make : op_class -> int -> t

val is_mem : t -> bool
(** Loads and stores. *)

val class_name : op_class -> string
(** Short mnemonic used in trace dumps ("add", "mpy", "ld", "st", "br"). *)
