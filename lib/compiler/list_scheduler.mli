(** Cycle-driven list scheduler.

    Packs a basic block's DAG into a sequence of VLIW instructions for a
    clustered machine, honouring the BUG cluster assignment, per-cluster
    slot constraints (1 LSU, 2 multipliers, 1 branch slot, issue width)
    and operation latencies. Priority is critical-path height. The
    block-ending branch, when present, is only issued once every other
    operation has been issued (VLIW blocks end with their branch).

    Cycles in which dependence latencies leave nothing ready become
    explicit all-NOP instructions: this is the vertical waste that
    multithreaded merging later fills. *)

val schedule :
  Vliw_isa.Machine.t ->
  Dag.t ->
  assignment:int array ->
  base_addr:int ->
  instr_bytes:int ->
  Vliw_isa.Instr.t array
(** Instruction [i] gets address [base_addr + i * instr_bytes]. *)
