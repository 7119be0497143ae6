module Program = Vliw_compiler.Program

type stall_src = Ready | Fetch_stall | Mem_stall | Branch_stall

type t = {
  id : int;
  program : Program.t;
  addr_stream : Vliw_mem.Addr_stream.t;
  ctrl_rng : Vliw_util.Rng.t;
  mutable block : int;
  mutable pc : int;
  mutable resume_at : int;
  mutable pending : Vliw_isa.Instr.t;
      (* physically [no_instr] when nothing is fetched; a sentinel
         instead of an option so fetch/retire never allocate *)
  mutable instrs_retired : int;
  mutable ops_retired : int;
  mutable stall_src : stall_src;
}

let no_instr = Vliw_isa.Instr.make ~clusters:1 ~addr:(-1)

(* 16 MB address region per thread: same cache sets, distinct tags. *)
let region_bytes = 16 * 1024 * 1024

let create ~id ~seed (program : Program.t) =
  let rng = Vliw_util.Rng.create seed in
  let addr_seed = Vliw_util.Rng.next_int64 rng in
  let ctrl_rng = Vliw_util.Rng.split rng in
  {
    id;
    program;
    addr_stream =
      Vliw_mem.Addr_stream.create ~seed:addr_seed
        ~working_set_bytes:(program.profile.working_set_kb * 1024)
        ~seq_frac:program.profile.seq_frac
        ~region_base:((id + 1) * region_bytes);
    ctrl_rng;
    block = program.entry;
    pc = 0;
    resume_at = 0;
    pending = no_instr;
    instrs_retired = 0;
    ops_retired = 0;
    stall_src = Ready;
  }

let next_addr t = Vliw_mem.Addr_stream.next t.addr_stream

let next_taken t =
  Vliw_util.Rng.bernoulli t.ctrl_rng t.program.profile.taken_prob

let current_instr t = t.program.blocks.(t.block).instrs.(t.pc)

let stalled t ~now = now < t.resume_at

let advance_fall_through t =
  let block = t.program.blocks.(t.block) in
  if t.pc + 1 >= Array.length block.instrs then begin
    t.block <- block.fall_through;
    t.pc <- 0
  end
  else t.pc <- t.pc + 1

let jump_taken t ~target =
  t.block <- target;
  t.pc <- 0

let name t = Printf.sprintf "%s#%d" t.program.profile.name t.id
