type ilp_degree = Low | Medium | High

type t = {
  name : string;
  ilp : ilp_degree;
  description : string;
  block_ops_mean : int;
  dag_parallelism : float;
  frac_mem : float;
  frac_mul : float;
  store_frac : float;
  working_set_kb : int;
  seq_frac : float;
  taken_prob : float;
  static_blocks : int;
  hot_frac : float;
  target_ipc_real : float;
  target_ipc_perfect : float;
}

let ilp_letter = function Low -> "L" | Medium -> "M" | High -> "H"

let in_unit x = x >= 0.0 && x <= 1.0

let validate p =
  if p.block_ops_mean < 1 then Error "block_ops_mean must be >= 1"
  else if p.dag_parallelism < 0.5 then Error "dag_parallelism must be >= 0.5"
  else if not (in_unit p.frac_mem && in_unit p.frac_mul) then
    Error "op-mix fractions must lie in [0, 1]"
  else if p.frac_mem +. p.frac_mul > 1.0 then Error "op mix exceeds 1"
  else if not (in_unit p.store_frac && in_unit p.seq_frac) then
    Error "memory fractions must lie in [0, 1]"
  else if not (in_unit p.taken_prob && in_unit p.hot_frac) then
    Error "control fractions must lie in [0, 1]"
  else if p.working_set_kb < 1 then Error "working_set_kb must be >= 1"
  else if p.static_blocks < 1 then Error "static_blocks must be >= 1"
  else Ok ()
