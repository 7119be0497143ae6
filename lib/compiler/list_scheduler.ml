module Isa = Vliw_isa

type slot_budget = {
  mutable mem : int;
  mutable mul : int;
  mutable branch : int;
  mutable total : int;
}

let fresh_budget (m : Isa.Machine.t) =
  Array.init m.clusters (fun _ ->
      { mem = m.n_lsu; mul = m.n_mul; branch = m.n_branch; total = m.issue_width })

let take budget (klass : Isa.Op.op_class) =
  if budget.total = 0 then false
  else begin
    match klass with
    | Alu | Copy ->
      budget.total <- budget.total - 1;
      true
    | Load | Store ->
      if budget.mem = 0 then false
      else begin
        budget.mem <- budget.mem - 1;
        budget.total <- budget.total - 1;
        true
      end
    | Mul ->
      if budget.mul = 0 then false
      else begin
        budget.mul <- budget.mul - 1;
        budget.total <- budget.total - 1;
        true
      end
    | Branch ->
      if budget.branch = 0 then false
      else begin
        budget.branch <- budget.branch - 1;
        budget.total <- budget.total - 1;
        true
      end
  end

(* An operation class with no capable slot would never become
   schedulable and the cycle loop would not terminate. *)
let check_schedulable (m : Isa.Machine.t) (dag : Dag.t) =
  Array.iter
    (fun (node : Dag.node) ->
      let supported =
        match node.klass with
        | Isa.Op.Load | Isa.Op.Store -> m.n_lsu > 0
        | Isa.Op.Mul -> m.n_mul > 0
        | Isa.Op.Branch -> m.n_branch > 0
        | Isa.Op.Alu | Isa.Op.Copy -> m.issue_width > 0
      in
      if not supported then
        invalid_arg
          (Printf.sprintf
             "List_scheduler.schedule: machine has no slot for %s operations"
             (Isa.Op.class_name node.klass)))
    dag.nodes

(* Control-speculation rules for (possibly multi-branch) regions, in the
   spirit of Trace Scheduling without downward compensation code:

   - a branch may issue only once every non-branch operation with a
     smaller id (architecturally above the exit) has issued;
   - a store may issue only once every branch with a smaller id has
     issued (stores are never speculated above an exit);
   - ALU, multiply, load and copy operations move freely above later
     exits (upward speculation).

   Single-branch blocks degenerate to "the branch goes last". Both rules
   are tracked with ascending watermarks over the (topological) ids. *)
let schedule (m : Isa.Machine.t) (dag : Dag.t) ~assignment ~base_addr ~instr_bytes =
  let n = Dag.size dag in
  if n = 0 then [||]
  else begin
    check_schedulable m dag;
    let first_id = dag.nodes.(0).id in
    let height = Dag.critical_height dag in
    let issue_cycle = Array.make n (-1) in
    let ready_cycle = Array.make n 0 in
    let scheduled = ref 0 in
    (* Watermarks: index (not id) of the smallest unissued non-branch /
       branch node; everything below has issued. *)
    let nb_mark = ref 0 and br_mark = ref 0 in
    let advance_marks () =
      let is_branch i = dag.nodes.(i).klass = Isa.Op.Branch in
      while !nb_mark < n && (is_branch !nb_mark || issue_cycle.(!nb_mark) >= 0) do
        incr nb_mark
      done;
      while !br_mark < n && ((not (is_branch !br_mark)) || issue_cycle.(!br_mark) >= 0)
      do
        incr br_mark
      done
    in
    (* Priority order: critical height descending, id ascending. *)
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = compare height.(b) height.(a) in
        if c <> 0 then c else compare a b)
      order;
    let instrs = ref [] in
    let cycle = ref 0 in
    while !scheduled < n do
      let budget = fresh_budget m in
      let cluster_ops = Array.make m.clusters [] in
      (* One exit per instruction keeps region control flow unambiguous. *)
      let branch_this_cycle = ref false in
      let try_schedule i =
        let node = dag.nodes.(i) in
        if issue_cycle.(i) < 0 && ready_cycle.(i) <= !cycle then begin
          advance_marks ();
          let control_ok =
            match node.klass with
            | Isa.Op.Branch ->
              !nb_mark >= i && !br_mark >= i && not !branch_this_cycle
            | Isa.Op.Store -> !br_mark >= i
            | Isa.Op.Alu | Isa.Op.Copy | Isa.Op.Load | Isa.Op.Mul -> true
          in
          if control_ok then begin
            let c = assignment.(i) in
            if take budget.(c) node.klass then begin
              issue_cycle.(i) <- !cycle;
              cluster_ops.(c) <- Dag.op_of_node node :: cluster_ops.(c);
              if node.klass = Isa.Op.Branch then branch_this_cycle := true;
              incr scheduled
            end
          end
        end
      in
      (* Refresh ready times: an op is ready when every in-region
         predecessor has issued and its latency has elapsed; live-in
         predecessors are available from cycle 0. *)
      Array.iteri
        (fun i (node : Dag.node) ->
          if issue_cycle.(i) < 0 then begin
            let r =
              List.fold_left
                (fun acc p ->
                  let pi = p - first_id in
                  if pi < 0 || pi >= n then acc
                  else if issue_cycle.(pi) < 0 then max_int
                  else
                    max acc
                      (issue_cycle.(pi) + Isa.Machine.latency m dag.nodes.(pi).klass))
                0 node.preds
            in
            ready_cycle.(i) <- r
          end)
        dag.nodes;
      Array.iter try_schedule order;
      let ops = Array.map List.rev cluster_ops in
      let addr = base_addr + (List.length !instrs * instr_bytes) in
      instrs := Isa.Instr.of_cluster_ops ~addr ops :: !instrs;
      incr cycle
    done;
    Array.of_list (List.rev !instrs)
  end
