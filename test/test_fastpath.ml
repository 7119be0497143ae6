(* The batched merge kernel against its oracle.

   [Engine.select_batched] drives the production kernel ([Engine.Batch],
   signature lanes and bitwise conflict checks) through a throwaway
   evaluator; [Engine.select_reference] walks the same scheme tree over
   packets with the original list-walking checks (and live routing). The
   properties here pin the two to bit-identical selections over the full
   4-thread design space, both routing modes and all rotations, and pin
   a persistent Batch — what the simulator drives — to the oracle. *)

module Isa = Vliw_isa
module M = Vliw_merge
module Q = QCheck

let m = Isa.Machine.default

let packets_of instrs =
  Array.mapi (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i) instrs

let routing_modes = [ M.Conflict.Flexible; M.Conflict.Fixed_slots ]

let routing_name = function
  | M.Conflict.Flexible -> "flexible"
  | M.Conflict.Fixed_slots -> "fixed"

let same_selection (a : M.Engine.selection) (b : M.Engine.selection) =
  a.issued = b.issued && a.rejected = b.rejected && a.packet = b.packet

let show_selection (s : M.Engine.selection) =
  Printf.sprintf "issued=[%s] rejected=[%s] packet=%s"
    (String.concat ";" (List.map string_of_int s.issued))
    (String.concat ";"
       (List.map
          (fun (r : M.Engine.reject) -> string_of_int r.thread)
          s.rejected))
    (match s.packet with
    | None -> "none"
    | Some p -> Printf.sprintf "threads=%x mask=%x" p.threads p.mask)

(* --- batched = reference, randomized over schemes/avail/rotation ---- *)

let four_thread_space = M.Scheme_space.enumerate 4

(* The batched bit-parallel kernel against the same oracle, over the
   enumerated design space x routings x rotations. *)
let prop_batched_equals_reference =
  Q.Test.make ~name:"select_batched = select_reference (random schemes)"
    ~count:800
    (Q.triple
       (Q.make ~print:string_of_int (Q.Gen.int_bound (List.length four_thread_space - 1)))
       (Tgen.avail_arb 4)
       (Q.make ~print:string_of_int (Q.Gen.int_bound 3)))
    (fun (si, instrs, rotation) ->
      let scheme = List.nth four_thread_space si in
      let avail = packets_of instrs in
      List.for_all
        (fun routing ->
          same_selection
            (M.Engine.select_batched m ~routing scheme ~rotation avail)
            (M.Engine.select_reference m ~routing scheme ~rotation avail))
        routing_modes)

let prop_batched_equals_reference_random_trees =
  Q.Test.make
    ~name:"select_batched = select_reference (random trees, 6 threads)"
    ~count:400
    (Q.pair (Tgen.scheme_arb 6) (Tgen.avail_arb 6))
    (fun (scheme, instrs) ->
      let avail = packets_of instrs in
      List.for_all
        (fun routing ->
          same_selection
            (M.Engine.select_batched m ~routing scheme avail)
            (M.Engine.select_reference m ~routing scheme avail))
        routing_modes)

(* A persistent Batch is what the simulator actually drives: reusing one
   evaluator across eval calls (varying ports and rotations) must keep
   agreeing with the oracle the throwaway surface is pinned to. *)
let prop_batch_reuse_matches =
  Q.Test.make
    ~name:"persistent Batch = select_batched = select_reference across evals"
    ~count:200
    (Q.pair
       (Q.make ~print:string_of_int (Q.Gen.int_bound (List.length four_thread_space - 1)))
       (Q.list_of_size (Q.Gen.return 5) (Q.pair (Tgen.avail_arb 4) (Q.make ~print:string_of_int (Q.Gen.int_bound 3)))))
    (fun (si, inputs) ->
      let scheme = List.nth four_thread_space si in
      List.for_all
        (fun routing ->
          let b = M.Engine.Batch.create m ~routing scheme in
          List.for_all
            (fun (instrs, rotation) ->
              let avail = packets_of instrs in
              M.Engine.Batch.clear b;
              Array.iteri
                (fun i -> Option.iter (M.Engine.Batch.set_port_packet b i))
                avail;
              M.Engine.Batch.eval b ~rotation;
              let oracle =
                M.Engine.select_reference m ~routing scheme ~rotation avail
              in
              let mask threads =
                List.fold_left (fun acc t -> acc lor (1 lsl t)) 0 threads
              in
              let rejects cause =
                mask
                  (List.filter_map
                     (fun (r : M.Engine.reject) ->
                       if r.cause = cause then Some r.thread else None)
                     oracle.rejected)
              in
              (* The packet the simulator's trace rebuilds: the candidates
                 folded in the Batch's union order. *)
              let packet =
                match
                  List.init (M.Engine.Batch.order_len b) (fun k ->
                      Option.get avail.((M.Engine.Batch.order b).(k)))
                with
                | [] -> None
                | p :: rest -> Some (List.fold_left M.Packet.union p rest)
              in
              M.Engine.Batch.issued b = mask oracle.issued
              && M.Engine.Batch.rejected_conflict b
                 = rejects M.Conflict.Cluster_conflict
              && M.Engine.Batch.rejected_capacity b
                 = rejects M.Conflict.Slot_capacity
              && packet = oracle.packet)
            inputs)
        routing_modes)

(* Exhaustive over the design space with a fixed adversarial avail: every
   enumerated 4-thread scheme, both routings, all rotations. *)
let test_batched_equals_reference_exhaustive () =
  let ops klasses = List.mapi (fun i k -> Isa.Op.make k i) klasses in
  let instr_of klass_lists =
    Isa.Instr.of_cluster_ops ~addr:0 (Array.of_list (List.map ops klass_lists))
  in
  let avails =
    [
      (* dense: every thread competes for cluster 0 *)
      [|
        Some (instr_of [ [ Isa.Op.Load; Isa.Op.Alu ]; []; []; [] ]);
        Some (instr_of [ [ Isa.Op.Alu ]; [ Isa.Op.Mul ]; []; [] ]);
        Some (instr_of [ [ Isa.Op.Branch ]; []; [ Isa.Op.Alu ]; [] ]);
        Some (instr_of [ [ Isa.Op.Alu; Isa.Op.Alu ]; []; []; [ Isa.Op.Store ] ]);
      |];
      (* sparse with stalls *)
      [|
        None;
        Some (instr_of [ []; [ Isa.Op.Alu ]; []; [] ]);
        None;
        Some (instr_of [ []; [ Isa.Op.Mul; Isa.Op.Alu ]; []; [] ]);
      |];
      (* one live port, and none: the closed form skips the walk *)
      [|
        None;
        None;
        Some (instr_of [ [ Isa.Op.Load; Isa.Op.Alu ]; [ Isa.Op.Mul ]; []; [] ]);
        None;
      |];
      [| None; None; None; None |];
      (* nop-only packets merge with anything *)
      [|
        Some (Isa.Instr.make ~clusters:4 ~addr:0);
        Some (instr_of [ [ Isa.Op.Alu ]; [ Isa.Op.Alu ]; [ Isa.Op.Alu ]; [ Isa.Op.Alu ] ]);
        Some (Isa.Instr.make ~clusters:4 ~addr:0);
        None;
      |];
    ]
  in
  let checked = ref 0 in
  List.iter
    (fun scheme ->
      List.iter
        (fun instrs ->
          let avail = packets_of instrs in
          List.iter
            (fun routing ->
              for rotation = 0 to 3 do
                let batched =
                  M.Engine.select_batched m ~routing scheme ~rotation avail
                in
                let slow =
                  M.Engine.select_reference m ~routing scheme ~rotation avail
                in
                incr checked;
                if not (same_selection batched slow) then
                  Alcotest.failf "%s, %s, rot %d:\nbatched %s\nref     %s"
                    (M.Scheme.to_string scheme) (routing_name routing) rotation
                    (show_selection batched) (show_selection slow)
              done)
            routing_modes)
        avails)
    four_thread_space;
  Alcotest.(check bool) "covered the space" true (!checked > 1000)

(* The oracle itself cannot tell a scheme from its canonical form: the
   flattening Batch evaluates is exact on the literal tree walk too. *)
let prop_reference_canonical =
  Q.Test.make ~name:"select_reference s = select_reference (canonical s)"
    ~count:300
    (Q.pair (Tgen.scheme_arb 6) (Tgen.avail_arb 6))
    (fun (scheme, instrs) ->
      let avail = packets_of instrs in
      let canonical = M.Scheme.canonical scheme in
      List.for_all
        (fun routing ->
          List.for_all
            (fun rotation ->
              same_selection
                (M.Engine.select_reference m ~routing scheme ~rotation avail)
                (M.Engine.select_reference m ~routing canonical ~rotation avail))
            [ 0; 1; 2; 3; 4; 5 ])
        routing_modes)

(* --- guard-bit capacity check --------------------------------------- *)

(* Every machine shape the suite builds. *)
let machines =
  [
    m;
    Isa.Machine.make ~clusters:4 ~issue_width:2 ~n_lsu:1 ~n_mul:1 ~n_branch:0 ();
    Isa.Machine.make ~clusters:2 ~issue_width:3 ~n_mul:1 ();
    Isa.Machine.make ~n_mul:0 ();
    Isa.Machine.make ~clusters:2 ();
    Isa.Machine.make ~clusters:2 ~issue_width:8 ~n_mul:3 ();
  ]

let pack mem mul branch total =
  mem lor (mul lsl 15) lor (branch lsl 30) lor (total lsl 45)

let guard_fits machine w =
  (w + Isa.Instr.fits_bias machine) land Isa.Instr.fits_guard = 0

(* Exhaustive over small field values (where every limit sits), plus
   each field at its extremes below 2^14 with the others anywhere. *)
let test_guard_bits_exhaustive () =
  let edge = [ 0; 1; 2; 3; 4; 5; 8; 9; 0x1000; 0x3FFE; 0x3FFF ] in
  List.iter
    (fun machine ->
      let check w =
        if guard_fits machine w <> Isa.Instr.packed_fits machine w then
          Alcotest.failf "%s: word %x" (Format.asprintf "%a" Isa.Machine.pp machine) w
      in
      for mem = 0 to 11 do
        for mul = 0 to 11 do
          for branch = 0 to 11 do
            for total = 0 to 11 do
              check (pack mem mul branch total)
            done
          done
        done
      done;
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              List.iter
                (fun c -> List.iter (fun d -> check (pack a b c d)) edge)
                edge)
            edge)
        edge)
    machines

let prop_guard_bits =
  let field = Q.Gen.int_bound 0x3FFF in
  Q.Test.make ~name:"guard-bit fit = packed_fits (fields below 2^14)"
    ~count:2000
    (Q.make Q.Gen.(quad field field field field))
    (fun (a, b, c, d) ->
      let w = pack a b c d in
      List.for_all
        (fun machine -> guard_fits machine w = Isa.Instr.packed_fits machine w)
        machines)

(* --- signatures ----------------------------------------------------- *)

let test_signature_empty () =
  let nop = Isa.Instr.make ~clusters:4 ~addr:0 in
  let sg = Isa.Instr.signature m nop in
  Alcotest.(check int) "empty mask" 0 sg.sg_mask;
  Alcotest.(check int) "no ops" 0 sg.sg_ops

let test_signature_shared_id () =
  let instr =
    Isa.Instr.of_cluster_ops ~addr:4096
      [| [ Isa.Op.make Isa.Op.Load 0; Isa.Op.make Isa.Op.Alu 1 ]; []; [ Isa.Op.make Isa.Op.Mul 2 ]; [] |]
  in
  let sg = Isa.Instr.signature m instr in
  Alcotest.(check int) "mask covers clusters 0 and 2" 0b101 sg.sg_mask

let prop_signature_counts_consistent =
  Q.Test.make ~name:"signature counts agree with the op lists" ~count:300
    (Tgen.instr_arb ())
    (fun instr ->
      let sg = Isa.Instr.signature m instr in
      sg.sg_ops = Isa.Instr.op_count instr
      && sg.sg_mem = List.length (Isa.Instr.mem_ops instr)
      && sg.sg_branch = Isa.Instr.has_branch instr
      && sg.sg_mask = Isa.Instr.cluster_mask instr)

(* The fields retirement reads, over every instruction of compiled
   programs: the default machine and a narrow machine whose fixed slots
   leave little room (one LSU, one multiplier, the branch on slot 2). *)
let test_signature_fields_on_programs () =
  let narrow = Isa.Machine.make ~clusters:2 ~issue_width:3 ~n_mul:1 () in
  List.iter
    (fun machine ->
      List.iteri
        (fun k profile ->
          let prog =
            Vliw_compiler.Program.generate ~seed:(Int64.of_int (k + 1)) machine
              profile
          in
          Array.iter
            (fun (b : Vliw_compiler.Program.block) ->
              Array.iter
                (fun instr ->
                  let sg = Isa.Instr.signature machine instr in
                  Alcotest.(check int) "sg_ops" (Isa.Instr.op_count instr)
                    sg.sg_ops;
                  Alcotest.(check int) "sg_mem"
                    (List.length (Isa.Instr.mem_ops instr))
                    sg.sg_mem;
                  Alcotest.(check bool) "sg_branch"
                    (Isa.Instr.has_branch instr) sg.sg_branch)
                b.instrs)
            prog.blocks)
        Vliw_workloads.Benchmarks.all)
    [ m; narrow ]

(* --- routing stays off the per-cycle path --------------------------- *)

let test_no_routing_per_cycle () =
  let profiles = (Vliw_workloads.Mixes.find_exn "LLHH").members in
  let config = Vliw_sim.Config.make (M.Catalog.find_exn "2SC3").scheme in
  M.Routing.reset_calls ();
  let metrics =
    Vliw_sim.Multitask.run config ~seed:11L
      ~schedule:Vliw_sim.Multitask.quick_schedule profiles
  in
  Alcotest.(check bool) "simulated some cycles" true
    (metrics.Vliw_sim.Metrics.cycles > 0);
  (* Signatures are computed at Program.generate time; the per-cycle
     conflict checks are pure integer arithmetic. A single route call
     here means the fast path regressed to re-routing. *)
  Alcotest.(check int) "route calls during simulation" 0 (M.Routing.calls ());
  (* The counter itself works: the fixed-slot reference checks re-route
     each thread's operations on every comparison. *)
  let i =
    Isa.Instr.of_cluster_ops ~addr:0
      [| [ Isa.Op.make Isa.Op.Alu 0 ]; []; []; [] |]
  in
  let avail = packets_of [| Some i; Some i; None; None |] in
  ignore
    (M.Engine.select_reference m ~routing:M.Conflict.Fixed_slots
       (M.Catalog.find_exn "1S").scheme avail
      : M.Engine.selection);
  Alcotest.(check bool) "reference path routes" true (M.Routing.calls () > 0)

(* --- zero-allocation steady state ----------------------------------- *)

(* The step loop must not touch the minor heap once warm, under every
   issue policy (they share the loop), both while nothing observes it
   and with a counter registry attached (event slots, issue histograms
   and exact-sum attribution, but no recording sink): the measured
   minor-word delta over N steps must equal the delta of the
   measurement harness alone (0 steps). Warmup covers cold-start work —
   signatures are already computed at Program.generate time, but cache
   tags, predictor counters and the Batch lanes deserve settling. *)
let test_zero_alloc_steady_state () =
  let scheme = (M.Catalog.find_exn "2SC3").scheme in
  let mix = Vliw_workloads.Mixes.find_exn "LLHH" in
  List.iter
    (fun (policy, counted) ->
      let config = Vliw_sim.Config.make ~policy scheme in
      let rng = Vliw_util.Rng.create 7L in
      let programs =
        List.map
          (fun p ->
            Vliw_compiler.Program.generate
              ~seed:(Vliw_util.Rng.next_int64 rng)
              config.Vliw_sim.Config.machine p)
          mix.members
      in
      let threads =
        Array.of_list
          (List.mapi
             (fun id program ->
               Vliw_sim.Thread_state.create ~id
                 ~seed:(Vliw_util.Rng.next_int64 rng)
                 program)
             programs)
      in
      let mem = Vliw_mem.Mem_system.create config.Vliw_sim.Config.machine in
      let core =
        if counted then
          Vliw_sim.Core.create ~counters:(Vliw_telemetry.Counters.create ())
            config mem
        else Vliw_sim.Core.create config mem
      in
      let n = Vliw_sim.Config.contexts config in
      Vliw_sim.Core.install core
        (Array.init n (fun i ->
             if i < Array.length threads then Some threads.(i) else None));
      for _ = 1 to 10_000 do
        Vliw_sim.Core.step core
      done;
      let delta steps =
        let w0 = Gc.minor_words () in
        for _ = 1 to steps do
          Vliw_sim.Core.step core
        done;
        Gc.minor_words () -. w0
      in
      let harness_only = delta 0 in
      let with_steps = delta 10_000 in
      if with_steps <> harness_only then
        Alcotest.failf
          "%s%s: steady state allocated %.0f minor words over 10k cycles \
           (harness baseline %.0f)"
          (Vliw_sim.Policy.to_string policy)
          (if counted then " with counters" else "")
          (with_steps -. harness_only) harness_only)
    (List.concat_map
       (fun policy -> [ (policy, false); (policy, true) ])
       [ Vliw_sim.Policy.Merged; Vliw_sim.Policy.Imt; Vliw_sim.Policy.default_bmt ])

let suite =
  ( "fastpath",
    [
      Alcotest.test_case "fast = reference, exhaustive space" `Quick
        test_batched_equals_reference_exhaustive;
      Alcotest.test_case "signature of empty instr" `Quick test_signature_empty;
      Alcotest.test_case "signature interning" `Quick test_signature_shared_id;
      Alcotest.test_case "signature fields on compiled programs" `Quick
        test_signature_fields_on_programs;
      Alcotest.test_case "no routing per cycle" `Quick test_no_routing_per_cycle;
      Alcotest.test_case "zero-alloc steady state" `Quick
        test_zero_alloc_steady_state;
      Tgen.to_alcotest prop_batched_equals_reference;
      Tgen.to_alcotest prop_batched_equals_reference_random_trees;
      Tgen.to_alcotest prop_batch_reuse_matches;
      Tgen.to_alcotest prop_reference_canonical;
      Alcotest.test_case "guard-bit fit, exhaustive" `Quick
        test_guard_bits_exhaustive;
      Tgen.to_alcotest prop_guard_bits;
      Tgen.to_alcotest prop_signature_counts_consistent;
    ] )
