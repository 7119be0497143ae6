(* The merge network as a first-class runtime object.

   This module bundles everything the per-cycle issue stage needs — the
   scheme tree, the routing mode, the priority-rotation rule and the
   scheme's batched evaluator — behind a handle that can be reconfigured
   mid-simulation.

   Reconfiguration discipline:
   - One Batch per scheme, pooled by scheme structure: switching back to
     a scheme it has already run re-installs its existing evaluator
     instead of compiling a new one.
   - Rotation state is derived, not stored: the caller passes the
     rotation each cycle (the core derives it from the cycle counter),
     so a swap re-seeds priority rotation deterministically — the
     round-robin simply continues from the switch cycle.
   - The handle is single-domain, like the Batch lanes it owns: sweep
     workers must each create their own network. *)

type t = {
  machine : Vliw_isa.Machine.t;
  routing : Conflict.routing_mode;
  n : int;  (* thread ports; fixed for the lifetime of the network *)
  pool : (string, Engine.Batch.t) Hashtbl.t;
      (* scheme structure -> its batched evaluator *)
  mutable name : string;
  mutable scheme : Scheme.t;
  mutable batch : Engine.Batch.t;
}

(* Prefer the catalog name for display (profile tables, telemetry
   events); fall back to the structural rendering for anonymous
   schemes. *)
let display_name scheme =
  match
    List.find_opt
      (fun (e : Catalog.entry) -> Scheme.equal e.scheme scheme)
      Catalog.all
  with
  | Some e -> e.name
  | None -> Scheme.to_string scheme

let validate_scheme scheme =
  match Scheme.validate scheme with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Merge_network: invalid scheme: " ^ msg)

let batch_of t scheme =
  let key = Scheme.to_string scheme in
  match Hashtbl.find_opt t.pool key with
  | Some batch -> batch
  | None ->
    let batch = Engine.Batch.create t.machine ~routing:t.routing scheme in
    Hashtbl.add t.pool key batch;
    batch

let create ?name machine ~routing scheme =
  validate_scheme scheme;
  let name = match name with Some n -> n | None -> display_name scheme in
  let batch = Engine.Batch.create machine ~routing scheme in
  let pool = Hashtbl.create 4 in
  Hashtbl.add pool (Scheme.to_string scheme) batch;
  {
    machine;
    routing;
    n = Scheme.n_threads scheme;
    pool;
    name;
    scheme;
    batch;
  }

let scheme_name t = t.name

let same_scheme t other = Scheme.equal t.scheme other

let reconfigure t ?name scheme =
  if not (same_scheme t scheme) then begin
    validate_scheme scheme;
    if Scheme.n_threads scheme <> t.n then
      invalid_arg
        (Printf.sprintf
           "Merge_network.reconfigure: %d-thread scheme on a %d-port network"
           (Scheme.n_threads scheme) t.n);
    t.batch <- batch_of t scheme;
    t.name <- (match name with Some n -> n | None -> display_name scheme);
    t.scheme <- scheme
  end

(* Priority rotation is a pure function of the cycle counter, so it is
   trivially re-seeded across a reconfiguration. *)
let rotation t ~rotate ~cycle = if rotate then cycle mod t.n else 0

let batch t = t.batch
