(* Row checking against the reference interpreter ({!Uc.Interp}) and
   across engines.  Everything here runs outside the timed region and
   outside setup.

   A report row carries the program's print output, its simulated time
   and its meter, but not its arrays.  So each (program, seed, tune,
   engine) is also executed once on a replica through the public
   compile API — same lowering as {!Ucd.Runner}, same engine — whose
   named arrays and scalars are compared with the interpreter's, and
   whose simulated time and meter must equal the row's.  A job fails
   the check when:
   - its status is not [Done];
   - its output lines differ from the interpreter's;
   - the named arrays or scalars of its program differ from the
     interpreter's;
   - its simulated time or meter differ from the replica's, or from
     another row of the same (program, seed, tune) on any engine. *)

type value = Ints of int array | Floats of float array

type observed = {
  output : string list;
  arrays : (string * value) list;
  scalars : (string * Cm.Paris.scalar) list;
}

type replica = {
  seen : observed;
  simsec : float;
  metrics : (string * float) list;
}

type rule = Status | Output | Arrays | Replica | Disagree

let rule_name = function
  | Status -> "status"
  | Output -> "output"
  | Arrays -> "arrays"
  | Replica -> "replica"
  | Disagree -> "engines disagree"

(* The seed is part of the key only for programs that can observe it. *)
let oracle_key (w : Gen.wjob) =
  if Gen.uses_rand w.body then
    Printf.sprintf "%s\000%d" w.body w.job.Ucd.Job.seed
  else w.body

let agree_key (w : Gen.wjob) =
  oracle_key w ^ if w.job.Ucd.Job.tune then "\000tune" else ""

let replica_key (w : Gen.wjob) =
  agree_key w ^ "\000" ^ Ucd.Job.engine_string w.job.Ucd.Job.engine

(* The lowering {!Ucd.Runner} performs for a job. *)
let lower (job : Ucd.Job.t) =
  let ast = Uc.Compile.parse_source job.Ucd.Job.source in
  let layouts =
    if job.Ucd.Job.tune then
      Some
        (Uc.Layoutsel.search ~options:job.Ucd.Job.options
           (Uc.Optimize.fold_program (Uc.Transform.apply ast)))
          .Uc.Layoutsel.table
    else None
  in
  Uc.Compile.lower ?layouts ~options:job.Ucd.Job.options ast

let observe_machine (t : Uc.Compile.t) =
  let c = t.Uc.Compile.compiled in
  {
    output = Uc.Compile.output t;
    arrays =
      List.map
        (fun (name, (m : Uc.Codegen.array_meta)) ->
          ( name,
            match m.Uc.Codegen.aty with
            | Uc.Ast.Tint -> Ints (Uc.Compile.int_array t name)
            | Uc.Ast.Tfloat -> Floats (Uc.Compile.float_array t name) ))
        c.Uc.Codegen.carrays;
    scalars =
      List.map (fun (name, _) -> (name, Uc.Compile.scalar t name)) c.Uc.Codegen.cscalars;
  }

let run_replica (w : Gen.wjob) =
  let job = w.job in
  let t =
    Uc.Compile.run_compiled ~seed:job.Ucd.Job.seed ?fuel:job.Ucd.Job.fuel
      ~engine:job.Ucd.Job.engine (lower job)
  in
  {
    seen = observe_machine t;
    simsec = Uc.Compile.elapsed_seconds t;
    metrics = Cm.Cost.metrics (Uc.Compile.meter t);
  }

(* The interpreter's view of the same names the compiled program
   exposes. *)
let interp (w : Gen.wjob) (names : observed) =
  let prog = Uc.Parser.parse_program w.body in
  ignore (Uc.Sema.check prog);
  let r = Uc.Interp.run ~seed:w.job.Ucd.Job.seed prog in
  {
    output = Uc.Interp.output r;
    arrays =
      List.map
        (fun (name, v) ->
          ( name,
            match v with
            | Ints _ -> Ints (Uc.Interp.int_array r name)
            | Floats _ -> Floats (Uc.Interp.float_array r name) ))
        names.arrays;
    scalars =
      List.map
        (fun (name, _) ->
          ( name,
            match Uc.Interp.scalar r name with
            | Uc.Interp.Vint i -> Cm.Paris.SInt i
            | Uc.Interp.Vfloat f -> Cm.Paris.SFloat f ))
        names.scalars;
  }

(* Floats may differ in the last bits between the interpreter's and the
   machine's reduction order; the repository's own differential tests
   allow 1e-9, and so does this check. *)
let close a b = a = b || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)

let value_eq a b =
  match (a, b) with
  | Ints x, Ints y -> x = y
  | Floats x, Floats y ->
      Array.length x = Array.length y && Array.for_all2 close x y
  | _ -> false

let scalar_eq a b =
  match (a, b) with
  | Cm.Paris.SInt x, Cm.Paris.SInt y -> x = y
  | Cm.Paris.SFloat x, Cm.Paris.SFloat y -> close x y
  | _ -> false

let same_state (a : observed) (b : observed) =
  List.length a.arrays = List.length b.arrays
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && value_eq v1 v2)
       a.arrays b.arrays
  && List.length a.scalars = List.length b.scalars
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && scalar_eq v1 v2)
       a.scalars b.scalars

(* What the check needs of a row, in a few words: a timed run keeps
   one per job, and whole rows kept alive for tens of thousands of jobs
   would grow the heap and slow the very loop being timed. *)
type outcome = {
  status : string option;  (** [None] when [Done] *)
  engine : string;
  output : Digest.t;  (** the print lines *)
  sim : Digest.t;  (** simulated seconds and meter, bit for bit *)
}

let output_digest lines = Digest.string (String.concat "\n" lines)

let sim_digest simsec metrics =
  Digest.string
    (String.concat ";"
       (Printf.sprintf "%h" simsec
       :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) metrics))

let outcome (row : Ucd.Report.result) =
  {
    status =
      (match row.Ucd.Report.status with
      | Ucd.Report.Done -> None
      | Ucd.Report.Failed m -> Some ("failed: " ^ m)
      | Ucd.Report.Timeout _ -> Some "timeout"
      | Ucd.Report.Faulted m -> Some ("faulted: " ^ m));
    engine = row.Ucd.Report.engine;
    output = output_digest row.Ucd.Report.output;
    sim = sim_digest row.Ucd.Report.simulated_seconds row.Ucd.Report.metrics;
  }

type failure = { name : string; rule : rule; detail : string }

(* [expected] maps a job and the replica's observation to the oracle's
   observation; the default is the interpreter.  The planted-bug self
   test substitutes a corrupted one. *)
let check ?(expected = interp) (rows : (Gen.wjob * outcome) list) =
  let memo tbl key f =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
        Hashtbl.replace tbl key v;
        v
  in
  let replicas = Hashtbl.create 64 and oracles = Hashtbl.create 64 in
  let first_row = Hashtbl.create 64 in
  let failures = ref [] in
  List.iter
    (fun ((w : Gen.wjob), (row : outcome)) ->
      let fail rule detail =
        failures := { name = w.job.Ucd.Job.name; rule; detail } :: !failures
      in
      match row.status with
      | Some m -> fail Status m
      | None -> (
          match memo replicas (replica_key w) (fun () -> run_replica w) with
          | Error e -> fail Replica ("replica raised " ^ e)
          | Ok rep -> (
              (match
                 memo oracles (oracle_key w) (fun () -> expected w rep.seen)
               with
              | Error e -> fail Output ("interpreter raised " ^ e)
              | Ok want ->
                  if row.output <> output_digest want.output then
                    fail Output "print output differs from the interpreter"
                  else if not (same_state rep.seen want) then
                    fail Arrays "named arrays or scalars differ from the interpreter");
              if row.sim <> sim_digest rep.simsec rep.metrics then
                fail Replica "simulated time or meter differ from the replica";
              match Hashtbl.find_opt first_row (agree_key w) with
              | None -> Hashtbl.replace first_row (agree_key w) row
              | Some r0 ->
                  if r0.sim <> row.sim || r0.output <> row.output then
                    fail Disagree
                      (Printf.sprintf "%s row differs from the %s row" row.engine
                         r0.engine))))
    rows;
  List.rev !failures

let failed_names failures =
  List.sort_uniq compare (List.map (fun f -> f.name) failures)

(* ---- planted-bug self test ----

   Shows the check goes red on a corrupted expected row and on a
   disagreeing engine row, and stays green on honest rows.  Runs at the
   start of every benchmark run; a gate that cannot fail aborts it. *)
let self_test () =
  let w =
    {
      Gen.job =
        Ucd.Job.make ~engine:`Fast ~name:"selftest"
          ~source:(Uc_programs.Programs.matmul ~n:4) ();
      body = Uc_programs.Programs.matmul ~n:4;
      pop = "selftest";
    }
  in
  let row = Ucd.Runner.run_job ~cache:(Ucd.Cache.create ()) w.job in
  let has rule fs = List.exists (fun f -> f.rule = rule) fs in
  let honest = check [ (w, outcome row) ] in
  let corrupt_expected =
    check
      ~expected:(fun w seen ->
        let good = interp w seen in
        {
          good with
          arrays =
            List.map
              (function
                | n, Ints a ->
                    let a = Array.copy a in
                    a.(0) <- a.(0) + 1;
                    (n, Ints a)
                | nv -> nv)
              good.arrays;
        })
      [ (w, outcome row) ]
  in
  let w2 = { w with job = { w.job with Ucd.Job.engine = `Reference } } in
  let row2 =
    {
      row with
      Ucd.Report.engine = "reference";
      engine_effective = "reference";
      simulated_seconds = row.Ucd.Report.simulated_seconds *. 1.000001;
    }
  in
  let disagreeing = check [ (w, outcome row); (w2, outcome row2) ] in
  let ok =
    honest = [] && has Arrays corrupt_expected && has Disagree disagreeing
  in
  Printf.eprintf
    "self-test: honest rows %s; corrupted expected row %s; disagreeing \
     engine row %s\n%!"
    (if honest = [] then "pass" else "FAIL")
    (if has Arrays corrupt_expected then "caught" else "MISSED")
    (if has Disagree disagreeing then "caught" else "MISSED");
  ok
