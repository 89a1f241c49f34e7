(* Tests of `--engine native` and `--engine sharded`, the names of the
   retired native and sharded engines.

   [`Native] and [`Sharded n] now run on the fast kernels: such a
   machine must give bit for bit the results of a fast one, resolve to
   [`Fast], and checkpoints must move freely between the names (a
   journal may hold a checkpoint taken under either).  Random programs
   get the same checks in test_engine.ml; these cases pin them on one
   hand-built program. *)

open Cm.Paris

let hex (f : float) = Printf.sprintf "%h" f

(* A little program exercising both kinds, activity contexts, the LCG,
   output, front-end reads and preduce-axis, which needs an outer VP
   set to reduce into. *)
let sample_prog ?(dims = [ 4; 4 ]) () =
  let b = Builder.create "native-sample" in
  let vp = Builder.vpset b (Cm.Geometry.create dims) in
  let rows = Builder.vpset b (Cm.Geometry.create [ List.hd dims ]) in
  let x = Builder.field b ~vpset:vp KInt in
  let y = Builder.field b ~vpset:vp KFloat in
  let rowmax = Builder.field b ~vpset:rows KInt in
  let r0 = Builder.reg b in
  let r1 = Builder.reg b in
  Builder.emit b (Cwith vp);
  Builder.emit b (Region "init");
  Builder.emit b (Pcoord (x, 0));
  Builder.emit b (Pbin (Mul, x, Fld x, Imm (SInt 3)));
  Builder.emit b (Punop (ToFloat, y, Fld x));
  Builder.emit b (Pbin (Add, y, Fld y, Imm (SFloat 0.5)));
  Builder.emit b (Prand (x, Imm (SInt 100)));
  Builder.emit b (Region "mask");
  Builder.emit b Cpush;
  Builder.emit b (Pbin (Lt, x, Fld x, Imm (SInt 50)));
  Builder.emit b (Cand x);
  Builder.emit b (Pmov (x, Imm (SInt 7)));
  Builder.emit b Cpop;
  Builder.emit b (Region "reduce");
  Builder.emit b (Preduce (Add, r0, x));
  Builder.emit b (Preduce_axis (Max, rowmax, x));
  Builder.emit b (Fread (r1, rowmax, Imm (SInt 0)));
  Builder.emit b (Fprint ("sum=", Some (Reg r0)));
  Builder.emit b (Fprint ("rowmax0=", Some (Reg r1)));
  Builder.emit b Halt;
  Builder.finish b

(* Full observable snapshot of an already-run machine: status, every
   register, every field element, output log, region profile and
   simulated time, floats in %h so the comparison is bit-exact. *)
let snapshot (prog : program) status m =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%s\n" status;
  for r = 0 to prog.nregs - 1 do
    match Cm.Machine.reg m r with
    | SInt i -> add "r%d=%d\n" r i
    | SFloat f -> add "r%d=%s\n" r (hex f)
  done;
  Array.iteri
    (fun f (_, kind) ->
      match kind with
      | KInt ->
          Array.iter (fun v -> add " %d" v) (Cm.Machine.field_ints m f);
          add "\n"
      | KFloat ->
          Array.iter (fun v -> add " %s" (hex v)) (Cm.Machine.field_floats m f);
          add "\n")
    prog.fields;
  List.iter (fun l -> add "out %s\n" l) (Cm.Machine.output m);
  List.iter
    (fun (n, s) -> add "region %s=%s\n" n (hex s))
    (Cm.Machine.regions m);
  add "ns=%s\n" (hex (Cm.Machine.meter m).Cm.Cost.elapsed_ns);
  Buffer.contents b

let run_status m =
  match Cm.Machine.run m with
  | () -> "finished"
  | exception Cm.Machine.Error msg -> "error: " ^ msg
  | exception Invalid_argument msg -> "invalid_arg: " ^ msg

let observation engine prog =
  let m = Cm.Machine.create ~seed:7 ~fuel:1_000_000 ~engine prog in
  snapshot prog (run_status m) m

(* ---- execution ---- *)

let test_native_matches_fast () =
  let prog = sample_prog () in
  Alcotest.(check string)
    "native == fast" (observation `Fast prog)
    (observation `Native prog)

let test_checkpoint_alternation () =
  let prog = sample_prog () in
  let straight = observation `Fast prog in
  let engines = [| `Fast; `Native; `Native |] in
  let m = ref (Cm.Machine.create ~seed:7 ~fuel:1_000_000 ~engine:`Native prog) in
  let i = ref 0 in
  let status =
    try
      while Cm.Machine.run_slice !m ~fuel_slice:3 = `More do
        let data = Cm.Machine.checkpoint !m in
        m := Cm.Machine.restore ~engine:engines.(!i mod 3) prog data;
        incr i
      done;
      "finished"
    with Cm.Machine.Error msg -> "error: " ^ msg
  in
  Alcotest.(check string) "sliced native == straight fast" straight
    (snapshot prog status !m)

(* ---- degradation ---- *)

let test_fault_injection_policy () =
  (* a native machine carrying a fault plan resolves to fast and runs
     the plan like a fast one *)
  let prog = sample_prog () in
  let spec =
    match Cm.Fault.parse "seed=1;horizon=40;router=1" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let faults = Cm.Fault.instantiate spec ~attempt:0 in
  let m = Cm.Machine.create ~seed:7 ~engine:`Native ~faults prog in
  Alcotest.(check bool)
    "fault plans run on fast" true
    (Cm.Machine.effective_engine m = `Fast);
  let with_plan engine =
    let m = Cm.Machine.create ~seed:7 ~fuel:1_000_000 ~engine ~faults prog in
    snapshot prog (run_status m) m
  in
  Alcotest.(check string) "native == fast under the plan" (with_plan `Fast)
    (with_plan `Native)

(* ---- sharded ---- *)

let test_sharded_matches_fast () =
  let prog = sample_prog ~dims:[ 48; 48 ] () in
  List.iter
    (fun n ->
      let m = Cm.Machine.create ~engine:(`Sharded n) prog in
      Alcotest.(check bool)
        (Printf.sprintf "sharded:%d resolves to fast" n)
        true
        (Cm.Machine.effective_engine m = `Fast);
      Alcotest.(check string)
        (Printf.sprintf "sharded:%d == fast" n)
        (observation `Fast prog)
        (observation (`Sharded n) prog))
    [ 1; 2; 3; 7 ]

let test_sharded_checkpoint_restores_on_fast () =
  let prog = sample_prog () in
  let straight = observation `Fast prog in
  (* every other checkpoint is taken under sharded:3 and restored on fast *)
  let engines = [| `Fast; `Sharded 3 |] in
  let m = ref (Cm.Machine.create ~seed:7 ~fuel:1_000_000 ~engine:(`Sharded 3) prog) in
  let i = ref 0 in
  let status =
    try
      while Cm.Machine.run_slice !m ~fuel_slice:3 = `More do
        let data = Cm.Machine.checkpoint !m in
        m := Cm.Machine.restore ~engine:engines.(!i mod 2) prog data;
        incr i
      done;
      "finished"
    with Cm.Machine.Error msg -> "error: " ^ msg
  in
  Alcotest.(check string) "sliced sharded:3 == straight fast" straight
    (snapshot prog status !m)

let () =
  Alcotest.run "native"
    [
      ( "execution",
        [
          Alcotest.test_case "native == fast (sample)" `Quick
            test_native_matches_fast;
          Alcotest.test_case "checkpoint alternation" `Quick
            test_checkpoint_alternation;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "fault plans stay on fast" `Quick
            test_fault_injection_policy;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "sharded == fast (sample)" `Quick
            test_sharded_matches_fast;
          Alcotest.test_case "checkpoint under sharded:3 restores on fast"
            `Quick test_sharded_checkpoint_restores_on_fast;
        ] );
    ]
