type t = {
  compiled : Codegen.compiled;
  machine : Cm.Machine.t;
}

(* The pipeline is exposed in re-enterable stages so callers (Ucd.Cache)
   can memoize intermediate artifacts: parse once, lower once per option
   set, run once per (options, seed, fuel). *)

let parse_source ?(obs = Obs.null) src =
  let prog = Obs.with_span obs "compile.parse" (fun () -> Parser.parse_program src) in
  Obs.with_span obs "compile.sema" (fun () ->
      ignore (Sema.check ~eof:(Loc.end_of src) prog));
  prog

let prepare ?(obs = Obs.null) prog =
  let prog = Obs.with_span obs "compile.transform" (fun () -> Transform.apply prog) in
  Obs.with_span obs "compile.fold" (fun () -> Optimize.fold_program prog)

let lower_prepared ?layouts ?options ?(obs = Obs.null) prog =
  Obs.with_span obs "compile.codegen" (fun () ->
      Codegen.compile ?layouts ?options ~obs prog)

let lower ?layouts ?options ?(obs = Obs.null) prog =
  lower_prepared ?layouts ?options ~obs (prepare ~obs prog)

let compile_source ?layouts ?options ?obs src =
  lower ?layouts ?options ?obs (parse_source ?obs src)

let start_compiled ?cost ?seed ?fuel ?engine ?faults ?obs compiled =
  let machine =
    Cm.Machine.create ?cost ?seed ?fuel ?engine ?faults ?obs
      compiled.Codegen.prog
  in
  { compiled; machine }

let step t ~fuel_slice = Cm.Machine.run_slice t.machine ~fuel_slice
let finished t = Cm.Machine.finished t.machine
let checkpoint t = Cm.Machine.checkpoint t.machine

let restore_compiled ?engine ?faults ?obs compiled data =
  let machine =
    Cm.Machine.restore ?engine ?faults ?obs compiled.Codegen.prog data
  in
  { compiled; machine }

let run_compiled ?cost ?seed ?fuel ?engine ?faults ?obs compiled =
  let t = start_compiled ?cost ?seed ?fuel ?engine ?faults ?obs compiled in
  Cm.Machine.run t.machine;
  t

let run_source ?options ?cost ?seed ?fuel ?engine ?faults ?obs src =
  run_compiled ?cost ?seed ?fuel ?engine ?faults ?obs
    (compile_source ?options ?obs src)

(* "no such name" messages list what does exist, so a CLI typo is a
   one-line fix instead of a round trip through the source *)
let known_names = function
  | [] -> "none"
  | names -> String.concat ", " (List.sort String.compare names)

let meta t name =
  match List.assoc_opt name t.compiled.Codegen.carrays with
  | Some m -> m
  | None ->
      failwith
        (Printf.sprintf "no global array named %S (known arrays: %s)" name
           (known_names (List.map fst t.compiled.Codegen.carrays)))

(* read a field back in logical element order *)
let unscramble (m : Codegen.array_meta) (raw : 'a array) : 'a array =
  let g = Cm.Geometry.create m.Codegen.adims in
  let dims = Array.of_list m.Codegen.adims in
  let coords = Array.make (Array.length dims) 0 in
  Array.init (Cm.Geometry.size g) (fun _ ->
      let v = raw.(Mapping.physical_index m.Codegen.alayout dims coords) in
      Cm.Geometry.next_coords g coords;
      v)

let int_array t name =
  let m = meta t name in
  unscramble m (Cm.Machine.field_ints t.machine m.Codegen.afield)

let float_array t name =
  let m = meta t name in
  unscramble m (Cm.Machine.field_floats t.machine m.Codegen.afield)

let scalar t name =
  match List.assoc_opt name t.compiled.Codegen.cscalars with
  | Some m -> Cm.Machine.reg t.machine m.Codegen.sreg
  | None ->
      failwith
        (Printf.sprintf "no global scalar named %S (known scalars: %s)" name
           (known_names (List.map fst t.compiled.Codegen.cscalars)))

let output t = Cm.Machine.output t.machine
let elapsed_seconds t = Cm.Machine.elapsed_seconds t.machine
let meter t = Cm.Machine.meter t.machine
