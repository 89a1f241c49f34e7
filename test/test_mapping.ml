(* Data mappings (paper section 4): permute, fold and copy must never
   change results, only communication behaviour, and reading data back
   must invert the layouts. *)

let check = Alcotest.check
let ints = Alcotest.array Alcotest.int

let interp_run src =
  let prog = Uc.Parser.parse_program src in
  ignore (Uc.Sema.check prog);
  Uc.Interp.run prog

let differential name src =
  let ir = interp_run src in
  let mr = Uc.Compile.run_source src in
  List.iter
    (fun arr ->
      check ints (name ^ "." ^ arr) (Uc.Interp.int_array ir arr)
        (Uc.Compile.int_array mr arr))
    [ "a"; "b" ]

(* ---------------- layout arithmetic ---------------- *)

let test_layout_shifted () =
  let l = Uc.Mapping.Shifted [| 1 |] in
  check (Alcotest.list Alcotest.int) "dims unchanged" [ 8 ]
    (Uc.Mapping.physical_dims l [ 8 ]);
  (* element x lives in slot (x - 1) mod 8 *)
  check Alcotest.int "x=1 at slot 0" 0 (Uc.Mapping.physical_index l [| 8 |] [| 1 |]);
  check Alcotest.int "x=0 wraps to slot 7" 7 (Uc.Mapping.physical_index l [| 8 |] [| 0 |]);
  check Alcotest.int "offset" 1 (Uc.Mapping.axis_offset l 0)

let test_layout_folded () =
  let l = Uc.Mapping.Folded 2 in
  check (Alcotest.list Alcotest.int) "dims" [ 4; 2 ]
    (Uc.Mapping.physical_dims l [ 8 ]);
  (* x -> (x mod 4, x / 4) *)
  check Alcotest.int "x=0" 0 (Uc.Mapping.physical_index l [| 8 |] [| 0 |]);
  check Alcotest.int "x=4 shares VP row with x=0" 1
    (Uc.Mapping.physical_index l [| 8 |] [| 4 |]);
  check Alcotest.int "x=1" 2 (Uc.Mapping.physical_index l [| 8 |] [| 1 |]);
  check Alcotest.int "x=7" 7 (Uc.Mapping.physical_index l [| 8 |] [| 7 |])

let test_layout_copied () =
  let l = Uc.Mapping.Copied 3 in
  check (Alcotest.list Alcotest.int) "dims" [ 3; 8 ]
    (Uc.Mapping.physical_dims l [ 8 ]);
  check Alcotest.int "copy 0" 5 (Uc.Mapping.physical_index l [| 8 |] [| 5 |])

let test_of_program () =
  let src =
    {|
index-set I:i = {0..7};
int a[8], b[8], c[8];
map (I) { permute (I) b[i+1] :- a[i]; fold a by 2; copy c along 3; }
void main() { ; }
|}
  in
  let prog = Uc.Parser.parse_program src in
  ignore (Uc.Sema.check prog);
  let layouts = Uc.Mapping.of_program prog in
  check Alcotest.bool "b shifted" true
    (List.assoc "b" layouts = Uc.Mapping.Shifted [| 1 |]);
  check Alcotest.bool "a folded" true
    (List.assoc "a" layouts = Uc.Mapping.Folded 2);
  check Alcotest.bool "c copied" true
    (List.assoc "c" layouts = Uc.Mapping.Copied 3)

(* bad fold/copy declarations must be rejected at the map-section site
   with a source location, not as an Invalid_argument from address
   arithmetic deep inside codegen.  Sema rejects these earlier with its
   own (stricter) rules; of_program is the backstop for callers that
   skip Sema, so these tests parse but deliberately do not check. *)
let expect_mapping_error name src fragment =
  let prog = Uc.Parser.parse_program src in
  try
    ignore (Uc.Mapping.of_program prog);
    Alcotest.fail (name ^ ": expected Loc.Error")
  with Uc.Loc.Error (_, msg) ->
    check Alcotest.bool
      (Printf.sprintf "%s: %S mentions %S" name msg fragment)
      true
      (Astring.String.is_infix ~affix:fragment msg)

let test_fold_factor_rejected () =
  expect_mapping_error "non-dividing factor"
    {|
index-set I:i = {0..7};
int a[8];
map (I) { fold a by 3; }
void main() { ; }
|}
    "does not divide";
  expect_mapping_error "zero factor"
    {|
index-set I:i = {0..7};
int a[8];
map (I) { fold a by 0; }
void main() { ; }
|}
    "must be positive"

let test_fold_of_scalar_rejected () =
  expect_mapping_error "fold of scalar"
    {|
index-set I:i = {0..7};
int s;
int a[8];
map (I) { fold s by 2; }
void main() { ; }
|}
    "cannot fold scalar"

let test_copy_rejected () =
  expect_mapping_error "copy of scalar"
    {|
index-set I:i = {0..7};
int s;
int a[8];
map (I) { copy s along 3; }
void main() { ; }
|}
    "cannot copy scalar";
  expect_mapping_error "copy count 0"
    {|
index-set I:i = {0..7};
int a[8];
map (I) { copy a along 0; }
void main() { ; }
|}
    "at least 1"

(* ---------------- layout bijection property ---------------- *)

(* Every layout is a bijection from the logical domain onto its image in
   the physical array given by physical_dims: indices stay in range,
   never collide, and (for Copied, whose image is copy 0) exactly fill
   [0, total).  This is what makes result unscrambling well-defined. *)
let layout_gen =
  let open QCheck.Gen in
  let* rank = int_range 1 3 in
  let* dims = list_repeat rank (int_range 1 6) in
  let* layout =
    oneof
      [
        return Uc.Mapping.Default;
        (let* offs = list_repeat rank (int_range (-5) 5) in
         return (Uc.Mapping.Shifted (Array.of_list offs)));
        (let d0 = List.hd dims in
         let divisors =
           List.filter (fun f -> d0 mod f = 0) (List.init d0 (fun i -> i + 1))
         in
         let* f = oneofl divisors in
         return (Uc.Mapping.Folded f));
        (let* m = int_range 1 4 in
         return (Uc.Mapping.Copied m));
      ]
  in
  return (layout, dims)

let layout_print (layout, dims) =
  let l =
    match layout with
    | Uc.Mapping.Default -> "default"
    | Uc.Mapping.Shifted o ->
        Printf.sprintf "shifted [%s]"
          (String.concat ";" (Array.to_list (Array.map string_of_int o)))
    | Uc.Mapping.Folded f -> Printf.sprintf "folded %d" f
    | Uc.Mapping.Copied m -> Printf.sprintf "copied %d" m
  in
  Printf.sprintf "%s of [%s]" l
    (String.concat ";" (List.map string_of_int dims))

let prop_layout_bijection =
  QCheck.Test.make ~count:500 ~name:"layout is a bijection"
    (QCheck.make ~print:layout_print layout_gen)
    (fun (layout, dims) ->
      let total = List.fold_left ( * ) 1 dims in
      let pdims = Uc.Mapping.physical_dims layout dims in
      let ptotal = List.fold_left ( * ) 1 pdims in
      (match layout with
      | Uc.Mapping.Copied m ->
          if ptotal <> m * total then
            QCheck.Test.fail_reportf "copied physical size %d <> %d" ptotal
              (m * total)
      | _ ->
          if ptotal <> total then
            QCheck.Test.fail_reportf "physical size %d <> logical %d" ptotal
              total);
      (* the image is exactly [0, total): in range, no collisions *)
      let g = Cm.Geometry.create dims in
      let hit = Array.make total false in
      for logical = 0 to total - 1 do
        let coords = Cm.Geometry.coords g logical in
        let phys =
          Uc.Mapping.physical_index layout (Array.of_list dims) coords
        in
        if phys < 0 || phys >= total then
          QCheck.Test.fail_reportf "index %d out of range for logical %d" phys
            logical;
        if hit.(phys) then
          QCheck.Test.fail_reportf "collision at physical %d" phys;
        hit.(phys) <- true
      done;
      true)

let test_conflicting_mappings () =
  (* two arrays, each mapped twice: one scan must report both arrays,
     every site, and the competing layouts *)
  let src =
    {|
index-set I:i = {0..7};
int a[8], b[8];
map (I) { fold a by 2; copy a along 3; }
map (I) { permute (I) b[i+1] :- a[i]; fold b by 4; }
void main() { ; }
|}
  in
  let prog = Uc.Parser.parse_program src in
  ignore (Uc.Sema.check prog);
  let contains hay needle =
    Astring.String.is_infix ~affix:needle hay
  in
  try
    ignore (Uc.Mapping.of_program prog);
    Alcotest.fail "expected conflict"
  with Uc.Loc.Error (_, msg) ->
    List.iter
      (fun needle ->
        check Alcotest.bool (Printf.sprintf "message mentions %S" needle) true
          (contains msg needle))
      [
        "2 arrays";
        "a <- ";
        "b <- ";
        "fold by 2";
        "copy along 3";
        "permute[+1]";
        "fold by 4";
      ]

(* ---------------- end-to-end: fold ---------------- *)

let test_fold_differential () =
  differential "folded" (Uc_programs.Programs.folded_pairs ~folded:true ~n:16 ());
  differential "unfolded" (Uc_programs.Programs.folded_pairs ~n:16 ())

let test_fold_same_results_as_unfolded () =
  let m1 = Uc.Compile.run_source (Uc_programs.Programs.folded_pairs ~n:16 ()) in
  let m2 =
    Uc.Compile.run_source (Uc_programs.Programs.folded_pairs ~folded:true ~n:16 ())
  in
  check ints "a" (Uc.Compile.int_array m1 "a") (Uc.Compile.int_array m2 "a");
  check ints "b" (Uc.Compile.int_array m1 "b") (Uc.Compile.int_array m2 "b")

(* ---------------- end-to-end: front-end access ---------------- *)

(* the front end reads and writes a shifted [b] and a folded [a] element
   by element, between parallel writes and reads of both *)
let test_front_end_access () =
  differential "1-D"
    {|
#define N 8
index-set I:i = {0..N-1};
int a[N], b[N];
map (I) { permute (I) b[i+1] :- a[i]; fold a by 2; }
void main() {
  int k;
  par (I) b[i] = 10 * i + 1;
  for (k = 0; k < N; k = k + 1)
    a[k] = b[(k + 3) % N] + k;
  b[0] = a[5] + b[N - 1];
  a[N - 1] = a[2] - b[0];
  par (I) a[i] = a[i] + b[(i + 2) % N];
}
|};
  differential "2-D"
    {|
#define N 4
index-set I:i = {0..N-1}, J:j = {0..N-1};
int a[N][N], b[N][N];
map (I, J) { permute (I, J) b[i+1][j+2] :- a[i][j]; fold a by 2; }
void main() {
  int k, l;
  par (I, J) b[i][j] = 10 * i + j;
  for (k = 0; k < N; k = k + 1)
    for (l = 0; l < N; l = l + 1)
      a[k][l] = b[(k + 1) % N][(l + 3) % N] + k * l;
  b[0][N - 1] = a[3][1] + b[N - 1][0];
  a[N - 1][0] = a[1][2] - b[0][N - 1];
  par (I, J) a[i][j] = a[i][j] + b[(i + 2) % N][j];
}
|}

(* ---------------- end-to-end: copy ---------------- *)

let test_copy_differential () =
  differential "copied"
    (Uc_programs.Programs.copied_broadcast ~copied:true ~n:16 ~copies:4 ());
  differential "uncopied" (Uc_programs.Programs.copied_broadcast ~n:16 ~copies:4 ())

let test_copy_reduces_congestion () =
  (* reading a[i % 4] concentrates fan-in on four elements; replication
     spreads it across the copies *)
  let n = 4096 in
  let time src =
    let t = Uc.Compile.run_source src in
    Uc.Compile.elapsed_seconds t
  in
  let plain =
    time (Uc_programs.Programs.copied_broadcast ~steps:16 ~n ~copies:8 ())
  in
  let copied =
    time
      (Uc_programs.Programs.copied_broadcast ~copied:true ~steps:16 ~n ~copies:8 ())
  in
  check Alcotest.bool
    (Printf.sprintf "copied %.4f < plain %.4f" copied plain)
    true (copied < plain)

let test_copy_write_updates_all_copies () =
  (* after a[2] = 55 on the front end, a later parallel read of a[2] must
     see 55 whichever copy serves it; the second par in the program reads
     after the write, so the differential above already covers it; here we
     additionally check the unscrambled array *)
  let m =
    Uc.Compile.run_source
      (Uc_programs.Programs.copied_broadcast ~copied:true ~n:16 ~copies:4 ())
  in
  check Alcotest.int "a[2] updated" 55 (Uc.Compile.int_array m "a").(2)

let () =
  Alcotest.run "mapping"
    [
      ( "layout arithmetic",
        [
          Alcotest.test_case "shifted" `Quick test_layout_shifted;
          Alcotest.test_case "folded" `Quick test_layout_folded;
          Alcotest.test_case "copied" `Quick test_layout_copied;
          Alcotest.test_case "of_program" `Quick test_of_program;
          Alcotest.test_case "conflicts" `Quick test_conflicting_mappings;
          Alcotest.test_case "bad fold factor" `Quick test_fold_factor_rejected;
          Alcotest.test_case "fold of scalar" `Quick test_fold_of_scalar_rejected;
          Alcotest.test_case "bad copy" `Quick test_copy_rejected;
          QCheck_alcotest.to_alcotest prop_layout_bijection;
        ] );
      ( "fold",
        [
          Alcotest.test_case "differential" `Quick test_fold_differential;
          Alcotest.test_case "same as unfolded" `Quick test_fold_same_results_as_unfolded;
        ] );
      ( "front end",
        [ Alcotest.test_case "shifted and folded access" `Quick test_front_end_access ] );
      ( "copy",
        [
          Alcotest.test_case "differential" `Quick test_copy_differential;
          Alcotest.test_case "less congestion" `Quick test_copy_reduces_congestion;
          Alcotest.test_case "writes update all copies" `Quick
            test_copy_write_updates_all_copies;
        ] );
    ]
