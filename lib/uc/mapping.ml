open Ast

type layout =
  | Default
  | Shifted of int array
  | Folded of int
  | Copied of int

type step =
  | Permute of int array
  | Fold of int
  | Copy of int

type table = (string * layout) list

(* ---------------- layout IR ---------------- *)

let normalize = function
  | Shifted offs when Array.for_all (fun c -> c = 0) offs -> Default
  | Folded 1 -> Default
  | Copied 1 -> Default
  | l -> l

let equal a b =
  match normalize a, normalize b with
  | Default, Default -> true
  | Shifted x, Shifted y ->
      Array.length x = Array.length y && Array.for_all2 Int.equal x y
  | Folded x, Folded y -> x = y
  | Copied x, Copied y -> x = y
  | _ -> false

let steps l =
  match normalize l with
  | Default -> []
  | Shifted offs -> [ Permute offs ]
  | Folded f -> [ Fold f ]
  | Copied m -> [ Copy m ]

(* compose one more mapping step onto an existing layout.  Same-kind
   steps merge (shifts add, folds and copies multiply); the backend
   lays an array out in exactly one way, so cross-kind compositions are
   rejected rather than silently dropped. *)
let compose l step =
  let ok l = Ok (normalize l) in
  match normalize l, step with
  | Default, Permute offs -> ok (Shifted offs)
  | Default, Fold f -> ok (Folded f)
  | Default, Copy m -> ok (Copied m)
  | Shifted a, Permute b when Array.length a = Array.length b ->
      ok (Shifted (Array.mapi (fun k c -> c + b.(k)) a))
  | Shifted _, Permute _ -> Error "permute ranks differ"
  | Folded f, Fold g -> ok (Folded (f * g))
  | Copied m, Copy k -> ok (Copied (m * k))
  | _ ->
      Error
        "unsupported layout composition: an array is permuted, folded or \
         copied, not a mix"

let of_steps ss =
  List.fold_left
    (fun acc s -> Result.bind acc (fun l -> compose l s))
    (Ok Default) ss

let to_string l =
  match normalize l with
  | Default -> "default"
  | Shifted offs ->
      let s =
        Array.to_list offs
        |> List.map (fun c -> if c > 0 then Printf.sprintf "+%d" c else string_of_int c)
        |> String.concat ","
      in
      Printf.sprintf "permute[%s]" s
  | Folded f -> Printf.sprintf "fold by %d" f
  | Copied m -> Printf.sprintf "copy along %d" m

let find table name =
  match List.assoc_opt name table with
  | Some l -> normalize l
  | None -> Default

let canonical table =
  table
  |> List.map (fun (n, l) -> (n, normalize l))
  |> List.filter (fun (_, l) -> l <> Default)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let table_to_string table =
  canonical table
  |> List.map (fun (n, l) -> Printf.sprintf "%s:%s" n (to_string l))
  |> String.concat ";"

let digest table = Digest.to_hex (Digest.string (table_to_string table))

(* ---------------- from the program's map sections ---------------- *)

(* pull the affine offset out of a permute target subscript: i, i+c, i-c *)
let affine_offset e =
  match e.e with
  | Evar _ -> 0
  | Ebin (Add, { e = Evar _; _ }, c) -> Sema.const_eval c
  | Ebin (Sub, { e = Evar _; _ }, c) -> -Sema.const_eval c
  | _ -> Loc.error e.eloc "permute subscripts must be affine (i, i + c, i - c)"

let of_program prog =
  (* global array dims, for validating fold/copy declarations at their
     source location rather than as an Invalid_argument deep inside
     address generation.  Dims that are not compile-time constants are
     skipped (the layout machinery only ever sees constant-dim globals,
     so there is nothing to check). *)
  let global_dims =
    List.concat_map
      (function
        | Tdecl (Dvar (_, ds)) ->
            List.filter_map
              (fun d ->
                match d.ddims with
                | [] -> None
                | dims -> (
                    try Some (d.dname, List.map Sema.const_eval dims)
                    with Loc.Error _ -> None))
              ds
        | _ -> [])
      prog
  in
  let global_scalars =
    List.concat_map
      (function
        | Tdecl (Dvar (_, ds)) ->
            List.filter_map
              (fun d -> if d.ddims = [] then Some d.dname else None)
              ds
        | _ -> [])
      prog
  in
  (* every mapping site, in program order; conflicts are diagnosed after
     the whole program has been scanned so one error names them all *)
  let sites = ref [] in
  let add name loc layout = sites := (name, loc, layout) :: !sites in
  List.iter
    (function
      | Tmap m ->
          List.iter
            (fun mapping ->
              match mapping with
              | Mpermute pm ->
                  let offs =
                    Array.of_list (List.map affine_offset pm.ptsubs)
                  in
                  if Array.exists (fun c -> c <> 0) offs then
                    add pm.ptarget pm.mloc (Shifted offs)
                  (* a zero-offset permute is the default layout *)
              | Mfold (name, factor, loc) ->
                  if List.mem name global_scalars then
                    Loc.error loc
                      "cannot fold scalar %s: fold needs an array with a \
                       leading dimension"
                      name;
                  if factor <= 0 then
                    Loc.error loc "fold factor must be positive (got %d)"
                      factor;
                  (match List.assoc_opt name global_dims with
                  | Some (d0 :: _) when d0 mod factor <> 0 ->
                      Loc.error loc
                        "fold factor %d does not divide the leading \
                         dimension %d of array %s"
                        factor d0 name
                  | _ -> ());
                  add name loc (Folded factor)
              | Mcopy (name, n, loc) ->
                  let count = Sema.const_eval n in
                  if List.mem name global_scalars then
                    Loc.error loc "cannot copy scalar %s: copy needs an array"
                      name;
                  if count < 1 then
                    Loc.error loc "copy count must be at least 1 (got %d)"
                      count;
                  add name loc (Copied count))
            m.mmappings
      | Tdecl _ | Tfunc _ -> ())
    prog;
  let sites = List.rev !sites in
  let conflicting =
    List.filter_map
      (fun (name, _, _) ->
        match List.filter (fun (n, _, _) -> n = name) sites with
        | _ :: _ :: _ as dups -> Some (name, dups)
        | _ -> None)
      sites
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  in
  (match conflicting with
  | [] -> ()
  | conflicts ->
      (* report every conflicting site in one pass, with the competing
         layouts, anchored at the first re-mapping site *)
      let describe (name, dups) =
        Printf.sprintf "%s <- %s" name
          (String.concat ", "
             (List.map
                (fun (_, loc, l) ->
                  Format.asprintf "%s at %a" (to_string l) Loc.pp loc)
                dups))
      in
      let first_dup_loc =
        let seen = Hashtbl.create 8 in
        let rec go = function
          | [] -> Loc.dummy
          | (n, loc, _) :: rest ->
              if Hashtbl.mem seen n then loc
              else (Hashtbl.add seen n true; go rest)
        in
        go sites
      in
      Loc.error first_dup_loc
        "conflicting mappings for %d array%s: %s"
        (List.length conflicts)
        (if List.length conflicts = 1 then "" else "s")
        (String.concat "; " (List.map describe conflicts)));
  List.map (fun (name, _, l) -> (name, l)) sites

(* ---------------- back to UC source ---------------- *)

let global_sets prog =
  List.concat_map
    (function
      | Tdecl (Dindexset defs) ->
          List.map (fun def -> (def.set_name, def.elem_name)) defs
      | _ -> [])
    prog

let emit_map_section prog table =
  match canonical table with
  | [] -> None
  | entries ->
      let sets = global_sets prog in
      (match sets with
      | [] ->
          invalid_arg
            "Mapping.emit_map_section: program declares no index sets"
      | _ -> ());
      let set_for_axis k =
        (* cosmetic: spread distinct sets over the axes when there are
           enough, otherwise reuse; any global set is legal here *)
        List.nth sets (min k (List.length sets - 1))
      in
      let dummy_e d = { e = d; eloc = Loc.dummy } in
      let mappings =
        List.map
          (fun (name, l) ->
            match l with
            | Default -> assert false
            | Shifted offs ->
                let axes = Array.to_list (Array.mapi (fun k c -> (k, c)) offs) in
                let pmsets =
                  List.sort_uniq compare
                    (List.map (fun (k, _) -> fst (set_for_axis k)) axes)
                in
                let ptsubs =
                  List.map
                    (fun (k, c) ->
                      let elem = dummy_e (Evar (snd (set_for_axis k))) in
                      if c = 0 then elem
                      else if c > 0 then dummy_e (Ebin (Add, elem, dummy_e (Eint c)))
                      else dummy_e (Ebin (Sub, elem, dummy_e (Eint (-c)))))
                    axes
                in
                let pssubs = List.map (fun (k, _) -> snd (set_for_axis k)) axes in
                Mpermute
                  {
                    pmsets;
                    ptarget = name;
                    ptsubs;
                    psource = name;
                    pssubs;
                    mloc = Loc.dummy;
                  }
            | Folded f -> Mfold (name, f, Loc.dummy)
            | Copied m -> Mcopy (name, dummy_e (Eint m), Loc.dummy))
          entries
      in
      let msets =
        let used =
          List.concat_map
            (function Mpermute pm -> pm.pmsets | _ -> []) mappings
        in
        match List.sort_uniq compare used with
        | [] -> [ fst (List.hd sets) ]
        | us -> us
      in
      Some
        (Format.asprintf "%a" Pretty.pp_program
           [ Tmap { msets; mmappings = mappings } ])

(* ---------------- physical addressing ---------------- *)

let physical_dims layout dims =
  match layout, dims with
  | Default, _ | Shifted _, _ -> dims
  | Folded f, d0 :: rest ->
      if d0 mod f <> 0 then invalid_arg "Mapping.physical_dims: fold factor";
      (d0 / f) :: f :: rest
  | Folded _, [] -> invalid_arg "Mapping.physical_dims: fold of a scalar"
  | Copied m, _ -> m :: dims

let pos_mod x n = ((x mod n) + n) mod n

(* row-major over [dims] and [coords], from axis [k] on, with [acc] the
   index of the axes before it *)
let rec linear_from dims coords k acc =
  if k >= Array.length dims then acc
  else linear_from dims coords (k + 1) ((acc * dims.(k)) + coords.(k))

let physical_index layout dims coords =
  let rank = Array.length dims in
  if Array.length coords <> rank then
    invalid_arg "Mapping.physical_index: rank mismatch";
  match layout with
  | Default | Copied _ (* copy 0 *) -> linear_from dims coords 0 0
  | Shifted offs ->
      let acc = ref 0 in
      for k = 0 to rank - 1 do
        let d = dims.(k) in
        acc := (!acc * d) + pos_mod (coords.(k) - offs.(k)) d
      done;
      !acc
  | Folded f ->
      if rank = 0 then invalid_arg "Mapping.physical_index: fold rank";
      (* the leading axis splits into (x0 mod h, x0 / h), h = d0 / f *)
      let h = dims.(0) / f and c0 = coords.(0) in
      linear_from dims coords 1 (((c0 mod h) * f) + (c0 / h))

let axis_offset layout axis =
  match layout with
  | Shifted offs when axis < Array.length offs -> offs.(axis)
  | _ -> 0
