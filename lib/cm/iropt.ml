(* Dataflow optimizer for the Paris IR.  See iropt.mli for the semantic
   contract.  Every rewrite below is justified against the execution
   semantics in machine.ml: a transformed program must produce the same
   output log, the same final contents of live-out storage, the same LCG
   stream and the same error on faulting programs, on both engines, and
   its simulated elapsed time must never be higher.  The ground rules
   that keep this sound:

   - A machine fault aborts the run, so dataflow facts are conditioned
     on "every instruction so far succeeded" — which holds for every
     instruction that actually executes after it.
   - A rewrite that changes an instruction's mnemonic (Pbin -> Pmov,
     Pget -> Pmov, ...) must prove the original could not fault, because
     fault messages embed the mnemonic.  Operand substitutions keep the
     resolution behavior (including the fault message) identical.
   - Deleting an instruction requires proving it could not fault and
     that its only effect was a dead definition.  Frand/Prand advance
     the shared LCG and are never deleted; Fprint/Region are observable
     and never deleted.
   - Charges: operand shape does not affect an instruction's charge, so
     substitutions are charge-neutral; Pbin -> Pmov and Fbin -> Fmov are
     charge-equal; deletions and router/news -> PE downgrades strictly
     reduce simulated ns.  Hence elapsed time is monotonically
     non-increasing. *)

open Paris

type config = {
  constprop : bool;
  dce : bool;
  peephole : bool;
  get_to_send : bool;
}

let default =
  { constprop = true; dce = true; peephole = true; get_to_send = true }

let off =
  { constprop = false; dce = false; peephole = false; get_to_send = false }

let enabled c = c.constprop || c.dce || c.peephole || c.get_to_send

let config_summary c =
  if not (enabled c) then "off"
  else
    String.concat ","
      (List.filter_map
         (fun (b, n) -> if b then Some n else None)
         [ (c.constprop, "constprop"); (c.dce, "dce");
           (c.get_to_send, "getsend"); (c.peephole, "peephole") ])

let config_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "on" | "all" | "default" -> Ok default
  | "off" | "none" -> Ok off
  | s ->
      let parts =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun t -> t <> "")
      in
      if parts = [] then Error "empty ir-opt pass list"
      else
        List.fold_left
          (fun acc tok ->
            match acc with
            | Error _ -> acc
            | Ok c -> (
                match tok with
                | "constprop" -> Ok { c with constprop = true }
                | "dce" -> Ok { c with dce = true }
                | "peephole" -> Ok { c with peephole = true }
                | "getsend" -> Ok { c with get_to_send = true }
                | t ->
                    Error
                      (Printf.sprintf
                         "unknown ir-opt pass %S (expected \
                          constprop|dce|peephole|getsend)"
                         t)))
          (Ok off) parts

type pass_stats = { pass : string; rewritten : int; removed : int }
type stats = {
  input_instrs : int;
  output_instrs : int;
  passes : pass_stats list;
}

(* ---- folding with the machine's operators ----

   Folds evaluate with Paris's operators, the very functions the
   machine runs, so a folded constant is the value the machine would
   compute.  A fold that raises [Program_error] is abandoned, keeping the
   instruction (and its fault) in place. *)

let is_float_s = function SFloat _ -> true | SInt _ -> false

(* Whether [op ()] yields an operator rather than a fault. *)
let valid op = match op () with _ -> true | exception Program_error _ -> false
let float_op_valid op = valid (fun () -> float_binop op)

(* Machine result of [Pbin (op, d, Imm a, Imm b)] given the dst kind. *)
let pbin_fold op dk a b =
  match dk with
  | KInt when is_cmp op && (is_float_s a || is_float_s b) ->
      SInt (if float_cmp op (to_float a) (to_float b) then 1 else 0)
  | KInt -> SInt (int_binop op (to_int a) (to_int b))
  | KFloat -> SFloat (float_binop op (to_float a) (to_float b))

(* Machine result of [Punop (op, d, Imm a)] given the dst kind. *)
let punop_fold op dk a =
  match (dk, op) with
  | KInt, ToInt -> SInt (int_of_float (to_float a))
  | KInt, _ -> SInt (int_unop op (to_int a))
  | KFloat, _ -> SFloat (float_unop op (to_float a))

(* Bit-exact scalar equality: the differential tests compare state
   bit-exactly, so -0.0 <> 0.0 and NaNs compare by payload. *)
let scalar_eq a b =
  match (a, b) with
  | SInt x, SInt y -> x = y
  | SFloat x, SFloat y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> false

(* Can a reduction-family instruction with this operator fault while
   folding elements?  (Div/Mod fault on a zero element, shifts on an
   out-of-range amount; [identity] raises on non-reducible ops.) *)
let reduce_op_safe op kind =
  match op with
  | Div | Mod | Shl | Shr -> false
  | _ -> (
      match Paris.identity op kind with
      | exception Invalid_argument _ -> false
      | _ -> ( match kind with KInt -> true | KFloat -> float_op_valid op))

let scan_op_safe op kind =
  match op with
  | Any | Div | Mod | Shl | Shr -> false
  | _ -> ( match kind with KInt -> true | KFloat -> float_op_valid op)

(* ---- static facts about a program ---- *)

type facts = {
  n : int;
  nregs : int;
  nflds : int;
  nsets : int;
  fvp : int array;
  fkind : kind array;
  gsize : int array;
  grank : int array;
  gstrides : int array array;
  label_pos : int array; (* label -> index of its Label instr *)
  (* before each instruction, filled by the forward walk: the current
     set (as [st.vp]) and whether its context is provably fully active *)
  vp_at : int array;
  full_at : bool array;
}

(* Validate every register / field / label reference in the code; the
   optimizer refuses to touch a program it cannot fully reason about
   (out-of-range indices would crash the analysis arrays where the
   machine reports a lazy error or crashes on its own terms). *)
let build_facts (p : program) : facts option =
  let n = Array.length p.code in
  let nregs = p.nregs and nflds = Array.length p.fields in
  let nsets = Array.length p.geoms in
  let ok = ref (n > 0) in
  let chk_reg r = if r < 0 || r >= nregs then ok := false in
  let chk_fld f = if f < 0 || f >= nflds then ok := false in
  let chk_op = function
    | Reg r -> chk_reg r
    | Fld f -> chk_fld f
    | Imm _ -> ()
  in
  let label_pos = Array.make (max 1 p.nlabels) (-1) in
  let chk_lbl l = if l < 0 || l >= p.nlabels then ok := false in
  Array.iteri
    (fun i ins ->
      match ins with
      | Fmov (r, a) -> chk_reg r; chk_op a
      | Fbin (_, r, a, b) -> chk_reg r; chk_op a; chk_op b
      | Funop (_, r, a) -> chk_reg r; chk_op a
      | Frand (r, a) -> chk_reg r; chk_op a
      | Fread (r, f, a) -> chk_reg r; chk_fld f; chk_op a
      | Fwrite (f, a, v) -> chk_fld f; chk_op a; chk_op v
      | Jmp l -> chk_lbl l
      | Jz (a, l) | Jnz (a, l) -> chk_op a; chk_lbl l
      | Label l ->
          chk_lbl l;
          if !ok then
            if label_pos.(l) >= 0 then ok := false else label_pos.(l) <- i
      | Halt | Comment _ | Region _ -> ()
      | Fprint (_, a) -> Option.iter chk_op a
      | Pmov (d, a) -> chk_fld d; chk_op a
      | Pbin (_, d, a, b) -> chk_fld d; chk_op a; chk_op b
      | Punop (_, d, a) -> chk_fld d; chk_op a
      | Pcoord (d, _) -> chk_fld d
      | Ptable (d, _) -> chk_fld d
      | Prand (d, a) -> chk_fld d; chk_op a
      | Psel (d, c, a, b) -> chk_fld d; chk_op c; chk_op a; chk_op b
      | Pget (d, s, a) -> chk_fld d; chk_fld s; chk_fld a
      | Psend (d, s, a, _) -> chk_fld d; chk_fld s; chk_fld a
      | Pnews (d, s, _, _) -> chk_fld d; chk_fld s
      | Preduce (_, r, f) -> chk_reg r; chk_fld f
      | Pcount r -> chk_reg r
      | Preduce_axis (_, d, s) -> chk_fld d; chk_fld s
      | Pscan (_, d, s, _) -> chk_fld d; chk_fld s
      | Cwith _ -> () (* the machine validates and we track validity *)
      | Cpush | Cpop | Creset -> ()
      | Cand f -> chk_fld f
      | Cread f -> chk_fld f)
    p.code;
  (* every referenced label must be placed exactly once *)
  Array.iter
    (fun ins ->
      match ins with
      | Jmp l | Jz (_, l) | Jnz (_, l) ->
          if l >= 0 && l < p.nlabels && label_pos.(l) < 0 then ok := false
      | _ -> ())
    p.code;
  Array.iter
    (fun (vp, _) -> if vp < 0 || vp >= nsets then ok := false)
    p.fields;
  if not !ok then None
  else
    Some
      {
        n;
        nregs;
        nflds;
        nsets;
        fvp = Array.map fst p.fields;
        fkind = Array.map snd p.fields;
        gsize = Array.map Geometry.size p.geoms;
        grank = Array.map Geometry.rank p.geoms;
        gstrides = Array.map Geometry.strides p.geoms;
        label_pos;
        vp_at = Array.make n (-2);
        full_at = Array.make n false;
      }

(* ---- control-flow graph ---- *)

type cfg = {
  nblocks : int;
  bstart : int array;
  bend : int array; (* exclusive *)
  succs : int list array;
}

let build_cfg facts (code : instr array) =
  let n = facts.n in
  let is_start = Array.make n false in
  is_start.(0) <- true;
  Array.iteri
    (fun i ins ->
      match ins with
      | Label _ -> is_start.(i) <- true
      | Jmp _ | Jz _ | Jnz _ | Halt ->
          if i + 1 < n then is_start.(i + 1) <- true
      | _ -> ())
    code;
  let nblocks = Array.fold_left (fun a s -> if s then a + 1 else a) 0 is_start in
  let bstart = Array.make nblocks 0 and bend = Array.make nblocks 0 in
  let block_of = Array.make n 0 in
  let b = ref (-1) in
  for i = 0 to n - 1 do
    if is_start.(i) then begin
      incr b;
      bstart.(!b) <- i
    end;
    block_of.(i) <- !b;
    bend.(!b) <- i + 1
  done;
  let succs =
    Array.init nblocks (fun b ->
        let last = code.(bend.(b) - 1) in
        let fall = if bend.(b) < n then [ block_of.(bend.(b)) ] else [] in
        match last with
        | Jmp l -> [ block_of.(facts.label_pos.(l)) ]
        | Jz (_, l) | Jnz (_, l) ->
            fall @ [ block_of.(facts.label_pos.(l)) ]
        | Halt -> []
        | _ -> fall)
  in
  { nblocks; bstart; bend; succs }

(* ---- forward dataflow state ---- *)

type rval = RTop | RConst of scalar | RCopy of int
type fval = FTop | FConst of scalar | FAffine of int * int array | FCopy of int
type ctxv = CtxTop | CtxStack of bool list
(* CtxStack frames, innermost first; [true] = provably fully active. *)

type st = {
  mutable vp : int; (* -2 = none selected yet, -1 = unknown, >= 0 known *)
  regs : rval array;
  flds : fval array;
  ctxs : ctxv array;
}

let entry_state facts =
  {
    vp = -2;
    regs = Array.make facts.nregs (RConst (SInt 0));
    flds =
      Array.map
        (function KInt -> FConst (SInt 0) | KFloat -> FConst (SFloat 0.0))
        facts.fkind;
    ctxs = Array.make facts.nsets (CtxStack [ true ]);
  }

let copy_st st =
  {
    vp = st.vp;
    regs = Array.copy st.regs;
    flds = Array.copy st.flds;
    ctxs = Array.copy st.ctxs;
  }

let rval_eq a b =
  match (a, b) with
  | RTop, RTop -> true
  | RConst x, RConst y -> scalar_eq x y
  | RCopy x, RCopy y -> x = y
  | _ -> false

let fval_eq a b =
  match (a, b) with
  | FTop, FTop -> true
  | FConst x, FConst y -> scalar_eq x y
  | FCopy x, FCopy y -> x = y
  | FAffine (c, k), FAffine (c', k') -> c = c' && k = k'
  | _ -> false

let ctx_eq a b =
  match (a, b) with
  | CtxTop, CtxTop -> true
  | CtxStack x, CtxStack y -> x = y
  | _ -> false

let ctx_join a b =
  match (a, b) with
  | CtxTop, _ | _, CtxTop -> CtxTop
  | CtxStack x, CtxStack y ->
      if List.length x = List.length y then CtxStack (List.map2 ( && ) x y)
      else CtxTop

(* dst := dst ⊔ src; returns whether dst changed *)
let join_into dst src =
  let changed = ref false in
  if dst.vp <> src.vp && dst.vp <> -1 then begin
    dst.vp <- -1;
    changed := true
  end;
  Array.iteri
    (fun i v ->
      if (not (rval_eq dst.regs.(i) v)) && dst.regs.(i) <> RTop then begin
        dst.regs.(i) <- RTop;
        changed := true
      end)
    src.regs;
  Array.iteri
    (fun i v ->
      if (not (fval_eq dst.flds.(i) v)) && dst.flds.(i) <> FTop then begin
        dst.flds.(i) <- FTop;
        changed := true
      end)
    src.flds;
  Array.iteri
    (fun i v ->
      let j = ctx_join dst.ctxs.(i) v in
      if not (ctx_eq j dst.ctxs.(i)) then begin
        dst.ctxs.(i) <- j;
        changed := true
      end)
    src.ctxs;
  !changed

(* ---- state queries and updates ---- *)

let cur_full st =
  st.vp >= 0
  && match st.ctxs.(st.vp) with CtxStack (true :: _) -> true | _ -> false

let reg_const st r = match st.regs.(r) with RConst s -> Some s | _ -> None
let reg_root st r = match st.regs.(r) with RCopy x -> x | _ -> r
let fld_root st f = match st.flds.(f) with FCopy x -> x | _ -> f

(* Scalar value of a front-end operand, if known. *)
let opval st = function
  | Imm s -> Some s
  | Reg r -> reg_const st r
  | Fld _ -> None

let rwrite st r v =
  Array.iteri
    (fun j x ->
      match x with
      | RCopy root when root = r && j <> r -> st.regs.(j) <- RTop
      | _ -> ())
    st.regs;
  st.regs.(r) <- v

let fwrite st f v ~total =
  Array.iteri
    (fun g x ->
      match x with
      | FCopy root when root = f && g <> f -> st.flds.(g) <- FTop
      | _ -> ())
    st.flds;
  st.flds.(f) <- (if total then v else if fval_eq st.flds.(f) v then v else FTop)

(* Per-VP constant of a parallel operand resolved through the machine's
   getter for the given dst kind; None when unknown or faulting. *)
let pconst facts st dk op =
  let coerce s =
    match (dk, s) with
    | KInt, SInt _ -> Some s
    | KInt, SFloat _ -> None (* geti faults *)
    | KFloat, s -> Some (SFloat (to_float s))
  in
  match op with
  | Imm s -> coerce s
  | Reg r -> ( match reg_const st r with Some s -> coerce s | None -> None)
  | Fld f ->
      if st.vp >= 0 && facts.fvp.(f) = st.vp then
        match st.flds.(f) with FConst s -> coerce s | _ -> None
      else None

(* Value written by [Pmov (d, op)]. *)
let pmov_val facts st d op =
  let dk = facts.fkind.(d) in
  match op with
  | Imm _ | Reg _ -> (
      match pconst facts st dk op with Some s -> FConst s | None -> FTop)
  | Fld s ->
      if s = d then FTop (* callers special-case the self-move *)
      else if st.vp >= 0 && facts.fvp.(s) = st.vp && facts.fvp.(d) = st.vp
      then
        let sk = facts.fkind.(s) in
        match st.flds.(s) with
        | FConst c -> (
            match (dk, sk) with
            | KInt, KInt | KFloat, KFloat -> FConst c
            | KFloat, KInt -> FConst (SFloat (to_float c))
            | KInt, KFloat -> FTop (* geti on a float field faults *))
        | FAffine (c0, co) when dk = KInt && sk = KInt -> FAffine (c0, co)
        | FCopy root when sk = dk -> FCopy root
        | FTop when sk = dk -> FCopy s
        | _ -> FTop
      else FTop

(* Affine view (c0 + sum coeff_i * coord_i) of an int parallel operand. *)
let affine_of facts st rank op =
  match op with
  | Imm (SInt c) -> Some (c, Array.make rank 0)
  | Imm (SFloat _) -> None
  | Reg r -> (
      match reg_const st r with
      | Some (SInt c) -> Some (c, Array.make rank 0)
      | _ -> None)
  | Fld f ->
      if st.vp >= 0 && facts.fvp.(f) = st.vp then
        match st.flds.(f) with
        | FAffine (c, k) when Array.length k = rank -> Some (c, k)
        | FConst (SInt c) -> Some (c, Array.make rank 0)
        | _ -> None
      else None

let pbin_affine facts st op d a b =
  if facts.fkind.(d) <> KInt || st.vp < 0 || is_cmp op then None
  else
    let rank = facts.grank.(st.vp) in
    match (affine_of facts st rank a, affine_of facts st rank b) with
    | Some (c1, k1), Some (c2, k2) -> (
        let all0 k = Array.for_all (fun x -> x = 0) k in
        match op with
        | Add -> Some (c1 + c2, Array.map2 ( + ) k1 k2)
        | Sub -> Some (c1 - c2, Array.map2 ( - ) k1 k2)
        | Mul when all0 k1 -> Some (c1 * c2, Array.map (fun x -> c1 * x) k2)
        | Mul when all0 k2 -> Some (c1 * c2, Array.map (fun x -> c2 * x) k1)
        | _ -> None)
    | _ -> None

(* Does this int field provably hold each VP's own linear address? *)
let is_identity_addr facts st addr =
  st.vp >= 0
  && facts.fvp.(addr) = st.vp
  && facts.fkind.(addr) = KInt
  &&
  match st.flds.(addr) with
  | FAffine (0, k) -> k = facts.gstrides.(st.vp)
  | FConst (SInt 0) -> facts.gsize.(st.vp) = 1
  | _ -> false

(* ---- transfer function ----

   Mutates [st] across one (possibly rewritten) instruction, assuming
   the instruction executes without faulting (anything downstream of a
   fault never runs, so over-optimistic facts after a faulting
   instruction are harmless). *)

let transfer facts st ins =
  let wr_total = cur_full st in
  match ins with
  | Label _ | Comment _ | Region _ | Fprint _ | Halt | Jmp _ | Jz _ | Jnz _ ->
      ()
  | Fmov (r, a) -> (
      match a with
      | Imm s -> rwrite st r (RConst s)
      | Reg x ->
          if x <> r then
            rwrite st r
              (match st.regs.(x) with
              | RConst s -> RConst s
              | RCopy root -> RCopy root
              | RTop -> RCopy x)
      | Fld _ -> rwrite st r RTop (* faults *))
  | Fbin (op, r, a, b) ->
      rwrite st r
        (match (opval st a, opval st b) with
        | Some x, Some y -> (
            try RConst (fe_bin op x y) with Program_error _ -> RTop)
        | _ -> RTop)
  | Funop (op, r, a) ->
      rwrite st r
        (match opval st a with
        | Some x -> ( try RConst (fe_unop op x) with Program_error _ -> RTop)
        | None -> RTop)
  | Frand (r, _) -> rwrite st r RTop
  | Fread (r, fld, _) ->
      rwrite st r
        (match st.flds.(fld) with FConst c -> RConst c | _ -> RTop)
  | Fwrite (f, _, _) -> fwrite st f FTop ~total:false
  | Pmov (d, a) ->
      if a <> Fld d then fwrite st d (pmov_val facts st d a) ~total:wr_total
  | Pbin (op, d, a, b) ->
      let dk = facts.fkind.(d) in
      let v =
        match (pconst facts st dk a, pconst facts st dk b) with
        | Some x, Some y -> (
            try FConst (pbin_fold op dk x y) with Program_error _ -> FTop)
        | _ -> (
            match pbin_affine facts st op d a b with
            | Some (c, k) -> FAffine (c, k)
            | None -> FTop)
      in
      fwrite st d v ~total:wr_total
  | Punop (op, d, a) ->
      let dk = facts.fkind.(d) in
      let v =
        match pconst facts st dk a with
        | Some x -> ( try FConst (punop_fold op dk x) with Program_error _ -> FTop)
        | None -> FTop
      in
      fwrite st d v ~total:wr_total
  | Pcoord (d, axis) ->
      let v =
        if
          st.vp >= 0
          && facts.fvp.(d) = st.vp
          && facts.fkind.(d) = KInt
          && axis >= 0
          && axis < facts.grank.(st.vp)
        then begin
          let k = Array.make facts.grank.(st.vp) 0 in
          k.(axis) <- 1;
          FAffine (0, k)
        end
        else FTop
      in
      fwrite st d v ~total:wr_total
  | Ptable (d, tbl) ->
      let v =
        if
          Array.length tbl > 0
          && Array.for_all (fun x -> x = tbl.(0)) tbl
          && facts.fkind.(d) = KInt
        then FConst (SInt tbl.(0))
        else FTop
      in
      fwrite st d v ~total:true
  | Prand (d, _) -> fwrite st d FTop ~total:false
  | Psel (d, c, a, b) ->
      let dk = facts.fkind.(d) in
      let v =
        match opval st c with
        | Some s -> (
            let chosen = if to_float s <> 0.0 then a else b in
            match pconst facts st dk chosen with
            | Some x -> FConst x
            | None -> FTop)
        | None -> (
            (* Fld cond: known only if the cond field is const *)
            match c with
            | Fld f when st.vp >= 0 && facts.fvp.(f) = st.vp -> (
                match st.flds.(f) with
                | FConst s -> (
                    let chosen = if to_float s <> 0.0 then a else b in
                    match pconst facts st dk chosen with
                    | Some x -> FConst x
                    | None -> FTop)
                | _ -> FTop)
            | _ -> FTop)
      in
      fwrite st d v ~total:wr_total
  | Pget (d, _, _) -> fwrite st d FTop ~total:false
  | Psend (d, _, _, _) -> fwrite st d FTop ~total:false
  | Pnews (d, _, _, _) -> fwrite st d FTop ~total:false
  | Preduce (_, r, _) -> rwrite st r RTop
  | Pcount r ->
      rwrite st r
        (if cur_full st then RConst (SInt facts.gsize.(st.vp)) else RTop)
  | Preduce_axis (_, d, _) -> fwrite st d FTop ~total:true
  | Pscan (_, d, _, _) -> fwrite st d FTop ~total:true
  | Cwith v -> st.vp <- (if v >= 0 && v < facts.nsets then v else -1)
  | Cpush ->
      if st.vp >= 0 then
        st.ctxs.(st.vp) <-
          (match st.ctxs.(st.vp) with
          | CtxStack (h :: t) -> CtxStack (h :: h :: t)
          | c -> c)
      else if st.vp = -1 then
        Array.iteri (fun i _ -> st.ctxs.(i) <- CtxTop) st.ctxs
  | Cand _ ->
      if st.vp >= 0 then
        st.ctxs.(st.vp) <-
          (match st.ctxs.(st.vp) with
          | CtxStack (_ :: t) -> CtxStack (false :: t)
          | c -> c)
      else if st.vp = -1 then
        Array.iteri (fun i _ -> st.ctxs.(i) <- CtxTop) st.ctxs
  | Cpop ->
      if st.vp >= 0 then
        st.ctxs.(st.vp) <-
          (match st.ctxs.(st.vp) with
          | CtxStack (_ :: (_ :: _ as t)) -> CtxStack t
          | _ -> CtxTop)
      else if st.vp = -1 then
        Array.iteri (fun i _ -> st.ctxs.(i) <- CtxTop) st.ctxs
  | Creset ->
      if st.vp >= 0 then st.ctxs.(st.vp) <- CtxStack [ true ]
      else if st.vp = -1 then
        Array.iteri (fun i _ -> st.ctxs.(i) <- CtxTop) st.ctxs
  | Cread f ->
      fwrite st f
        (if cur_full st && facts.fkind.(f) = KInt then FConst (SInt 1)
         else FTop)
        ~total:true

(* ---- whole-program forward analysis: in-state per basic block ---- *)

let analyze facts cfg code =
  let ins = Array.init cfg.nblocks (fun _ -> None) in
  ins.(0) <- Some (entry_state facts);
  let work = Queue.create () in
  Queue.add 0 work;
  let pending = Array.make cfg.nblocks false in
  pending.(0) <- true;
  while not (Queue.is_empty work) do
    let b = Queue.take work in
    pending.(b) <- false;
    match ins.(b) with
    | None -> ()
    | Some s0 ->
        let st = copy_st s0 in
        for i = cfg.bstart.(b) to cfg.bend.(b) - 1 do
          transfer facts st code.(i)
        done;
        List.iter
          (fun s ->
            let changed =
              match ins.(s) with
              | None ->
                  ins.(s) <- Some (copy_st st);
                  true
              | Some dst -> join_into dst st
            in
            if changed && not pending.(s) then begin
              pending.(s) <- true;
              Queue.add s work
            end)
          cfg.succs.(b)
  done;
  ins

(* ---- constant/copy propagation + algebraic simplification + the
   get->send conversion (one forward pass over each block) ----

   Substitution safety: an operand substitution must leave the
   instruction's value AND its fault behavior (including the message
   text, which embeds operand field numbers) unchanged.  Hence:
   - FE positions (fe_val): Reg -> Imm of the same scalar is exact.
   - geti positions: Reg -> Imm only for int scalars (a float register
     and a float immediate fault with different messages); field ids
     only when provably on the current set and int-kinded.
   - getf positions: any known scalar; float-ness is preserved so the
     cmp float/int dispatch in Pbin is unchanged.
   - field-id positions: replaced by the copy root only when every
     fault path that would name the id is provably not taken. *)

let subst_fe st op =
  match op with
  | Reg r -> (
      match reg_const st r with
      | Some s -> Imm s
      | None ->
          let root = reg_root st r in
          if root <> r then Reg root else op)
  | _ -> op

let subst_pi facts st op =
  match op with
  | Reg r -> (
      match reg_const st r with
      | Some (SInt _ as s) -> Imm s
      | _ ->
          let root = reg_root st r in
          if root <> r then Reg root else op)
  | Fld f when st.vp >= 0 && facts.fvp.(f) = st.vp && facts.fkind.(f) = KInt
    -> (
      match st.flds.(f) with
      | FConst (SInt _ as s) -> Imm s
      | FCopy root -> Fld root
      | _ -> op)
  | _ -> op

let subst_pf facts st op =
  match op with
  | Reg r -> (
      match reg_const st r with
      | Some s -> Imm s
      | None ->
          let root = reg_root st r in
          if root <> r then Reg root else op)
  | Fld f when st.vp >= 0 && facts.fvp.(f) = st.vp -> (
      match st.flds.(f) with
      | FConst s -> Imm s
      | FCopy root -> Fld root
      | _ -> op)
  | _ -> op

(* Copy-root substitution for a bare field-id position.  [need_cur]
   demands a provable on-current check (positions the machine checks
   with a message naming the id); [kind_eq] demands a kind match with
   the instruction's other field (kind-mismatch messages name both). *)
let froot_if facts st f ~need_cur ~kind_eq =
  let root = fld_root st f in
  if root = f then f
  else if
    ((not need_cur) || (st.vp >= 0 && facts.fvp.(f) = st.vp))
    && match kind_eq with None -> true | Some k -> facts.fkind.(f) = k
  then root
  else f

let geti_safe facts st = function
  | Imm (SInt _) -> true
  | Fld f -> st.vp >= 0 && facts.fvp.(f) = st.vp && facts.fkind.(f) = KInt
  | _ -> false

let getf_safe facts st = function
  | Imm _ | Reg _ -> true
  | Fld f -> st.vp >= 0 && facts.fvp.(f) = st.vp

let resolve_safe facts st dk op =
  match dk with KInt -> geti_safe facts st op | KFloat -> getf_safe facts st op

let combine_ok_for dk cb =
  match dk with
  | KInt -> true
  | KFloat -> (
      match cb with
      | Ccheck | Cover | Cadd | Cmin | Cmax -> true
      | Cor | Cand | Cxor -> false)

(* Rewrite one instruction given the dataflow state before it. *)
let rewrite (config : config) facts st ~getsend ins =
  let cp = config.constprop in
  let sfe op = if cp then subst_fe st op else op in
  let spi op = if cp then subst_pi facts st op else op in
  let spf op = if cp then subst_pf facts st op else op in
  let on_cur d = st.vp >= 0 && facts.fvp.(d) = st.vp in
  (* Communication instructions (pget/psend/pnews) read their source
     and address fields while writing the destination in place, so the
     destination's cells can be observed mid-update and aliasing is
     semantically significant.  A copy-root substitution must neither
     introduce an alias with the destination (the codegen stages an
     explicit copy exactly to break that hazard — `pmov f', f;
     psend f[addr], f'` for a permuted parallel assignment — and
     propagating the copy away would let the send read cells it has
     already overwritten) nor remove one the program already has (an
     aliased operand reads the in-place partial update; its copy root
     would read the pristine values). *)
  let froot_noalias d f ~need_cur ~kind_eq =
    if f = d then f
    else
      let root = froot_if facts st f ~need_cur ~kind_eq in
      if root = d then f else root
  in
  match ins with
  | Fmov (r, a) -> (
      let a = sfe a in
      match a with Reg x when x = r -> Comment "iropt" | _ -> Fmov (r, a))
  | Fbin (op, r, a, b) -> (
      let a = sfe a and b = sfe b in
      match (a, b) with
      | Imm x, Imm y when cp -> (
          try Fmov (r, Imm (fe_bin op x y))
          with Program_error _ -> Fbin (op, r, a, b))
      | _ -> Fbin (op, r, a, b))
  | Funop (op, r, a) -> (
      let a = sfe a in
      match a with
      | Imm x when cp -> (
          try Fmov (r, Imm (fe_unop op x))
          with Program_error _ -> Funop (op, r, a))
      | _ -> Funop (op, r, a))
  | Frand (r, a) -> Frand (r, sfe a)
  | Fread (r, fld, a) -> (
      let a = sfe a in
      match (st.flds.(fld), a) with
      | FConst c, Imm (SInt ad)
        when cp && ad >= 0 && ad < facts.gsize.(facts.fvp.(fld)) ->
          Fmov (r, Imm c)
      | _ -> Fread (r, fld, a))
  | Fwrite (f, a, v) -> Fwrite (f, sfe a, sfe v)
  | Jz (a, l) -> (
      let a = sfe a in
      match a with
      | Imm s when cp -> if truthy s then Comment "iropt" else Jmp l
      | _ -> Jz (a, l))
  | Jnz (a, l) -> (
      let a = sfe a in
      match a with
      | Imm s when cp -> if truthy s then Jmp l else Comment "iropt"
      | _ -> Jnz (a, l))
  | Fprint (s, Some a) -> Fprint (s, Some (sfe a))
  | Pmov (d, a) ->
      Pmov (d, match facts.fkind.(d) with KInt -> spi a | KFloat -> spf a)
  | Pbin (op, d, a, b) -> (
      let dk = facts.fkind.(d) in
      let a, b =
        match dk with
        | KFloat -> (spf a, spf b)
        | KInt -> if is_cmp op then (spf a, spf b) else (spi a, spi b)
      in
      let keep = Pbin (op, d, a, b) in
      if not (cp && on_cur d) then keep
      else
        match (a, b) with
        | Imm x, Imm y -> (
            try Pmov (d, Imm (pbin_fold op dk x y)) with Program_error _ -> keep)
        | _ -> (
            if dk <> KInt || is_cmp op then keep
            else
              (* algebraic identities; the dropped operand is an Imm
                 SInt, which can never fault in a geti position, so the
                 fault behavior of the survivor is unchanged *)
              match (op, a, b) with
              | Add, x, Imm (SInt 0)
              | Add, Imm (SInt 0), x
              | Sub, x, Imm (SInt 0)
              | Mul, x, Imm (SInt 1)
              | Mul, Imm (SInt 1), x
              | Div, x, Imm (SInt 1)
              | Shl, x, Imm (SInt 0)
              | Shr, x, Imm (SInt 0)
              | Bor, x, Imm (SInt 0)
              | Bor, Imm (SInt 0), x
              | Bxor, x, Imm (SInt 0)
              | Bxor, Imm (SInt 0), x ->
                  Pmov (d, x)
              | Mul, x, Imm (SInt 0) when geti_safe facts st x ->
                  Pmov (d, Imm (SInt 0))
              | Mul, Imm (SInt 0), x when geti_safe facts st x ->
                  Pmov (d, Imm (SInt 0))
              | _ -> keep))
  | Punop (op, d, a) -> (
      let dk = facts.fkind.(d) in
      let a =
        match (dk, op) with
        | KInt, ToInt -> spf a
        | KInt, _ -> spi a
        | KFloat, _ -> spf a
      in
      match a with
      | Imm x when cp && on_cur d -> (
          try Pmov (d, Imm (punop_fold op dk x))
          with Program_error _ -> Punop (op, d, a))
      | _ -> Punop (op, d, a))
  | Psel (d, c, a, b) -> (
      let dk = facts.fkind.(d) in
      let c = spf c in
      let sub = match dk with KInt -> spi | KFloat -> spf in
      let a = sub a and b = sub b in
      match c with
      | Imm s when cp && on_cur d ->
          let chosen, other = if to_float s <> 0.0 then (a, b) else (b, a) in
          if resolve_safe facts st dk other then Pmov (d, chosen)
          else Psel (d, c, a, b)
      | _ -> Psel (d, c, a, b))
  | Pget (d, s, addr) ->
      let dk = facts.fkind.(d) in
      let s =
        if cp then froot_noalias d s ~need_cur:false ~kind_eq:(Some dk)
        else s
      in
      let addr =
        if cp then froot_noalias d addr ~need_cur:true ~kind_eq:(Some KInt)
        else addr
      in
      if
        config.get_to_send && on_cur d
        && facts.fvp.(s) = st.vp
        && facts.fkind.(s) = dk
        && is_identity_addr facts st addr
      then begin
        incr getsend;
        Pmov (d, Fld s)
      end
      else Pget (d, s, addr)
  | Psend (d, s, addr, cb) ->
      let dk = facts.fkind.(d) in
      let s =
        if cp then froot_noalias d s ~need_cur:true ~kind_eq:(Some dk)
        else s
      in
      let addr =
        if cp then froot_noalias d addr ~need_cur:true ~kind_eq:(Some KInt)
        else addr
      in
      if
        config.get_to_send && on_cur d
        && facts.fvp.(s) = st.vp
        && facts.fkind.(s) = dk
        && combine_ok_for dk cb
        && is_identity_addr facts st addr
      then begin
        (* identity addresses give fan-in exactly 1: the send degrades
           to a local elementwise move under the same activity mask *)
        incr getsend;
        Pmov (d, Fld s)
      end
      else Psend (d, s, addr, cb)
  | Pnews (d, s, axis, delta) ->
      let dk = facts.fkind.(d) in
      let s =
        if cp then froot_noalias d s ~need_cur:true ~kind_eq:(Some dk)
        else s
      in
      if
        config.peephole && delta = 0 && on_cur d
        && facts.fvp.(s) = st.vp
        && facts.fkind.(s) = dk
        && axis >= 0
        && axis < facts.grank.(st.vp)
      then Pmov (d, Fld s)
      else Pnews (d, s, axis, delta)
  | Prand (d, a) -> Prand (d, sfe a)
  | Preduce (op, r, f) ->
      Preduce
        (op, r, if cp then froot_if facts st f ~need_cur:true ~kind_eq:None
                else f)
  | Pcount r ->
      if cp && cur_full st then Fmov (r, Imm (SInt facts.gsize.(st.vp)))
      else Pcount r
  | Preduce_axis (op, d, s) ->
      Preduce_axis
        ( op,
          d,
          if cp then
            froot_if facts st s ~need_cur:true
              ~kind_eq:(Some facts.fkind.(d))
          else s )
  | Pscan (op, d, s, axis) ->
      Pscan
        ( op,
          d,
          (if cp then
             froot_if facts st s ~need_cur:true
               ~kind_eq:(Some facts.fkind.(d))
           else s),
          axis )
  | Cand f ->
      Cand (if cp then froot_if facts st f ~need_cur:true ~kind_eq:None else f)
  | Cwith v ->
      if config.peephole && st.vp = v then Comment "iropt" else Cwith v
  | Jmp _ | Label _ | Halt | Comment _ | Region _ | Fprint (_, None)
  | Pcoord _ | Ptable _ | Cpush | Cpop | Creset | Cread _ ->
      ins

(* [rewrite], then drop a self-move on the current set: it reads what it
   writes and cannot fault, whichever rewrite (an identity, a
   zero-distance news, an identity-address get) produced it. *)
let rw_instr (config : config) facts st ~getsend ins =
  match rewrite config facts st ~getsend ins with
  | Pmov (d, Fld s)
    when s = d && config.peephole && st.vp >= 0 && facts.fvp.(d) = st.vp ->
      Comment "iropt"
  | ins' -> ins'

(* The forward walk of a sweep: rewrite each reachable instruction
   against the state before it and record that state's [vp_at] /
   [full_at] facts, which peephole and DCE then reuse.  With none of the
   rewriting passes on it only records. *)
let constprop_pass config facts prog =
  let code = Array.copy prog.code in
  let cfg = build_cfg facts code in
  let instates = analyze facts cfg code in
  let rewriting = config.constprop || config.get_to_send || config.peephole in
  let rewritten = ref 0 and getsend = ref 0 in
  for b = 0 to cfg.nblocks - 1 do
    match instates.(b) with
    | None -> () (* unreachable: the peephole pass deletes it *)
    | Some s0 ->
        let st = copy_st s0 in
        for i = cfg.bstart.(b) to cfg.bend.(b) - 1 do
          if rewriting then begin
            let before = !getsend in
            let ins' = rw_instr config facts st ~getsend code.(i) in
            if compare ins' code.(i) <> 0 then begin
              code.(i) <- ins';
              if !getsend = before then incr rewritten
            end
          end;
          facts.vp_at.(i) <- st.vp;
          facts.full_at.(i) <- cur_full st;
          transfer facts st code.(i)
        done
  done;
  ({ prog with code }, !rewritten, !getsend)

(* The elements of [a] at the indices [dead] does not mark. *)
let keep dead a =
  let out = ref [] in
  for i = Array.length a - 1 downto 0 do
    if not dead.(i) then out := a.(i) :: !out
  done;
  Array.of_list !out

(* ---- peephole: jump threading, unreachable code, jump/branch to
   fallthrough, context push/pop cancellation, comment and dead-label
   compaction ----

   No deletion changes the current set or context a surviving
   instruction runs under, except for front-end work inside a cancelled
   push/pop pair, which reads neither; so the walk's facts stay sound
   and carry over, compacted with the code. *)

let peephole_pass facts prog =
  let code = Array.copy prog.code in
  let n = facts.n in
  let vp_at = facts.vp_at in
  let rewritten = ref 0 in
  (* jump threading: a target that leads (through free Label/Comment
     runs) to an unconditional Jmp is retargeted at its destination;
     the skipped instructions are free but cost fe dispatches + fuel *)
  let final_target l0 =
    let seen = Hashtbl.create 8 in
    let rec follow l =
      if Hashtbl.mem seen l then l
      else begin
        Hashtbl.add seen l ();
        let rec skip i =
          if i >= n then None
          else
            match code.(i) with
            | Label _ | Comment _ -> skip (i + 1)
            | Jmp l2 -> Some l2
            | _ -> None
        in
        match skip facts.label_pos.(l) with
        | Some l2 when l2 <> l -> follow l2
        | _ -> l
      end
    in
    follow l0
  in
  Array.iteri
    (fun i ins ->
      match ins with
      | Jmp l ->
          let l' = final_target l in
          if l' <> l then begin
            code.(i) <- Jmp l';
            incr rewritten
          end
      | Jz (a, l) ->
          let l' = final_target l in
          if l' <> l then begin
            code.(i) <- Jz (a, l');
            incr rewritten
          end
      | Jnz (a, l) ->
          let l' = final_target l in
          if l' <> l then begin
            code.(i) <- Jnz (a, l');
            incr rewritten
          end
      | _ -> ())
    code;
  (* reachability from instruction 0 *)
  let reach = Array.make n false in
  let stack = Stack.create () in
  Stack.push 0 stack;
  while not (Stack.is_empty stack) do
    let i = Stack.pop stack in
    if i < n && not reach.(i) then begin
      reach.(i) <- true;
      match code.(i) with
      | Jmp l -> Stack.push facts.label_pos.(l) stack
      | Jz (_, l) | Jnz (_, l) ->
          Stack.push (i + 1) stack;
          Stack.push facts.label_pos.(l) stack
      | Halt -> ()
      | _ -> Stack.push (i + 1) stack
    end
  done;
  let dead = Array.make n false in
  for i = 0 to n - 1 do
    if not reach.(i) then dead.(i) <- true
  done;
  (* jump/branch to fallthrough: only free instructions in between.
     A branch condition may be deleted only when its evaluation cannot
     fault (Reg/Imm: fe_val and truthy are total; Fld always faults). *)
  let only_free_to_label i l =
    let t = facts.label_pos.(l) in
    if t <= i then false
    else begin
      let ok = ref true in
      for j = i + 1 to t do
        (match code.(j) with
        | Label _ | Comment _ -> ()
        | _ -> if not dead.(j) then ok := false)
      done;
      !ok
    end
  in
  for i = 0 to n - 1 do
    if not dead.(i) then
      match code.(i) with
      | Jmp l when only_free_to_label i l -> dead.(i) <- true
      | Jz ((Reg _ | Imm _), l) when only_free_to_label i l ->
          dead.(i) <- true
      | Jnz ((Reg _ | Imm _), l) when only_free_to_label i l ->
          dead.(i) <- true
      | _ -> ()
  done;
  (* cancel a Cpush ... Cpop pair when everything between is front-end
     work (context-independent) plus Cands on the known current set:
     after the Cpop the context is exactly what it was before the
     Cpush, and nothing in between observed it *)
  for i = 0 to n - 1 do
    if (not dead.(i)) && code.(i) = Cpush && vp_at.(i) >= 0 then begin
      let vp = vp_at.(i) in
      let rec scan j cands =
        if j >= n then None
        else if dead.(j) then scan (j + 1) cands
        else
          match code.(j) with
          | Cpop -> Some (j, cands)
          | Cand f when facts.fvp.(f) = vp -> scan (j + 1) (j :: cands)
          | Fmov _ | Fbin _ | Funop _ | Frand _ | Fread _ | Fwrite _
          | Fprint _ | Comment _ | Region _ ->
              scan (j + 1) cands
          | _ -> None
      in
      match scan (i + 1) [] with
      | Some (jpop, cands) ->
          dead.(i) <- true;
          dead.(jpop) <- true;
          List.iter (fun c -> dead.(c) <- true) cands
      | None -> ()
    end
  done;
  (* drop comments, then labels no surviving jump references *)
  Array.iteri
    (fun i ins -> match ins with Comment _ -> dead.(i) <- true | _ -> ())
    code;
  let referenced = Array.make (Array.length facts.label_pos) false in
  Array.iteri
    (fun i ins ->
      if not dead.(i) then
        match ins with
        | Jmp l | Jz (_, l) | Jnz (_, l) -> referenced.(l) <- true
        | _ -> ())
    code;
  Array.iteri
    (fun i ins ->
      match ins with
      | Label l when not referenced.(l) -> dead.(i) <- true
      | _ -> ())
    code;
  let removed = Array.fold_left (fun a d -> if d then a + 1 else a) 0 dead in
  let code = keep dead code in
  let label_pos = Array.make (Array.length facts.label_pos) (-1) in
  Array.iteri
    (fun i ins -> match ins with Label l -> label_pos.(l) <- i | _ -> ())
    code;
  ( { prog with code },
    { facts with
      n = n - removed;
      label_pos;
      vp_at = keep dead vp_at;
      full_at = keep dead facts.full_at },
    !rewritten,
    removed )

(* ---- liveness-based dead-code elimination over registers and
   fields ---- *)

(* Combined variable space: register r -> r, field f -> nregs + f. *)

let op_gen live nregs = function
  | Reg r -> live.(r) <- true
  | Fld f -> live.(nregs + f) <- true
  | Imm _ -> ()

(* live := (live \ kills) ∪ gens across one kept instruction, walking
   backward.  Field kills happen only for provably total writes; a
   masked parallel write is total when the context is provably fully
   active on the known current set. *)
let bw_transfer facts live i ins =
  let nregs = facts.nregs in
  let genop = op_gen live nregs in
  let genf f = live.(nregs + f) <- true in
  let killr r = live.(r) <- false in
  let killf_masked d =
    let vp = facts.vp_at.(i) in
    if vp >= 0 && facts.fvp.(d) = vp && facts.full_at.(i) then
      live.(nregs + d) <- false
  in
  let killf_total d = live.(nregs + d) <- false in
  match ins with
  | Fmov (r, a) -> killr r; genop a
  | Fbin (_, r, a, b) -> killr r; genop a; genop b
  | Funop (_, r, a) -> killr r; genop a
  | Frand (r, a) -> killr r; genop a
  | Fread (r, f, a) -> killr r; genf f; genop a
  | Fwrite (f, a, v) -> genop a; genop v; ignore f (* partial *)
  | Jmp _ | Label _ | Halt | Comment _ | Region _ -> ()
  | Jz (a, _) | Jnz (a, _) -> genop a
  | Fprint (_, a) -> Option.iter genop a
  | Pmov (d, a) -> killf_masked d; genop a
  | Pbin (_, d, a, b) -> killf_masked d; genop a; genop b
  | Punop (_, d, a) -> killf_masked d; genop a
  | Pcoord (d, _) -> killf_masked d
  | Ptable (d, _) -> killf_total d
  | Prand (d, a) -> killf_masked d; genop a
  | Psel (d, c, a, b) -> killf_masked d; genop c; genop a; genop b
  | Pget (d, s, a) -> killf_masked d; genf s; genf a
  | Psend (_, s, a, _) -> genf s; genf a (* dst write is partial *)
  | Pnews (_, s, _, _) -> genf s (* border elements keep old values *)
  | Preduce (_, r, f) -> killr r; genf f
  | Pcount r -> killr r
  | Preduce_axis (_, d, s) -> killf_total d; genf s
  | Pscan (_, d, s, _) -> killf_total d; genf s
  | Cwith _ | Cpush | Cpop | Creset -> ()
  | Cand f -> genf f
  | Cread f -> killf_total f

(* May this instruction be deleted outright, given its only definition
   is dead?  Requires proving it cannot fault (fault identity is
   observable) and has no effect beyond the definition (LCG, output,
   context and control flow are always observable). *)
let removable facts geoms live i ins =
  let nregs = facts.nregs in
  let vp = facts.vp_at.(i) in
  let on_cur f = vp >= 0 && facts.fvp.(f) = vp in
  let rdead r = not live.(r) in
  let fdead f = not live.(nregs + f) in
  let fe_ok = function Imm _ | Reg _ -> true | Fld _ -> false in
  let imm_int = function Imm (SInt _) -> true | _ -> false in
  let geti_ok = function
    | Imm (SInt _) -> true
    | Fld f -> on_cur f && facts.fkind.(f) = KInt
    | Reg _ | Imm (SFloat _) -> false
  in
  let getf_ok = function Imm _ | Reg _ -> true | Fld f -> on_cur f in
  match ins with
  | Fmov (r, a) -> rdead r && fe_ok a
  | Fbin (op, r, a, b) -> (
      rdead r && fe_ok a && fe_ok b
      &&
      match (op, b) with
      | (Div | Mod), Imm (SFloat _) -> true (* float path: total *)
      | (Band | Bor | Bxor), _ -> imm_int a && imm_int b
      | (Shl | Shr), _ -> imm_int a && int_op_total op b
      | _ -> int_op_total op b)
  | Funop (op, r, a) -> (
      rdead r && fe_ok a
      &&
      match op with
      | Neg | Lnot | ToFloat | ToInt | Abs -> true
      | Bnot -> imm_int a)
  | Frand _ | Prand _ -> false (* advance the LCG stream *)
  | Fread (r, f, a) -> (
      rdead r
      &&
      match a with
      | Imm (SInt x) -> x >= 0 && x < facts.gsize.(facts.fvp.(f))
      | _ -> false)
  | Fwrite (f, a, v) ->
      fdead f
      && (match a with
         | Imm (SInt x) -> x >= 0 && x < facts.gsize.(facts.fvp.(f))
         | _ -> false)
      && (match facts.fkind.(f) with
         | KInt -> imm_int v
         | KFloat -> ( match v with Imm _ | Reg _ -> true | Fld _ -> false))
  | Jmp _ | Jz _ | Jnz _ | Label _ | Halt -> false
  | Comment _ | Region _ | Fprint _ -> false
  | Pmov (d, a) ->
      fdead d && on_cur d
      && (match facts.fkind.(d) with KInt -> geti_ok a | KFloat -> getf_ok a)
  | Pbin (op, d, a, b) -> (
      fdead d && on_cur d
      &&
      match facts.fkind.(d) with
      | KInt ->
          if is_cmp op then
            (* both dispatch paths are total for Reg/Imm and on-current
               fields of either kind *)
            getf_ok a && getf_ok b
          else
            geti_ok a && geti_ok b && int_op_total op b
      | KFloat -> float_op_valid op && getf_ok a && getf_ok b)
  | Punop (op, d, a) -> (
      fdead d && on_cur d
      &&
      match (facts.fkind.(d), op) with
      | KInt, ToInt -> getf_ok a
      | KInt, _ -> geti_ok a && valid (fun () -> int_unop op)
      | KFloat, _ -> getf_ok a && valid (fun () -> float_unop op))
  | Pcoord (d, axis) ->
      fdead d && on_cur d
      && facts.fkind.(d) = KInt
      && axis >= 0
      && axis < facts.grank.(vp)
  | Ptable (d, tbl) ->
      fdead d && on_cur d
      && facts.fkind.(d) = KInt
      && Array.length tbl = facts.gsize.(vp)
  | Psel (d, c, a, b) ->
      fdead d && on_cur d && getf_ok c
      &&
      let ok =
        match facts.fkind.(d) with KInt -> geti_ok | KFloat -> getf_ok
      in
      ok a && ok b
  | Pget _ | Psend _ -> false (* address contents can fault the router *)
  | Pnews (d, s, axis, _) ->
      fdead d && on_cur d && on_cur s
      && facts.fkind.(d) = facts.fkind.(s)
      && axis >= 0
      && axis < facts.grank.(vp)
  | Preduce (op, r, f) ->
      rdead r && on_cur f
      && (op = Any (* Any is special-cased with an inf identity *)
         || reduce_op_safe op facts.fkind.(f))
  | Pcount r -> rdead r && vp >= 0
  | Preduce_axis (op, d, s) ->
      fdead d && on_cur s
      && facts.fkind.(d) = facts.fkind.(s)
      && Geometry.is_prefix_of geoms.(facts.fvp.(d)) geoms.(vp)
      && reduce_op_safe op facts.fkind.(s)
  | Pscan (op, d, s, axis) ->
      fdead d && on_cur d && on_cur s
      && facts.fkind.(d) = facts.fkind.(s)
      && axis >= 0
      && axis < facts.grank.(vp)
      && scan_op_safe op facts.fkind.(s)
  | Cwith _ | Cpush | Cand _ | Cpop | Creset -> false
  | Cread f -> fdead f && on_cur f && facts.fkind.(f) = KInt

let dce_pass facts prog ~live_regs ~live_flds =
  let code = Array.copy prog.code in
  let n = facts.n in
  let cfg = build_cfg facts code in
  let nv = facts.nregs + facts.nflds in
  let exit_live = Array.make nv false in
  Array.iteri (fun r b -> if b then exit_live.(r) <- true) live_regs;
  Array.iteri
    (fun f b -> if b then exit_live.(facts.nregs + f) <- true)
    live_flds;
  let is_exit b =
    match code.(cfg.bend.(b) - 1) with
    | Halt -> true
    | Jmp _ -> false
    | _ -> cfg.bend.(b) = n
  in
  let live_out b livein =
    let out = Array.make nv false in
    if is_exit b then Array.blit exit_live 0 out 0 nv;
    List.iter
      (fun s ->
        let li = livein.(s) in
        for v = 0 to nv - 1 do
          if li.(v) then out.(v) <- true
        done)
      cfg.succs.(b);
    out
  in
  (* conservative block-level liveness fixpoint (every instr kept) *)
  let livein = Array.init cfg.nblocks (fun _ -> Array.make nv false) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = cfg.nblocks - 1 downto 0 do
      let live = live_out b livein in
      for i = cfg.bend.(b) - 1 downto cfg.bstart.(b) do
        bw_transfer facts live i code.(i)
      done;
      if live <> livein.(b) then begin
        livein.(b) <- live;
        changed := true
      end
    done
  done;
  (* removal sweep: walk each block backward making deletion decisions
     against the (sound, conservative) fixpoint live sets *)
  let dead = Array.make n false in
  let removed = ref 0 in
  for b = 0 to cfg.nblocks - 1 do
    let live = live_out b livein in
    for i = cfg.bend.(b) - 1 downto cfg.bstart.(b) do
      if removable facts prog.geoms live i code.(i) then begin
        dead.(i) <- true;
        incr removed
      end
      else bw_transfer facts live i code.(i)
    done
  done;
  ({ prog with code = keep dead code }, !removed)

(* ---- the sweep: constprop, peephole, DCE, each once ---- *)

let mask len = function
  | None -> Array.make len true
  | Some l ->
      let a = Array.make len false in
      List.iter (fun x -> if x >= 0 && x < len then a.(x) <- true) l;
      a

let run_impl ~config ?live_out_fields ?live_out_regs prog =
  let input_instrs = Array.length prog.code in
  let cp_rw, gs_rw, ph_rw, ph_rm, dce_rm, out =
    match if enabled config then build_facts prog else None with
    | None -> (0, 0, 0, 0, 0, prog)
    | Some facts ->
        let p, cp_rw, gs_rw = constprop_pass config facts prog in
        let p, facts, ph_rw, ph_rm =
          if config.peephole then peephole_pass facts p else (p, facts, 0, 0)
        in
        let p, dce_rm =
          if config.dce && facts.n > 0 then
            dce_pass facts p
              ~live_regs:(mask prog.nregs live_out_regs)
              ~live_flds:(mask (Array.length prog.fields) live_out_fields)
          else (p, 0)
        in
        (cp_rw, gs_rw, ph_rw, ph_rm, dce_rm, p)
  in
  ( out,
    {
      input_instrs;
      output_instrs = Array.length out.code;
      passes =
        (if not (enabled config) then []
         else
           [
             { pass = "constprop"; rewritten = cp_rw; removed = 0 };
             { pass = "getsend"; rewritten = gs_rw; removed = 0 };
             { pass = "peephole"; rewritten = ph_rw; removed = ph_rm };
             { pass = "dce"; rewritten = 0; removed = dce_rm };
           ]);
    } )

(* Mirror one run's statistics into the scope as "iropt."-prefixed
   counters — the single stats surface `ucc --ir-opt-stats` reads. *)
let publish_stats obs (s : stats) =
  if Obs.enabled obs then begin
    Obs.count obs "iropt.runs" 1;
    Obs.count obs "iropt.instrs_in" s.input_instrs;
    Obs.count obs "iropt.instrs_out" s.output_instrs;
    List.iter
      (fun p ->
        Obs.count obs ("iropt." ^ p.pass ^ ".rewritten") p.rewritten;
        Obs.count obs ("iropt." ^ p.pass ^ ".removed") p.removed)
      s.passes
  end

let run ?(config = default) ?live_out_fields ?live_out_regs ?(obs = Obs.null)
    prog =
  let ((_, stats) as result) =
    Obs.with_span obs "iropt.sweep"
      ~attrs:[ ("config", Obs.Json.Str (config_summary config)) ]
      (fun () -> run_impl ~config ?live_out_fields ?live_out_regs prog)
  in
  publish_stats obs stats;
  result

(* ---- static census and cost estimate for dump footers ---- *)

(* Every instruction charged once, by its unit, to a fresh meter through
   the machine's own charge functions: at the VP-set size of the field
   it sweeps, or unit size where the set is only known at run time
   ([Pcount] and the context stack ops), with unit congestion. *)
let static_meter params (p : program) =
  let m = Cost.meter params in
  let size = function
    | Pmov (f, _) | Pbin (_, f, _, _) | Punop (_, f, _) | Pcoord (f, _)
    | Ptable (f, _) | Prand (f, _) | Psel (f, _, _, _) | Pnews (f, _, _, _)
    | Pget (f, _, _) | Psend (f, _, _, _) | Preduce (_, _, f)
    | Preduce_axis (_, _, f) | Pscan (_, _, f, _) | Cand f | Cread f ->
        Geometry.size p.geoms.(fst p.fields.(f))
    | _ -> 1
  in
  Array.iter
    (fun ins ->
      let size = size ins in
      match unit_of ins with
      | Ufree -> ()
      | Ufe -> Cost.charge_fe m
      | Ufe_cm -> Cost.charge_fe_cm m
      | Ucontext -> Cost.charge_context m ~size
      | Upe -> Cost.charge_pe m ~size
      | Unews -> Cost.charge_news m ~size
      | Urouter -> Cost.charge_router m ~size ~messages:0 ~max_fanin:1
      | Ureduce -> Cost.charge_reduce m ~size
      | Uscan -> Cost.charge_scan m ~size)
    p.code;
  m

let class_counts (p : program) =
  let m = static_meter Cost.cm2_16k p in
  let counts =
    [
      ("fe", m.fe_ops);
      ("pe", m.pe_ops);
      ("context", m.context_ops);
      ("news", m.news_ops);
      ("router", m.router_ops);
      ("reduce", m.reductions);
      ("scan", m.scans);
      ("fe-cm", m.fe_cm_transfers);
    ]
  in
  counts
  @ [ ("free", Array.length p.code - List.fold_left (fun a (_, n) -> a + n) 0 counts) ]

let static_cost_ns ?(params = Cost.cm2_16k) (p : program) =
  (static_meter params p).elapsed_ns

let pp_static_summary ?(params = Cost.cm2_16k) fmt p =
  Format.fprintf fmt "@[<v>static summary: %d instructions@,"
    (Array.length p.code);
  List.iter
    (fun (c, n) -> if n > 0 then Format.fprintf fmt "  %-7s %5d@," c n)
    (class_counts p);
  Format.fprintf fmt "  est. straight-line cost: %.3f ms@]"
    (static_cost_ns ~params p /. 1.0e6)
