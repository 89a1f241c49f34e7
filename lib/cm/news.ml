let check g ~axis src dst =
  let total = Geometry.size g in
  if Array.length src <> total || Array.length dst <> total then
    invalid_arg "News.shift: field size mismatch";
  if axis < 0 || axis >= Geometry.rank g then
    invalid_arg "News.shift: axis out of range"

(* In row-major order the positions whose [axis] coordinate lies in
   [lo_c, hi_c] form, within each block of [stride * extent] elements,
   one contiguous segment of [nrows * stride] elements starting at
   [lo_c * stride].  Both shift variants walk those segments in
   ascending position order, exactly like the original per-element
   [p / stride mod extent] loop but without the divisions. *)
let bounds ~delta ~extent =
  (max 0 (-delta), min (extent - 1) (extent - 1 - delta))

(* Both shifts write only the destination positions in [lo, hi) and
   return how many they wrote; the whole-grid shifts below are the
   [0, total) case.  Per-chunk calls on distinct arrays write disjoint
   ranges, so they may run concurrently.  In place ([src == dst]) the
   ascending reference loop reads positions it already overwrote when
   [delta < 0], so that case keeps its exact element order; in-place
   calls must therefore run in ascending range order, never
   concurrently. *)

let shift_sub g ~axis ~delta ~lo ~hi src dst =
  check g ~axis src dst;
  let stride = (Geometry.strides g).(axis) in
  let extent = Geometry.dim g axis in
  let lo_c, hi_c = bounds ~delta ~extent in
  let updated = ref 0 in
  if lo_c <= hi_c && lo < hi then begin
    let block = stride * extent in
    let off = delta * stride in
    let seg = (hi_c - lo_c + 1) * stride in
    for b = lo / block to (hi - 1) / block do
      let start = (b * block) + (lo_c * stride) in
      let s = max start lo and e = min (start + seg) hi in
      if s < e then begin
        (* Array.blit has copy (memmove) semantics, which the ascending
           loop shares whenever it never reads a position it already
           overwrote *)
        if src != dst || delta >= 0 then
          Array.blit src (s + off) dst s (e - s)
        else
          for p = s to e - 1 do
            dst.(p) <- src.(p + off)
          done;
        updated := !updated + (e - s)
      end
    done
  end;
  !updated

let shift_masked_sub g ~axis ~delta ~mask ~lo ~hi src dst =
  if Array.length mask <> Geometry.size g then
    invalid_arg "News.shift_masked: mask size mismatch";
  check g ~axis src dst;
  let stride = (Geometry.strides g).(axis) in
  let extent = Geometry.dim g axis in
  let lo_c, hi_c = bounds ~delta ~extent in
  let updated = ref 0 in
  if lo_c <= hi_c && lo < hi then begin
    let block = stride * extent in
    let off = delta * stride in
    let seg = (hi_c - lo_c + 1) * stride in
    for b = lo / block to (hi - 1) / block do
      let start = (b * block) + (lo_c * stride) in
      let s = max start lo and e = min (start + seg) hi in
      for p = s to e - 1 do
        if mask.(p) then begin
          dst.(p) <- src.(p + off);
          incr updated
        end
      done
    done
  end;
  !updated

let shift g ~axis ~delta src dst =
  shift_sub g ~axis ~delta ~lo:0 ~hi:(Geometry.size g) src dst

let shift_masked g ~axis ~delta ~mask src dst =
  shift_masked_sub g ~axis ~delta ~mask ~lo:0 ~hi:(Geometry.size g) src dst
