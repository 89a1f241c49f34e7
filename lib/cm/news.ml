open Paris

let check g ~axis src dst =
  let total = Geometry.size g in
  if Array.length src <> total || Array.length dst <> total then
    invalid_arg "News.shift: field size mismatch";
  if axis < 0 || axis >= Geometry.rank g then
    invalid_arg "News.shift: axis out of range"

(* In row-major order the positions whose [axis] coordinate lies in
   [lo_c, hi_c] form, within each block of [stride * extent] elements,
   one contiguous segment of [nrows * stride] elements starting at
   [lo_c * stride].  The walker visits those segments in ascending
   position order, exactly like the original per-element
   [p / stride mod extent] loop but without the divisions. *)
let bounds ~delta ~extent =
  (max 0 (-delta), min (extent - 1) (extent - 1 - delta))

(* The shift returns how many destination positions it wrote.  Every
   segment copy is an ascending element loop, which is the reference
   semantics also in place ([src == dst]): with [delta < 0] it reads
   positions it already overwrote.  The walker is shared; the element
   copies are typed per kind (a float copy that cannot overlap is a
   memmove). *)
let shift (type a) (k : a elt) ?mask g ~axis ~delta (src : a array) (dst : a array) =
  (match mask with
  | Some m when Array.length m <> Geometry.size g ->
      invalid_arg "News.shift_masked: mask size mismatch"
  | _ -> ());
  check g ~axis src dst;
  let stride = (Geometry.strides g).(axis) in
  let extent = Geometry.dim g axis in
  let lo_c, hi_c = bounds ~delta ~extent in
  let updated = ref 0 in
  if lo_c <= hi_c then begin
    let block = stride * extent in
    let off = delta * stride in
    let seg = (hi_c - lo_c + 1) * stride in
    for b = 0 to (Geometry.size g / block) - 1 do
      let s = (b * block) + (lo_c * stride) in
      let e = s + seg in
      match mask, k with
      | None, EInt ->
          for%unroll p = s to e - 1 do
            Array.unsafe_set dst p (Array.unsafe_get src (p + off))
          done;
          updated := !updated + (e - s)
      | None, EFloat ->
          if src != dst || delta >= 0 then Array.blit src (s + off) dst s (e - s)
          else
            for%unroll p = s to e - 1 do
              Array.unsafe_set dst p (Array.unsafe_get src (p + off))
            done;
          updated := !updated + (e - s)
      | Some m, EInt ->
          for%unroll p = s to e - 1 do
            if Array.unsafe_get m p then begin
              Array.unsafe_set dst p (Array.unsafe_get src (p + off));
              incr updated
            end
          done
      | Some m, EFloat ->
          for%unroll p = s to e - 1 do
            if Array.unsafe_get m p then begin
              Array.unsafe_set dst p (Array.unsafe_get src (p + off));
              incr updated
            end
          done
    done
  end;
  !updated
