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

(* A copy of the segment [s, e) from [off] positions on, in ascending
   order; a float copy that cannot overlap is a memmove. *)
let copy_seg (type a) (k : a elt) (src : a array) (dst : a array) ~delta ~off s e =
  match k with
  | EInt ->
      for%unroll p = s to e - 1 do
        Array.unsafe_set dst p (Array.unsafe_get src (p + off))
      done
  | EFloat ->
      if src != dst || delta >= 0 then Array.blit src (s + off) dst s (e - s)
      else
        for%unroll p = s to e - 1 do
          Array.unsafe_set dst p (Array.unsafe_get src (p + off))
        done

(* [segments g ~axis ~delta f] calls [f s e off] on each block's segment
   [s, e) of destinations whose source [p + off] is in range, in
   ascending order. *)
let segments g ~axis ~delta f =
  let stride = (Geometry.strides g).(axis) in
  let extent = Geometry.dim g axis in
  let lo_c, hi_c = bounds ~delta ~extent in
  if lo_c <= hi_c then begin
    let block = stride * extent in
    let seg = (hi_c - lo_c + 1) * stride in
    for b = 0 to (Geometry.size g / block) - 1 do
      let s = (b * block) + (lo_c * stride) in
      f s (s + seg) (delta * stride)
    done
  end

(* The shift returns how many destination positions it wrote.  Every
   segment copy is an ascending element loop, which is the reference
   semantics also in place ([src == dst]): with [delta < 0] it reads
   positions it already overwrote.  The walker is shared; the element
   copies are typed per kind. *)
let shift (type a) (k : a elt) ?mask g ~axis ~delta (src : a array) (dst : a array) =
  (match mask with
  | Some m when Array.length m <> Geometry.size g ->
      invalid_arg "News.shift_masked: mask size mismatch"
  | _ -> ());
  check g ~axis src dst;
  let updated = ref 0 in
  segments g ~axis ~delta (fun s e off ->
      match mask, k with
      | None, _ ->
          copy_seg k src dst ~delta ~off s e;
          updated := !updated + (e - s)
      | Some m, EInt ->
          let n = ref 0 in
          for%unroll p = s to e - 1 do
            if Array.unsafe_get m p then begin
              Array.unsafe_set dst p (Array.unsafe_get src (p + off));
              incr n
            end
          done;
          updated := !updated + !n
      | Some m, EFloat ->
          let n = ref 0 in
          for%unroll p = s to e - 1 do
            if Array.unsafe_get m p then begin
              Array.unsafe_set dst p (Array.unsafe_get src (p + off));
              incr n
            end
          done;
          updated := !updated + !n);
  !updated

(* Each segment's intersection with the runs is a range of active
   positions only, so copying those ranges in ascending order writes
   what the masked loop writes, in its order.  A run that reaches past
   a segment's end is kept for the next segment. *)
let shift_runs (type a) (k : a elt) g ~axis ~delta ~runs ~nruns (src : a array)
    (dst : a array) =
  check g ~axis src dst;
  if nruns < 0 || Array.length runs < 2 * nruns then
    invalid_arg "News.shift_runs: bad run count";
  let updated = ref 0 and j = ref 0 in
  segments g ~axis ~delta (fun s e off ->
      while !j < nruns && runs.((2 * !j) + 1) <= s do incr j done;
      let i = ref !j in
      while !i < nruns && runs.(2 * !i) < e do
        let rs = Int.max s runs.(2 * !i) and re = Int.min e runs.((2 * !i) + 1) in
        copy_seg k src dst ~delta ~off rs re;
        updated := !updated + (re - rs);
        incr i
      done);
  !updated
