let inclusive op a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n a.(0) in
    for i = 1 to n - 1 do
      out.(i) <- op out.(i - 1) a.(i)
    done;
    out
  end

let exclusive op identity a =
  let n = Array.length a in
  let out = Array.make n identity in
  let acc = ref identity in
  for i = 0 to n - 1 do
    out.(i) <- !acc;
    acc := op !acc a.(i)
  done;
  out

let reduce op identity a = Array.fold_left op identity a

let masked_reduce op identity mask a =
  if Array.length mask <> Array.length a then
    invalid_arg "Scan.masked_reduce: length mismatch";
  let acc = ref identity in
  Array.iteri (fun i x -> if mask.(i) then acc := op !acc x) a;
  !acc

let reduce_trailing_axes g ~outer_size op identity mask a dst =
  let total = Geometry.size g in
  if Array.length a <> total then
    invalid_arg "Scan.reduce_trailing_axes: field size mismatch";
  if outer_size <= 0 || total mod outer_size <> 0 then
    invalid_arg "Scan.reduce_trailing_axes: outer size does not divide";
  if Array.length dst <> outer_size then
    invalid_arg "Scan.reduce_trailing_axes: destination size mismatch";
  let inner = total / outer_size in
  (* row [o] reads [a] from position [o * inner] >= [o] on, so writing
     [dst.(o)] after reading its row is safe even when [dst == a] *)
  for o = 0 to outer_size - 1 do
    let acc = ref identity in
    for k = 0 to inner - 1 do
      let idx = (o * inner) + k in
      if mask.(idx) then acc := op !acc a.(idx)
    done;
    dst.(o) <- !acc
  done

let scan_axis g axis op a dst =
  let total = Geometry.size g in
  if Array.length a <> total || Array.length dst <> total then
    invalid_arg "Scan.scan_axis: field size mismatch";
  if axis < 0 || axis >= Geometry.rank g then
    invalid_arg "Scan.scan_axis: axis out of range";
  let stride = (Geometry.strides g).(axis) in
  let extent = Geometry.dim g axis in
  if a != dst then Array.blit a 0 dst 0 total;
  (* Walk every 1-D lane along [axis], in ascending order of its base
     address (the position whose coordinate on [axis] is zero).  Each
     step reads [a.(idx)] before writing [dst.(idx)], and no later step
     reads [a.(idx)], so [dst == a] scans in place. *)
  let block = stride * extent in
  for b = 0 to (total / max block 1) - 1 do
    for j = 0 to stride - 1 do
      let base = (b * block) + j in
      for k = 1 to extent - 1 do
        let idx = base + (k * stride) in
        dst.(idx) <- op dst.(idx - stride) a.(idx)
      done
    done
  done
