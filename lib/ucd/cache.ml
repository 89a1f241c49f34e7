type stats = {
  ast_hits : int;
  ast_misses : int;
  ir_hits : int;
  ir_misses : int;
  run_hits : int;
  run_misses : int;
  corruptions : int;
  write_failures : int;
}

type counters = {
  mutable c_ast_hits : int;
  mutable c_ast_misses : int;
  mutable c_ir_hits : int;
  mutable c_ir_misses : int;
  mutable c_run_hits : int;
  mutable c_run_misses : int;
  mutable c_corruptions : int;
  mutable c_write_failures : int;
}

type t = {
  lock : Mutex.t;
  asts : (string, Uc.Ast.program) Hashtbl.t;
  irs : (string * string, Uc.Codegen.compiled) Hashtbl.t;
  runs : (string, Report.result) Hashtbl.t;
  dir : string option;
  counters : counters;
  (* chaos hook: consulted once per disk write; [true] makes the write
     fail as if the disk were full, through the ordinary
     write_failures counting/warning path *)
  mutable write_fault : (unit -> bool) option;
}

(* bump when Report.result or the artifact layout changes shape: stale
   artifacts then read as misses instead of Marshal segfault fodder.
   v2: adds a payload checksum (corruption is detected, not guessed).
   v3: Report.result gains the metrics column.
   v4: Report.result gains the engine column.
   v5: Report.result gains the engine_effective column. *)
let artifact_version = 5

let create ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | _ -> ());
  {
    lock = Mutex.create ();
    asts = Hashtbl.create 64;
    irs = Hashtbl.create 64;
    runs = Hashtbl.create 256;
    dir;
    counters =
      {
        c_ast_hits = 0;
        c_ast_misses = 0;
        c_ir_hits = 0;
        c_ir_misses = 0;
        c_run_hits = 0;
        c_run_misses = 0;
        c_corruptions = 0;
        c_write_failures = 0;
      };
    write_fault = None;
  }

let set_write_fault t f = t.write_fault <- Some f

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* the compute [f] runs outside the lock: two domains may race to build
   the same artifact (both results are identical), but no domain ever
   blocks the cache while compiling *)
let memo ~table ~hit ~miss t key f =
  let cached = with_lock t (fun () -> Hashtbl.find_opt table key) in
  match cached with
  | Some v ->
      with_lock t (fun () -> hit t.counters);
      v
  | None ->
      let v = f () in
      with_lock t (fun () ->
          miss t.counters;
          if not (Hashtbl.mem table key) then Hashtbl.replace table key v);
      v

let memo_ast t ~source_digest f =
  memo ~table:t.asts
    ~hit:(fun c -> c.c_ast_hits <- c.c_ast_hits + 1)
    ~miss:(fun c -> c.c_ast_misses <- c.c_ast_misses + 1)
    t source_digest f

let memo_ir t ~source_digest ~options_key f =
  memo ~table:t.irs
    ~hit:(fun c -> c.c_ir_hits <- c.c_ir_hits + 1)
    ~miss:(fun c -> c.c_ir_misses <- c.c_ir_misses + 1)
    t (source_digest, options_key) f

let artifact_path dir digest = Filename.concat dir (digest ^ ".ucd")

let quarantine_path dir digest = Filename.concat dir (digest ^ ".corrupt")

(* Artifact layout (v2): version int, then the MD5 of the payload, then
   the payload itself.  A missing file or an old version is a plain
   miss; anything torn, truncated or checksum-divergent is [`Corrupt]
   and gets quarantined by the caller rather than silently recomputed
   forever. *)

let read_artifact path : [ `Hit of Report.result | `Miss | `Corrupt ] =
  match open_in_bin path with
  | exception Sys_error _ -> `Miss
  | ic -> (
      let body () =
        let v : int = Marshal.from_channel ic in
        if v <> artifact_version then `Miss
        else begin
          let sum : Digest.t = Marshal.from_channel ic in
          let payload : string = Marshal.from_channel ic in
          if Digest.string payload <> sum then `Corrupt
          else `Hit (Marshal.from_string payload 0 : Report.result)
        end
      in
      match Fun.protect ~finally:(fun () -> close_in_noerr ic) body with
      | outcome -> outcome
      | exception _ -> `Corrupt)

let write_artifact path (r : Report.result) =
  try
    (* write-then-rename so concurrent readers never see a torn file *)
    let payload = Marshal.to_string r [] in
    let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Marshal.to_channel oc artifact_version [];
        Marshal.to_channel oc (Digest.string payload) [];
        Marshal.to_channel oc payload []);
    Sys.rename tmp path;
    true
  with _ -> false

(* Move a damaged artifact aside so the slot can be rewritten and the
   evidence survives for inspection.  Best-effort: a racing domain may
   have quarantined it first. *)
let quarantine dir digest =
  let src = artifact_path dir digest in
  try Sys.rename src (quarantine_path dir digest)
  with _ -> ( try Sys.remove src with _ -> ())

let find_run t digest =
  let mem = with_lock t (fun () -> Hashtbl.find_opt t.runs digest) in
  let found =
    match mem with
    | Some _ -> mem
    | None -> (
        match t.dir with
        | None -> None
        | Some dir -> (
            match read_artifact (artifact_path dir digest) with
            | `Hit r ->
                with_lock t (fun () -> Hashtbl.replace t.runs digest r);
                Some r
            | `Miss -> None
            | `Corrupt ->
                with_lock t (fun () ->
                    t.counters.c_corruptions <- t.counters.c_corruptions + 1);
                quarantine dir digest;
                None))
  in
  with_lock t (fun () ->
      let c = t.counters in
      match found with
      | Some _ -> c.c_run_hits <- c.c_run_hits + 1
      | None -> c.c_run_misses <- c.c_run_misses + 1);
  found

let store_run t digest r =
  with_lock t (fun () -> Hashtbl.replace t.runs digest r);
  match t.dir with
  | Some dir ->
      let injected =
        match t.write_fault with Some f -> f () | None -> false
      in
      if injected || not (write_artifact (artifact_path dir digest) r) then begin
        let first =
          with_lock t (fun () ->
              let c = t.counters in
              c.c_write_failures <- c.c_write_failures + 1;
              c.c_write_failures = 1)
        in
        if first then
          Printf.eprintf
            "ucd: warning: failed to persist cache artifact %s (disk full or \
             unwritable?); continuing without disk persistence for it\n%!"
            digest
      end
  | None -> ()

let stats t =
  with_lock t (fun () ->
      let c = t.counters in
      {
        ast_hits = c.c_ast_hits;
        ast_misses = c.c_ast_misses;
        ir_hits = c.c_ir_hits;
        ir_misses = c.c_ir_misses;
        run_hits = c.c_run_hits;
        run_misses = c.c_run_misses;
        corruptions = c.c_corruptions;
        write_failures = c.c_write_failures;
      })

(* Mirror the cumulative counters into a telemetry scope as
   "ucd.cache."-prefixed counts.  Call once, after a batch; calling
   twice would double the monotonic counters. *)
let publish t obs =
  if Obs.enabled obs then begin
    let s = stats t in
    List.iter
      (fun (name, v) -> Obs.count obs ("ucd.cache." ^ name) v)
      [
        ("ast_hits", s.ast_hits);
        ("ast_misses", s.ast_misses);
        ("ir_hits", s.ir_hits);
        ("ir_misses", s.ir_misses);
        ("run_hits", s.run_hits);
        ("run_misses", s.run_misses);
        ("corruptions", s.corruptions);
        ("write_failures", s.write_failures);
      ]
  end

let pp_stats ppf s =
  Format.fprintf ppf "cache: ast %d/%d hit, ir %d/%d hit, run %d/%d hit"
    s.ast_hits
    (s.ast_hits + s.ast_misses)
    s.ir_hits
    (s.ir_hits + s.ir_misses)
    s.run_hits
    (s.run_hits + s.run_misses);
  if s.corruptions > 0 then
    Format.fprintf ppf ", %d corrupt artifact%s quarantined" s.corruptions
      (if s.corruptions = 1 then "" else "s");
  if s.write_failures > 0 then
    Format.fprintf ppf ", %d write failure%s" s.write_failures
      (if s.write_failures = 1 then "" else "s")
