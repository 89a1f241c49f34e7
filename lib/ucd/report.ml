type status =
  | Done
  | Failed of string
  | Timeout of float
  | Faulted of string

type result = {
  job_name : string;
  digest : string;
  options : string;
  engine : string;  (* canonical Job.engine_string rendering *)
  engine_effective : string;
      (* the engine that actually executed: differs from [engine] only
         for `native`, which runs on `fast`.  "" for rows that never ran
         a machine (front-end failures); rendered as [engine] in that
         case. *)
  seed : int;
  tuned : bool;
      (* ran under an auto-tuned layout; emitted only when true so
         untuned rows render byte-identically to earlier versions *)
  status : status;
  simulated_seconds : float;
  metrics : (string * float) list;
      (* deterministic machine counters (Cm.Cost.metrics); part of the
         canonical content, unlike wall_seconds *)
  output : string list;
  wall_seconds : float;
  from_cache : bool;
  attempts : int;
  fault_trace : string list;
}

let status_fields = function
  | Done -> [ ("status", Jsonu.Str "ok") ]
  | Failed msg -> [ ("status", Jsonu.Str "failed"); ("error", Jsonu.Str msg) ]
  | Timeout limit ->
      [ ("status", Jsonu.Str "timeout"); ("deadline", Jsonu.Float limit) ]
  | Faulted msg ->
      [ ("status", Jsonu.Str "faulted"); ("error", Jsonu.Str msg) ]

let canonical_obj r =
  [
    ("job", Jsonu.Str r.job_name);
    ("digest", Jsonu.Str r.digest);
    ("options", Jsonu.Str r.options);
    ("engine", Jsonu.Str r.engine);
    ( "engine_effective",
      Jsonu.Str (if r.engine_effective = "" then r.engine else r.engine_effective)
    );
    ("seed", Jsonu.Int r.seed);
  ]
  @ (if r.tuned then [ ("tuned", Jsonu.Bool true) ] else [])
  @ status_fields r.status
  @ [ ("simulated_seconds", Jsonu.Float r.simulated_seconds) ]
  @ (if r.metrics = [] then []
     else
       [
         ( "metrics",
           Jsonu.Obj (List.map (fun (k, v) -> (k, Jsonu.Float v)) r.metrics) );
       ])
  @ [
      ("output", Jsonu.List (List.map (fun l -> Jsonu.Str l) r.output));
      ("attempts", Jsonu.Int r.attempts);
    ]
  @
  if r.fault_trace = [] then []
  else
    [
      ( "fault_trace",
        Jsonu.List (List.map (fun l -> Jsonu.Str l) r.fault_trace) );
    ]

let canonical_json r = Jsonu.to_string (Jsonu.Obj (canonical_obj r))

let to_json r =
  Jsonu.Obj
    (canonical_obj r
    @ [
        ("wall_seconds", Jsonu.Float r.wall_seconds);
        ("cache", Jsonu.Str (if r.from_cache then "hit" else "miss"));
      ])

let json_line r = Jsonu.to_string (to_json r)

(* Inverse of [to_json], for the wire: a served report row re-renders
   byte-identically on the client side ([canonical_json] included), so
   `ucc submit` can prove its rows equal `ucc batch`'s. *)
let of_json j =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  match j with
  | Jsonu.Obj kvs ->
      let str k =
        match List.assoc_opt k kvs with
        | Some (Jsonu.Str s) -> Ok s
        | _ -> Error (Printf.sprintf "report row: missing %S" k)
      in
      let num k =
        match List.assoc_opt k kvs with
        | Some (Jsonu.Float f) -> Ok f
        | Some (Jsonu.Int i) -> Ok (float_of_int i)
        | _ -> Error (Printf.sprintf "report row: missing %S" k)
      in
      let int k =
        match List.assoc_opt k kvs with
        | Some (Jsonu.Int i) -> Ok i
        | _ -> Error (Printf.sprintf "report row: missing %S" k)
      in
      let str_list k =
        match List.assoc_opt k kvs with
        | None -> Ok []
        | Some (Jsonu.List xs) ->
            List.fold_left
              (fun acc x ->
                let* acc = acc in
                match x with
                | Jsonu.Str s -> Ok (s :: acc)
                | _ -> Error (Printf.sprintf "report row: %S not strings" k))
              (Ok []) xs
            |> Result.map List.rev
        | Some _ -> Error (Printf.sprintf "report row: %S not a list" k)
      in
      let* job_name = str "job" in
      let* digest = str "digest" in
      let* options = str "options" in
      let* engine = str "engine" in
      (* absent only in pre-v5 rows: the engine then executed as named *)
      let engine_effective =
        match List.assoc_opt "engine_effective" kvs with
        | Some (Jsonu.Str s) -> s
        | _ -> engine
      in
      let* seed = int "seed" in
      (* absent in untuned and pre-v6 rows *)
      let tuned =
        match List.assoc_opt "tuned" kvs with
        | Some (Jsonu.Bool b) -> b
        | _ -> false
      in
      let* status =
        let* s = str "status" in
        match s with
        | "ok" -> Ok Done
        | "failed" ->
            let* e = str "error" in
            Ok (Failed e)
        | "timeout" ->
            let* d = num "deadline" in
            Ok (Timeout d)
        | "faulted" ->
            let* e = str "error" in
            Ok (Faulted e)
        | s -> Error ("report row: unknown status " ^ s)
      in
      let* simulated_seconds = num "simulated_seconds" in
      let* metrics =
        match List.assoc_opt "metrics" kvs with
        | None -> Ok []
        | Some (Jsonu.Obj ms) ->
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                match v with
                | Jsonu.Float f -> Ok ((k, f) :: acc)
                | Jsonu.Int i -> Ok ((k, float_of_int i) :: acc)
                | _ -> Error "report row: non-numeric metric")
              (Ok []) ms
            |> Result.map List.rev
        | Some _ -> Error "report row: metrics not an object"
      in
      let* output = str_list "output" in
      let* attempts = int "attempts" in
      let* fault_trace = str_list "fault_trace" in
      let* wall_seconds = num "wall_seconds" in
      let* from_cache =
        let* c = str "cache" in
        match c with
        | "hit" -> Ok true
        | "miss" -> Ok false
        | c -> Error ("report row: bad cache tag " ^ c)
      in
      Ok
        {
          job_name;
          digest;
          options;
          engine;
          engine_effective;
          seed;
          tuned;
          status;
          simulated_seconds;
          metrics;
          output;
          wall_seconds;
          from_cache;
          attempts;
          fault_trace;
        }
  | _ -> Error "report row: not an object"

type summary = {
  total : int;
  ok : int;
  failed : int;
  timeout : int;
  faulted : int;
  cache_hits : int;
  simulated_total : float;
  wall_total : float;
  elapsed : float;
}

let summarize ~elapsed results =
  List.fold_left
    (fun s r ->
      {
        s with
        total = s.total + 1;
        ok = (s.ok + match r.status with Done -> 1 | _ -> 0);
        failed = (s.failed + match r.status with Failed _ -> 1 | _ -> 0);
        timeout = (s.timeout + match r.status with Timeout _ -> 1 | _ -> 0);
        faulted = (s.faulted + match r.status with Faulted _ -> 1 | _ -> 0);
        cache_hits = (s.cache_hits + if r.from_cache then 1 else 0);
        simulated_total = s.simulated_total +. r.simulated_seconds;
        wall_total = s.wall_total +. r.wall_seconds;
      })
    {
      total = 0;
      ok = 0;
      failed = 0;
      timeout = 0;
      faulted = 0;
      cache_hits = 0;
      simulated_total = 0.;
      wall_total = 0.;
      elapsed;
    }
    results

let json_of_summary s =
  Jsonu.to_string
    (Jsonu.Obj
       [
         ("summary", Jsonu.Bool true);
         ("total", Jsonu.Int s.total);
         ("ok", Jsonu.Int s.ok);
         ("failed", Jsonu.Int s.failed);
         ("timeout", Jsonu.Int s.timeout);
         ("faulted", Jsonu.Int s.faulted);
         ("cache_hits", Jsonu.Int s.cache_hits);
         ("simulated_seconds", Jsonu.Float s.simulated_total);
         ("job_wall_seconds", Jsonu.Float s.wall_total);
         ("elapsed_seconds", Jsonu.Float s.elapsed);
         ( "jobs_per_second",
           Jsonu.Float
             (if s.elapsed > 0. then float_of_int s.total /. s.elapsed else 0.)
         );
       ])

let pp_summary ppf s =
  Format.fprintf ppf
    "%d jobs: %d ok, %d failed, %d timeout, %d faulted; %d cache hit%s; %.3f \
     simulated s; %.3f s elapsed (%.1f jobs/s)"
    s.total s.ok s.failed s.timeout s.faulted s.cache_hits
    (if s.cache_hits = 1 then "" else "s")
    s.simulated_total s.elapsed
    (if s.elapsed > 0. then float_of_int s.total /. s.elapsed else 0.)
