type entry =
  | Accepted of {
      digest : string;
      name : string;
      tenant : string;
      submit : Jsonu.t;
    }
  | Started of { digest : string }
  | Checkpointed of { digest : string; ckpt : string }
  | Done_ of { digest : string; status : string }
  | Faulted of { digest : string }

type pending = {
  p_digest : string;
  p_name : string;
  p_tenant : string;
  p_submit : Jsonu.t;
  p_ckpt : string option;
  p_started : bool;
}

type replay = {
  pending : pending list;
  finished : (string * string) list;
  replayed : int;
  corrupt : int;
}

type stats = {
  appended : int;
  synced : int;
  bytes : int;
  write_failures : int;
  s_replayed : int;
  s_corrupt : int;
  s_requeued : int;
}

type t = {
  lock : Mutex.t;
  fsync : bool;
  mutable fd : Unix.file_descr option;
  mutable appended : int;
  mutable synced : int;
  mutable written : int;
  mutable unsynced : int;  (* records since the last fsync *)
  mutable failures : int;
  mutable warned : bool;
  replayed : int;
  corrupted : int;
  requeued : int;
}

let path ~dir = Filename.concat dir "journal.jsonl"

(* ---- record <-> json ---- *)

let entry_json = function
  | Accepted { digest; name; tenant; submit } ->
      Jsonu.Obj
        [
          ("t", Jsonu.Str "accepted");
          ("digest", Jsonu.Str digest);
          ("name", Jsonu.Str name);
          ("tenant", Jsonu.Str tenant);
          ("submit", submit);
        ]
  | Started { digest } ->
      Jsonu.Obj [ ("t", Jsonu.Str "started"); ("digest", Jsonu.Str digest) ]
  | Checkpointed { digest; ckpt } ->
      Jsonu.Obj
        [
          ("t", Jsonu.Str "checkpointed");
          ("digest", Jsonu.Str digest);
          (* checkpoint blobs are binary; Jsonu strings are
             byte-transparent, so the blob survives verbatim *)
          ("ckpt", Jsonu.Str ckpt);
        ]
  | Done_ { digest; status } ->
      Jsonu.Obj
        [
          ("t", Jsonu.Str "done");
          ("digest", Jsonu.Str digest);
          ("status", Jsonu.Str status);
        ]
  | Faulted { digest } ->
      Jsonu.Obj [ ("t", Jsonu.Str "faulted"); ("digest", Jsonu.Str digest) ]

let str_field obj k =
  match obj with
  | Jsonu.Obj fields -> (
      match List.assoc_opt k fields with
      | Some (Jsonu.Str s) -> Some s
      | _ -> None)
  | _ -> None

let entry_of_json j =
  let need k =
    match str_field j k with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or non-string field %S" k)
  in
  let ( let* ) = Result.bind in
  let* t = need "t" in
  let* digest = need "digest" in
  match t with
  | "accepted" ->
      let* name = need "name" in
      let* tenant = need "tenant" in
      let submit =
        match j with
        | Jsonu.Obj fields -> List.assoc_opt "submit" fields
        | _ -> None
      in
      let* submit =
        match submit with
        | Some (Jsonu.Obj _ as o) -> Ok o
        | _ -> Error "missing submit object"
      in
      Ok (Accepted { digest; name; tenant; submit })
  | "started" -> Ok (Started { digest })
  | "checkpointed" ->
      let* ckpt = need "ckpt" in
      Ok (Checkpointed { digest; ckpt })
  | "done" ->
      let* status = need "status" in
      Ok (Done_ { digest; status })
  | "faulted" -> Ok (Faulted { digest })
  | other -> Error (Printf.sprintf "unknown record type %S" other)

(* One journal line: the rendered record wrapped with its own MD5, so a
   torn tail or a flipped bit is detected on replay rather than
   trusted. *)
let line_of_entry e =
  let rec_str = Jsonu.to_string (entry_json e) in
  Printf.sprintf "{\"sum\":%s,\"rec\":%s}\n"
    (Jsonu.to_string (Jsonu.Str (Digest.to_hex (Digest.string rec_str))))
    rec_str

let entry_of_line line =
  match Jsonu.of_string line with
  | Error e -> Error ("unparsable line: " ^ e)
  | Ok (Jsonu.Obj fields) -> (
      match
        (List.assoc_opt "sum" fields, List.assoc_opt "rec" fields)
      with
      | Some (Jsonu.Str sum), Some rec_ ->
          let rendered = Jsonu.to_string rec_ in
          if Digest.to_hex (Digest.string rendered) <> sum then
            Error "checksum mismatch"
          else entry_of_json rec_
      | _ -> Error "missing sum/rec fields")
  | Ok _ -> Error "line is not an object"

(* ---- replay ---- *)

type fold_state = {
  mutable fs_order : string list;  (* digests, reverse accept order *)
  accepted : (string, pending) Hashtbl.t;
  terminal : (string, string) Hashtbl.t;
}

let fold_entry st = function
  | Accepted { digest; name; tenant; submit } ->
      if not (Hashtbl.mem st.accepted digest) then begin
        st.fs_order <- digest :: st.fs_order;
        Hashtbl.replace st.accepted digest
          {
            p_digest = digest;
            p_name = name;
            p_tenant = tenant;
            p_submit = submit;
            p_ckpt = None;
            p_started = false;
          }
      end
  | Started { digest } -> (
      match Hashtbl.find_opt st.accepted digest with
      | Some p -> Hashtbl.replace st.accepted digest { p with p_started = true }
      | None -> ())
  | Checkpointed { digest; ckpt } -> (
      match Hashtbl.find_opt st.accepted digest with
      | Some p ->
          Hashtbl.replace st.accepted digest { p with p_ckpt = Some ckpt }
      | None -> ())
  | Done_ { digest; status } -> Hashtbl.replace st.terminal digest status
  | Faulted { digest } -> Hashtbl.replace st.terminal digest "faulted"

(* Append damaged lines to <file>.corrupt (evidence preserved, journal
   slot reclaimed by the compaction that follows) and keep going: a
   torn tail after SIGKILL is the expected case, not an error. *)
let quarantine_line file line reason warned =
  (try
     let oc =
       open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644
         (file ^ ".corrupt")
     in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc (line ^ "\n"))
   with _ -> ());
  if not !warned then begin
    warned := true;
    Printf.eprintf
      "ucd: warning: quarantined damaged journal line(s) to %s.corrupt (%s); \
       replay continues\n\
       %!"
      file reason
  end

let read_lines file =
  match open_in_bin file with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])

let replay_file ?(keep = fun ~digest:_ ~status:_ -> false) file =
  let st =
    {
      fs_order = [];
      accepted = Hashtbl.create 64;
      terminal = Hashtbl.create 64;
    }
  in
  let replayed = ref 0 and corrupt = ref 0 in
  let warned = ref false in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match entry_of_line line with
        | Ok e ->
            incr replayed;
            fold_entry st e
        | Error reason ->
            incr corrupt;
            quarantine_line file line reason warned)
    (read_lines file);
  let order = List.rev st.fs_order in
  let pending =
    List.filter_map
      (fun d ->
        match Hashtbl.find_opt st.terminal d with
        | None -> Hashtbl.find_opt st.accepted d
        | Some status -> (
            (* a terminal record normally retires the entry, but the
               caller may resurrect it — e.g. a [done] job whose cached
               report has since vanished must be recomputed *)
            match Hashtbl.find_opt st.accepted d with
            | Some p when keep ~digest:d ~status ->
                Hashtbl.remove st.terminal d;
                Some p
            | _ -> None))
      order
  in
  let finished =
    List.filter_map
      (fun d ->
        match Hashtbl.find_opt st.terminal d with
        | Some s -> Some (d, s)
        | None -> None)
      order
  in
  (* terminal records whose accepted line was itself lost still count *)
  let finished =
    let seen = List.map fst finished in
    Hashtbl.fold
      (fun d s acc -> if List.mem d seen then acc else (d, s) :: acc)
      st.terminal finished
  in
  { pending; finished; replayed = !replayed; corrupt = !corrupt }

(* ---- appending ---- *)

let append t e =
  let line = line_of_entry e in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.fd with
      | None -> ()
      | Some fd -> (
          try
            Proto.write_all fd line;
            t.appended <- t.appended + 1;
            t.written <- t.written + String.length line;
            if t.fsync then begin
              Unix.fsync fd;
              t.synced <- t.synced + 1;
              t.unsynced <- 0
            end
            else t.unsynced <- t.unsynced + 1
          with _ ->
            t.failures <- t.failures + 1;
            if not t.warned then begin
              t.warned <- true;
              Printf.eprintf
                "ucd: warning: journal append failed (disk full or \
                 unwritable?); continuing without durability\n\
                 %!"
            end))

(* ---- recovery: replay, compact, reopen ---- *)

let recover ?(fsync = false) ?keep ~dir () =
  let file = path ~dir in
  try
    if not (Sys.file_exists dir) then
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let rp = replay_file ?keep file in
    (* Compact: rewrite only what is still pending (accepted + latest
       checkpoint), atomically, so the journal never grows without
       bound and a crash mid-compaction keeps the old file intact. *)
    let tmp = file ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun p ->
            output_string oc
              (line_of_entry
                 (Accepted
                    {
                      digest = p.p_digest;
                      name = p.p_name;
                      tenant = p.p_tenant;
                      submit = p.p_submit;
                    }));
            if p.p_started then
              output_string oc (line_of_entry (Started { digest = p.p_digest }));
            match p.p_ckpt with
            | Some ckpt ->
                output_string oc
                  (line_of_entry (Checkpointed { digest = p.p_digest; ckpt }))
            | None -> ())
          rp.pending;
        flush oc);
    Sys.rename tmp file;
    let fd =
      Unix.openfile file [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    in
    Ok
      ( {
          lock = Mutex.create ();
          fsync;
          fd = Some fd;
          appended = 0;
          synced = 0;
          written = 0;
          unsynced = 0;
          failures = 0;
          warned = false;
          replayed = rp.replayed;
          corrupted = rp.corrupt;
          requeued = List.length rp.pending;
        },
        rp )
  with e ->
    Error
      (Printf.sprintf "cannot open journal under %s: %s" dir
         (Printexc.to_string e))

let stats t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      {
        appended = t.appended;
        synced = t.synced;
        bytes = t.written;
        write_failures = t.failures;
        s_replayed = t.replayed;
        s_corrupt = t.corrupted;
        s_requeued = t.requeued;
      })

let lag t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> t.unsynced)

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.fd with
      | None -> ()
      | Some fd ->
          t.fd <- None;
          (try if t.fsync then Unix.fsync fd with _ -> ());
          try Unix.close fd with _ -> ())

let publish t obs =
  if Obs.enabled obs then begin
    let s = stats t in
    List.iter
      (fun (name, v) -> Obs.count obs ("ucd.journal." ^ name) v)
      [
        ("appended", s.appended);
        ("synced", s.synced);
        ("bytes", s.bytes);
        ("write_failures", s.write_failures);
        ("replayed", s.s_replayed);
        ("corrupt", s.s_corrupt);
        ("requeued", s.s_requeued);
      ]
  end
