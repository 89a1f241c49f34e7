(* The serve subsystem: wire protocol codec (round trips, typed errors,
   oversized-frame rejection), the Jsonu byte-transparency property the
   protocol depends on, pool admission, tenant quotas, and loopback
   servers exercised over real sockets — including the acceptance
   criterion that a corpus submitted through a socket yields reports
   canonically identical to the Runner-based batch path, cold and
   warm. *)

let check = Alcotest.check

let proto_err = function
  | Ok _ -> Alcotest.fail "frame should have been rejected"
  | Error (code, _) -> Ucd.Proto.code_string code

(* ---------------- proto: encode/decode ---------------- *)

let test_client_round_trip () =
  let samples =
    [
      Ucd.Proto.Hello
        { version = 1; tenant = "alice"; priority = Ucd.Proto.High };
      Ucd.Proto.Submit
        {
          (Ucd.Proto.submit_defaults ~name:"j1"
             ~source:(Ucd.Proto.Inline "void main() {}"))
          with
          Ucd.Proto.client_ref = Some "r-1";
          seed = Some 7;
          spec =
            [
              ("fuel", Ucd.Jsonu.Int 1000);
              ("deadline", Ucd.Jsonu.Float 0.25);
              ("faults", Ucd.Jsonu.Str "seed=7;horizon=100;router=2");
              ("retries", Ucd.Jsonu.Int 3);
              ("no-news", Ucd.Jsonu.Bool true);
              ("no-cse", Ucd.Jsonu.Bool true);
              ("ir-opt", Ucd.Jsonu.Str "constprop,dce");
              ("engine", Ucd.Jsonu.Str "sharded:3");
            ];
        };
      Ucd.Proto.Submit
        (Ucd.Proto.submit_defaults ~name:"matmul"
           ~source:(Ucd.Proto.Corpus "matmul"));
      Ucd.Proto.Status 3;
      Ucd.Proto.Status_digest "0123456789abcdef0123456789abcdef";
      Ucd.Proto.Server_status;
      Ucd.Proto.Cancel 4;
      Ucd.Proto.Trace true;
      Ucd.Proto.Trace false;
      Ucd.Proto.Stats;
      Ucd.Proto.Drain;
      Ucd.Proto.Bye;
    ]
  in
  List.iter
    (fun msg ->
      let line = Ucd.Proto.client_line msg in
      match Ucd.Proto.client_of_line line with
      | Error (_, e) -> Alcotest.failf "decode of %s failed: %s" line e
      | Ok back ->
          check Alcotest.string "client frame round trip" line
            (Ucd.Proto.client_line back))
    samples

let test_server_round_trip () =
  let row =
    Ucd.Jsonu.Obj [ ("job", Ucd.Jsonu.Str "x"); ("seed", Ucd.Jsonu.Int 1) ]
  in
  let samples =
    [
      Ucd.Proto.Welcome { version = 1; session = 9; server = "ucd/1" };
      Ucd.Proto.Accepted { client_ref = Some "r"; job = 2; digest = "abcd" };
      Ucd.Proto.Rejected
        {
          client_ref = None;
          code = Ucd.Proto.Overloaded;
          msg = "queue full";
        };
      Ucd.Proto.Report { job = 2; row };
      Ucd.Proto.Resumed { client_ref = Some "r"; job = 2; digest = "abcd" };
      Ucd.Proto.Status_reply { job = 2; state = "running"; row = None };
      Ucd.Proto.Status_reply { job = 2; state = "done"; row = Some row };
      Ucd.Proto.Digest_reply { digest = "abcd"; state = "unknown"; row = None };
      Ucd.Proto.Digest_reply { digest = "abcd"; state = "done"; row = Some row };
      Ucd.Proto.Server_status_reply row;
      Ucd.Proto.Cancel_reply { job = 2; ok = false };
      Ucd.Proto.Trace_reply true;
      Ucd.Proto.Trace_event { job = 2; event = row };
      Ucd.Proto.Stats_reply row;
      Ucd.Proto.Draining { in_flight = 5 };
      Ucd.Proto.Shutdown { msg = "bye" };
      Ucd.Proto.Error { code = Ucd.Proto.Version_mismatch; msg = "v9" };
    ]
  in
  List.iter
    (fun msg ->
      let line = Ucd.Proto.server_line msg in
      match Ucd.Proto.server_of_line line with
      | Error e -> Alcotest.failf "decode of %s failed: %s" line e
      | Ok back ->
          check Alcotest.string "server frame round trip" line
            (Ucd.Proto.server_line back))
    samples

let test_malformed_frames () =
  check Alcotest.string "not json" "protocol"
    (proto_err (Ucd.Proto.client_of_line "this is not json"));
  check Alcotest.string "trailing garbage" "protocol"
    (proto_err (Ucd.Proto.client_of_line "{\"type\":\"stats\"} tail"));
  check Alcotest.string "not an object" "protocol"
    (proto_err (Ucd.Proto.client_of_line "[1,2,3]"));
  check Alcotest.string "no type field" "protocol"
    (proto_err (Ucd.Proto.client_of_line "{\"job\":1}"));
  check Alcotest.string "unknown type" "protocol"
    (proto_err (Ucd.Proto.client_of_line "{\"type\":\"zap\"}"));
  check Alcotest.string "submit without name" "bad_request"
    (proto_err
       (Ucd.Proto.client_of_line "{\"type\":\"submit\",\"source\":\"x\"}"));
  check Alcotest.string "submit without source" "bad_request"
    (proto_err (Ucd.Proto.client_of_line "{\"type\":\"submit\",\"name\":\"x\"}"));
  check Alcotest.string "submit with source AND corpus" "bad_request"
    (proto_err
       (Ucd.Proto.client_of_line
          "{\"type\":\"submit\",\"name\":\"x\",\"source\":\"s\",\"corpus\":\"c\"}"));
  check Alcotest.string "hello without version" "bad_request"
    (proto_err (Ucd.Proto.client_of_line "{\"type\":\"hello\"}"));
  check Alcotest.string "hello with bad priority" "bad_request"
    (proto_err
       (Ucd.Proto.client_of_line
          "{\"type\":\"hello\",\"version\":1,\"priority\":\"urgent\"}"));
  (* a known job knob of the wrong kind (or an unusable value) is a
     typed error naming the field, never a silent default *)
  List.iter
    (fun (field, value) ->
      let frame =
        Printf.sprintf "{\"type\":\"submit\",\"name\":\"x\",\"corpus\":\"quickstart\",\"%s\":%s}"
          field value
      in
      match Ucd.Proto.client_of_line frame with
      | Error (Ucd.Proto.Bad_request, msg) ->
          check Alcotest.bool
            (Printf.sprintf "%s=%s: message names the field" field value)
            true
            (Astring.String.is_infix ~affix:(Printf.sprintf "%S" field) msg)
      | Error (code, _) ->
          Alcotest.failf "%s=%s: %s, not bad_request" field value
            (Ucd.Proto.code_string code)
      | Ok _ -> Alcotest.failf "%s=%s: accepted" field value)
    [
      ("seed", "\"7\"");
      ("fuel", "5.5");
      ("no_news", "\"yes\"");
      ("engine", "\"warp\"");
      ("deadline", "\"soon\"");
      ("faults", "\"zorp@1\"");
    ];
  (* unknown fields are ignored: additive protocol evolution *)
  (match
     Ucd.Proto.client_of_line
       "{\"type\":\"status\",\"job\":7,\"future_field\":true}"
   with
  | Ok (Ucd.Proto.Status 7) -> ()
  | _ -> Alcotest.fail "unknown fields must be ignored")

let test_oversized_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
  @@ fun () ->
  let r = Ucd.Proto.reader ~max_frame:64 a in
  let send s = ignore (Unix.write b (Bytes.of_string s) 0 (String.length s)) in
  (* an oversized line, delivered in pieces, then a healthy frame: the
     reader must report Oversized exactly once, stay in sync, and parse
     the next frame *)
  send (String.make 100 'x');
  send (String.make 100 'y');
  send "\n";
  send "{\"type\":\"stats\"}\n";
  (match Ucd.Proto.read_frame r with
  | `Oversized -> ()
  | `Frame f -> Alcotest.failf "expected oversized, got frame %s" f
  | `Eof -> Alcotest.fail "expected oversized, got eof");
  (match Ucd.Proto.read_frame r with
  | `Frame "{\"type\":\"stats\"}" -> ()
  | `Frame f -> Alcotest.failf "wrong frame after oversized: %s" f
  | _ -> Alcotest.fail "expected a frame after the oversized one");
  Unix.close b;
  match Ucd.Proto.read_frame r with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected eof"

(* ---------------- jsonu: byte transparency (satellite) ------------- *)

let test_jsonu_hostile_strings () =
  List.iter
    (fun s ->
      let rendered = Ucd.Jsonu.to_string (Ucd.Jsonu.Str s) in
      match Ucd.Jsonu.of_string rendered with
      | Ok (Ucd.Jsonu.Str back) ->
          check Alcotest.string ("round trip of " ^ String.escaped s) s back
      | Ok _ -> Alcotest.fail "parsed to a non-string"
      | Error e -> Alcotest.failf "%s did not parse: %s" rendered e)
    [
      "";
      "\x00\x01\x02\x1f";
      "tab\there\nand newline";
      "quote\"and\\backslash";
      "\x7f";
      "\x80\xff\xfe";
      "h\xc3\xa9llo utf-8";
      String.init 256 Char.chr;
    ]

let qcheck_jsonu_string_round_trip =
  QCheck.Test.make ~count:500 ~name:"jsonu string round trip (all bytes)"
    (QCheck.make
       ~print:String.escaped
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (0 -- 80)))
    (fun s ->
      match Ucd.Jsonu.of_string (Ucd.Jsonu.to_string (Ucd.Jsonu.Str s)) with
      | Ok (Ucd.Jsonu.Str back) -> String.equal s back
      | _ -> false)

let qcheck_report_round_trip =
  (* the report wire codec: to_json → of_json preserves the canonical
     identity for arbitrary output lines and metrics *)
  QCheck.Test.make ~count:200 ~name:"report row wire round trip"
    QCheck.(
      triple (small_list string)
        (small_list (pair string (map float_of_int small_nat)))
        small_nat)
    (fun (output, metrics, attempts) ->
      let r =
        {
          Ucd.Report.job_name = "t";
          digest = "d";
          options = "o";
          engine = "fast";
          engine_effective = "fast";
          seed = 42;
          tuned = false;
          status = Ucd.Report.Done;
          simulated_seconds = 0.125;
          metrics;
          output;
          wall_seconds = 1.5;
          from_cache = false;
          attempts;
          fault_trace = [];
        }
      in
      match Ucd.Report.of_json (Ucd.Report.to_json r) with
      | Ok back ->
          String.equal (Ucd.Report.canonical_json r)
            (Ucd.Report.canonical_json back)
      | Error _ -> false)

(* ---------------- pool + sessions ---------------- *)

let test_pool_try_submit_overload () =
  let svc = Ucd.Pool.service ~domains:1 ~queue_bound:1 () in
  let gate = Mutex.create () and go = Condition.create () in
  let release = ref false in
  let blocker () =
    Mutex.lock gate;
    while not !release do
      Condition.wait go gate
    done;
    Mutex.unlock gate
  in
  (* first task occupies the only domain... *)
  (match Ucd.Pool.try_submit svc blocker with
  | `Accepted -> ()
  | _ -> Alcotest.fail "first submit must be accepted");
  (* wait until the worker actually picked it up *)
  let rec until_busy n =
    if n = 0 then Alcotest.fail "worker never started the blocker";
    let st = Ucd.Pool.service_stats svc in
    if st.Ucd.Pool.busy = 0 then begin
      Thread.delay 0.01;
      until_busy (n - 1)
    end
  in
  until_busy 500;
  (* ...second fills the queue... *)
  (match Ucd.Pool.try_submit svc (fun () -> ()) with
  | `Accepted -> ()
  | _ -> Alcotest.fail "second submit must be accepted (queued)");
  (* ...third must be rejected, not block *)
  (match Ucd.Pool.try_submit svc (fun () -> ()) with
  | `Overloaded -> ()
  | `Accepted -> Alcotest.fail "third submit must be rejected"
  | `Closed -> Alcotest.fail "pool is not closed");
  Mutex.lock gate;
  release := true;
  Condition.broadcast go;
  Mutex.unlock gate;
  Ucd.Pool.close svc;
  check Alcotest.bool "drained" true (Ucd.Pool.drain ~timeout:5. svc);
  Ucd.Pool.shutdown svc;
  let st = Ucd.Pool.service_stats svc in
  check Alcotest.int "rejected count" 1 st.Ucd.Pool.rejected_pushes;
  check Alcotest.int "completed" 2 st.Ucd.Pool.completed;
  match Ucd.Pool.try_submit svc (fun () -> ()) with
  | `Closed -> ()
  | _ -> Alcotest.fail "submit after close must report closed"

let test_session_quota () =
  let reg = Ucd.Session.registry ~quotas:[ ("small", 1) ] () in
  let s =
    Ucd.Session.attach reg ~tenant:"small" ~priority:Ucd.Proto.Normal
      ~outbox_capacity:8
  in
  (match Ucd.Session.admit reg s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "first admit refused: %s" e);
  (match Ucd.Session.admit reg s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "second admit must exceed the quota");
  (* the quota spans every session of the tenant *)
  let s2 =
    Ucd.Session.attach reg ~tenant:"small" ~priority:Ucd.Proto.Normal
      ~outbox_capacity:8
  in
  (match Ucd.Session.admit reg s2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "quota must span sessions of one tenant");
  Ucd.Session.finished reg s ~completed:true;
  (match Ucd.Session.admit reg s2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "slot freed but admit refused: %s" e);
  (* unlisted tenants are unlimited by default *)
  let other =
    Ucd.Session.attach reg ~tenant:"other" ~priority:Ucd.Proto.Low
      ~outbox_capacity:8
  in
  for _ = 1 to 50 do
    match Ucd.Session.admit reg other with
    | Ok () -> ()
    | Error e -> Alcotest.failf "unlimited tenant refused: %s" e
  done

let test_stream_two_lanes () =
  let s = Obs.Stream.create ~capacity:2 () in
  check Alcotest.bool "push 1" true (Obs.Stream.push s "a");
  check Alcotest.bool "offer fills" true (Obs.Stream.offer s "b");
  (* full: offer drops and counts, never blocks *)
  check Alcotest.bool "offer drops" false (Obs.Stream.offer s "c");
  check Alcotest.int "dropped counted" 1 (Obs.Stream.dropped s);
  check (Alcotest.option Alcotest.string) "fifo" (Some "a") (Obs.Stream.pop s);
  Obs.Stream.close s;
  check Alcotest.bool "push after close" false (Obs.Stream.push s "d");
  check (Alcotest.option Alcotest.string) "drains after close" (Some "b")
    (Obs.Stream.pop s);
  check (Alcotest.option Alcotest.string) "then none" None (Obs.Stream.pop s)

(* ---------------- loopback servers ---------------- *)

let next_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/ucd_test_%d_%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !n

let base_cfg socket =
  {
    Ucd.Server.default_config with
    Ucd.Server.socket_path = Some socket;
    domains = 2;
    queue_bound = 64;
    drain_timeout = 30.;
  }

let slow_source =
  "int i, acc;\nvoid main() { for (i = 0; i < 100000000; i = i + 1) acc = acc \
   + 1; }\n"

let slow_submit ?(deadline = 0.5) name =
  (* distinct names must be distinct jobs: the content digest ignores
     the display name, so without a per-name seed every slow job would
     dedup onto the first one in flight *)
  {
    (Ucd.Proto.submit_defaults ~name ~source:(Ucd.Proto.Inline slow_source))
    with
    Ucd.Proto.spec = [ ("deadline", Ucd.Jsonu.Float deadline) ];
    seed = Some (Hashtbl.hash name);
  }

let connect_exn ?tenant ?priority socket =
  match Ucd.Client.connect ?tenant ?priority (Ucd.Client.Unix_path socket) with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let corpus_submit name =
  Ucd.Proto.submit_defaults ~name ~source:(Ucd.Proto.Corpus name)

(* the parsed rows of a submit_all, in submission order; a rejection
   fails the test *)
let submitted_rows = function
  | Error e -> Alcotest.failf "submit_all: %s" e
  | Ok (c, outcomes) ->
      Ucd.Client.close c;
      List.map
        (function
          | Ucd.Client.Row { result; _ } -> result
          | Ucd.Client.Rejected { msg; _ } -> Alcotest.failf "rejected: %s" msg
          | Ucd.Client.Pending -> Alcotest.fail "missing report row")
        outcomes

let test_loopback_corpus_identical () =
  (* the acceptance criterion: a corpus submitted over the socket
     yields reports canonically identical to the Runner-based batch
     path — cold, then warm from the server's cache *)
  let reference =
    let cache = Ucd.Cache.create () in
    Ucd.Runner.run_jobs ~domains:2 ~cache (List.map
         (fun (name, source) -> Ucd.Job.make ~name ~source ())
         Uc_programs.Programs.all_named)
  in
  let socket = next_sock () in
  let srv = Ucd.Server.start (base_cfg socket) in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let compare_run tag expect_warm =
    let served =
      submitted_rows
        (Ucd.Client.submit_all ~tenant:"ci" (Ucd.Client.Unix_path socket)
           (List.map (fun (n, _) -> corpus_submit n)
              Uc_programs.Programs.all_named))
    in
    check Alcotest.int (tag ^ ": row count") (List.length reference)
      (List.length served);
    List.iter2
      (fun (a : Ucd.Report.result) (b : Ucd.Report.result) ->
        check Alcotest.string
          (Printf.sprintf "%s: canonical row for %s" tag a.Ucd.Report.job_name)
          (Ucd.Report.canonical_json a)
          (Ucd.Report.canonical_json b))
      reference served;
    if expect_warm then
      check Alcotest.bool (tag ^ ": served from cache") true
        (List.for_all (fun (r : Ucd.Report.result) -> r.Ucd.Report.from_cache)
           served)
  in
  compare_run "cold" false;
  compare_run "warm" true

let test_version_mismatch () =
  let socket = next_sock () in
  let srv = Ucd.Server.start (base_cfg socket) in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let line = "{\"type\":\"hello\",\"version\":99}\n" in
  ignore (Unix.write fd (Bytes.of_string line) 0 (String.length line));
  let r = Ucd.Proto.reader fd in
  (match Ucd.Proto.read_frame r with
  | `Frame l -> (
      match Ucd.Proto.server_of_line l with
      | Ok (Ucd.Proto.Error { code = Ucd.Proto.Version_mismatch; _ }) -> ()
      | Ok m ->
          Alcotest.failf "expected version_mismatch, got %s"
            (Ucd.Proto.server_line m)
      | Error e -> Alcotest.failf "bad reply: %s" e)
  | _ -> Alcotest.fail "expected an error frame");
  (* and the server hangs up on us *)
  match Ucd.Proto.read_frame r with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected eof after version mismatch"

let test_hello_required_first () =
  let socket = next_sock () in
  let srv = Ucd.Server.start (base_cfg socket) in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let line = "{\"type\":\"stats\"}\n" in
  ignore (Unix.write fd (Bytes.of_string line) 0 (String.length line));
  let r = Ucd.Proto.reader fd in
  match Ucd.Proto.read_frame r with
  | `Frame l -> (
      match Ucd.Proto.server_of_line l with
      | Ok (Ucd.Proto.Error { code = Ucd.Proto.Protocol; _ }) -> ()
      | _ -> Alcotest.failf "expected a protocol error, got %s" l)
  | _ -> Alcotest.fail "expected an error frame"

let recv_replies c ~n =
  (* collect exactly [n] accepted/rejected replies, ignoring reports *)
  let replies = ref [] in
  while List.length !replies < n do
    match Ucd.Client.recv c with
    | Error e -> Alcotest.failf "recv: %s" e
    | Ok (Ucd.Proto.Accepted _ as m) | Ok (Ucd.Proto.Rejected _ as m) ->
        replies := m :: !replies
    | Ok _ -> ()
  done;
  List.rev !replies

let test_overload_rejection () =
  let socket = next_sock () in
  let cfg =
    { (base_cfg socket) with Ucd.Server.domains = 1; queue_bound = 1 }
  in
  let srv = Ucd.Server.start cfg in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  let submit name =
    match Ucd.Client.send c (Ucd.Proto.Submit (slow_submit name)) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "send: %s" e
  in
  (* first job occupies the single domain; wait until it is running *)
  submit "s1";
  (match recv_replies c ~n:1 with
  | [ Ucd.Proto.Accepted _ ] -> ()
  | _ -> Alcotest.fail "s1 must be accepted");
  let rec until_busy n =
    if n = 0 then Alcotest.fail "s1 never started";
    match Ucd.Client.stats c with
    | Error e -> Alcotest.failf "stats: %s" e
    | Ok (Ucd.Jsonu.Obj fields) -> (
        match List.assoc_opt "pool" fields with
        | Some (Ucd.Jsonu.Obj pool)
          when List.assoc_opt "busy" pool = Some (Ucd.Jsonu.Int 1) ->
            ()
        | _ ->
            Thread.delay 0.01;
            until_busy (n - 1))
    | Ok _ -> Alcotest.fail "stats reply is not an object"
  in
  until_busy 500;
  (* second fills the queue, third must get a typed overloaded reply *)
  submit "s2";
  submit "s3";
  (match recv_replies c ~n:2 with
  | [ Ucd.Proto.Accepted _;
      Ucd.Proto.Rejected { code = Ucd.Proto.Overloaded; _ } ] ->
      ()
  | [ a; b ] ->
      Alcotest.failf "expected accept then overloaded, got %s / %s"
        (Ucd.Proto.server_line a) (Ucd.Proto.server_line b)
  | _ -> Alcotest.fail "expected two replies")

(* a mistyped knob is refused per submission, with the submit's ref,
   and the session carries on *)
let test_mistyped_submit_rejection () =
  let socket = next_sock () in
  let srv = Ucd.Server.start (base_cfg socket) in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  let bad =
    {
      (Ucd.Proto.submit_defaults ~name:"q" ~source:(Ucd.Proto.Corpus "quickstart"))
      with
      Ucd.Proto.client_ref = Some "r-bad";
      spec = [ ("fuel", Ucd.Jsonu.Float 5.5) ];
    }
  in
  (match Ucd.Client.send c (Ucd.Proto.Submit bad) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  (match recv_replies c ~n:1 with
  | [ Ucd.Proto.Rejected { client_ref = Some "r-bad"; code = Ucd.Proto.Bad_request; msg } ]
    ->
      check Alcotest.bool "names the field" true
        (Astring.String.is_infix ~affix:"\"fuel\"" msg)
  | replies ->
      Alcotest.failf "expected one bad_request rejection, got %s"
        (String.concat " / " (List.map Ucd.Proto.server_line replies)));
  match Ucd.Client.stats c with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "session did not survive: %s" e

let test_quota_rejection () =
  let socket = next_sock () in
  let cfg = { (base_cfg socket) with Ucd.Server.quotas = [ ("small", 1) ] } in
  let srv = Ucd.Server.start cfg in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let c = connect_exn ~tenant:"small" socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  (match Ucd.Client.send c (Ucd.Proto.Submit (slow_submit "q1")) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  (match Ucd.Client.send c (Ucd.Proto.Submit (slow_submit "q2")) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  match recv_replies c ~n:2 with
  | [ Ucd.Proto.Accepted _; Ucd.Proto.Rejected { code = Ucd.Proto.Quota; _ } ]
    ->
      ()
  | [ a; b ] ->
      Alcotest.failf "expected accept then quota, got %s / %s"
        (Ucd.Proto.server_line a) (Ucd.Proto.server_line b)
  | _ -> Alcotest.fail "expected two replies"

let test_trace_streaming () =
  let socket = next_sock () in
  let srv = Ucd.Server.start (base_cfg socket) in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  (match Ucd.Client.set_trace c true with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "trace not enabled"
  | Error e -> Alcotest.failf "set_trace: %s" e);
  (match
     Ucd.Client.send c
       (Ucd.Proto.Submit
          (Ucd.Proto.submit_defaults ~name:"matmul"
             ~source:(Ucd.Proto.Corpus "matmul")))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  (* a fast job can finish — trace events and report row enqueued by
     the worker — before the reader thread enqueues the [accepted]
     frame, so pump until both the ack and the report have arrived and
     compare ids at the end *)
  let trace_jobs = ref [] and my_job = ref (-1) and report = ref None in
  while !report = None || !my_job < 0 do
    match Ucd.Client.recv c with
    | Error e -> Alcotest.failf "recv: %s" e
    | Ok (Ucd.Proto.Accepted { job; _ }) -> my_job := job
    | Ok (Ucd.Proto.Trace_event { job; event }) ->
        trace_jobs := job :: !trace_jobs;
        (* events round-trip through the generic event codec *)
        (match Obs.event_of_json event with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "bad trace event: %s" e)
    | Ok (Ucd.Proto.Report { row; _ }) -> report := Some row
    | Ok (Ucd.Proto.Rejected { msg; _ }) -> Alcotest.failf "rejected: %s" msg
    | Ok _ -> ()
  done;
  check Alcotest.bool "submit was acked" true (!my_job >= 0);
  check Alcotest.bool "saw live trace events" true (!trace_jobs <> []);
  List.iter
    (fun job -> check Alcotest.int "trace events carry the job id" !my_job job)
    !trace_jobs

let test_drain_flushes_reports () =
  (* a drain request with a job still running: the report must still be
     delivered, then a shutdown notice, then EOF; the server exits 0 *)
  let socket = next_sock () in
  let srv =
    Ucd.Server.start
      { (base_cfg socket) with Ucd.Server.domains = 1; drain_timeout = 30. }
  in
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  (match Ucd.Client.send c (Ucd.Proto.Submit (slow_submit ~deadline:0.3 "d1"))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  (match recv_replies c ~n:1 with
  | [ Ucd.Proto.Accepted _ ] -> ()
  | _ -> Alcotest.fail "d1 must be accepted");
  (match Ucd.Client.drain c with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "drain: %s" e);
  let got_report = ref false and got_shutdown = ref false in
  let rec pump () =
    match Ucd.Client.recv c with
    | Error _ -> ()  (* eof after shutdown *)
    | Ok (Ucd.Proto.Report _) ->
        got_report := true;
        pump ()
    | Ok (Ucd.Proto.Shutdown _) ->
        got_shutdown := true;
        pump ()
    | Ok _ -> pump ()
  in
  pump ();
  check Alcotest.bool "report flushed during drain" true !got_report;
  check Alcotest.bool "shutdown notice delivered" true !got_shutdown;
  check Alcotest.int "clean drain exits 0" 0 (Ucd.Server.stop srv)

(* ---------------- hardening: crash, eviction, privilege, flush ----- *)

let test_crash_result_row () =
  (* the row a crashing job (escaped Out_of_memory/Stack_overflow)
     turns into — both run_jobs and the serve daemon rely on it *)
  let job = Ucd.Job.make ~name:"boom" ~source:"void main() {}" () in
  let r = Ucd.Runner.crash_result job Stack_overflow in
  check Alcotest.string "name" "boom" r.Ucd.Report.job_name;
  (match r.Ucd.Report.status with
  | Ucd.Report.Failed _ -> ()
  | _ -> Alcotest.fail "crash must render as Failed");
  check Alcotest.bool "not cached" false r.Ucd.Report.from_cache;
  check Alcotest.int "one attempt" 1 r.Ucd.Report.attempts;
  match Ucd.Report.of_json (Ucd.Report.to_json r) with
  | Ok back ->
      check Alcotest.string "wire round trip"
        (Ucd.Report.canonical_json r)
        (Ucd.Report.canonical_json back)
  | Error e -> Alcotest.failf "bad row: %s" e

let submit_inline c ~name source =
  match
    Ucd.Client.send c
      (Ucd.Proto.Submit
         (Ucd.Proto.submit_defaults ~name ~source:(Ucd.Proto.Inline source)))
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e

let test_failed_job_releases_quota () =
  (* a job that fails must still deliver a report and release the
     tenant's in-flight slot — a failure path that skipped
     Session.finished would wedge the tenant at its quota forever *)
  let socket = next_sock () in
  let cfg = { (base_cfg socket) with Ucd.Server.quotas = [ ("small", 1) ] } in
  let srv = Ucd.Server.start cfg in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let c = connect_exn ~tenant:"small" socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  submit_inline c ~name:"broken" "this is not a uc program";
  let got_report = ref false in
  while not !got_report do
    match Ucd.Client.recv c with
    | Error e -> Alcotest.failf "recv: %s" e
    | Ok (Ucd.Proto.Report { row; _ }) -> (
        got_report := true;
        match Ucd.Report.of_json row with
        | Ok { Ucd.Report.status = Ucd.Report.Failed _; _ } -> ()
        | Ok _ -> Alcotest.fail "broken job must report failed"
        | Error e -> Alcotest.failf "bad row: %s" e)
    | Ok (Ucd.Proto.Rejected { msg; _ }) -> Alcotest.failf "rejected: %s" msg
    | Ok _ -> ()
  done;
  submit_inline c ~name:"after-failure" "void main() {}";
  match recv_replies c ~n:1 with
  | [ Ucd.Proto.Accepted _ ] -> ()
  | [ m ] -> Alcotest.failf "quota slot leaked: %s" (Ucd.Proto.server_line m)
  | _ -> Alcotest.fail "expected one reply"

let test_status_eviction () =
  (* finished jobs leave the live table; only the most recent
     [recent_results] outcomes stay queryable (bounded memory) *)
  let socket = next_sock () in
  let cfg =
    { (base_cfg socket) with Ucd.Server.domains = 1; recent_results = 2 }
  in
  let srv = Ucd.Server.start cfg in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  (* one at a time, so completion (= retirement) order is submission
     order *)
  let run_one name =
    submit_inline c ~name "void main() {}";
    let id = ref (-1) and got_report = ref false in
    while not (!got_report && !id >= 0) do
      match Ucd.Client.recv c with
      | Error e -> Alcotest.failf "recv: %s" e
      | Ok (Ucd.Proto.Accepted { job; _ }) -> id := job
      | Ok (Ucd.Proto.Report _) -> got_report := true
      | Ok (Ucd.Proto.Rejected { msg; _ }) -> Alcotest.failf "rejected: %s" msg
      | Ok _ -> ()
    done;
    !id
  in
  let j1 = run_one "e1" in
  let _ = run_one "e2" in
  let j3 = run_one "e3" in
  let status job =
    (match Ucd.Client.send c (Ucd.Proto.Status job) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "send: %s" e);
    match Ucd.Client.recv c with
    | Ok m -> m
    | Error e -> Alcotest.failf "recv: %s" e
  in
  (match status j1 with
  | Ucd.Proto.Error { code = Ucd.Proto.Unknown_job; _ } -> ()
  | m ->
      Alcotest.failf "evicted job must be unknown, got %s"
        (Ucd.Proto.server_line m));
  match status j3 with
  | Ucd.Proto.Status_reply { state = "done"; row = Some _; _ } -> ()
  | m ->
      Alcotest.failf "recent job must still be done-with-row, got %s"
        (Ucd.Proto.server_line m)

let test_drain_denied_over_tcp () =
  (* drain terminates the daemon for everyone: only unix-socket
     (operator) connections may request it *)
  let socket = next_sock () in
  let rec start_with_port tries port =
    match
      Ucd.Server.start
        { (base_cfg socket) with Ucd.Server.tcp_port = Some port }
    with
    | srv -> (srv, port)
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 ->
        start_with_port (tries - 1) (port + 1)
  in
  let srv, port = start_with_port 20 (20000 + (Unix.getpid () mod 20000)) in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let c =
    match Ucd.Client.connect (Ucd.Client.Tcp ("127.0.0.1", port)) with
    | Ok c -> c
    | Error e -> Alcotest.failf "tcp connect: %s" e
  in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  (match Ucd.Client.drain c with
  | Error msg ->
      check Alcotest.bool
        (Printf.sprintf "typed denied error (got %S)" msg)
        true
        (String.length msg >= 6 && String.sub msg 0 6 = "denied")
  | Ok _ -> Alcotest.fail "drain over TCP must be denied");
  (* and the daemon is still serving *)
  submit_inline c ~name:"after-denied-drain" "void main() {}";
  match recv_replies c ~n:1 with
  | [ Ucd.Proto.Accepted _ ] -> ()
  | _ -> Alcotest.fail "server must keep serving after a denied drain"

let chatty_source =
  (* ~660 KB of print output: the report frame dwarfs any socket
     buffer, so a client that stops reading leaves the server's writer
     blocked mid-frame *)
  "int i;\n\
   void main() { for (i = 0; i < 30000; i = i + 1) \
   print(\"xxxxxxxxxxxxxxxx \", i); }\n"

let test_stalled_client_cannot_wedge_shutdown () =
  let socket = next_sock () in
  let cfg =
    {
      (base_cfg socket) with
      Ucd.Server.domains = 1;
      drain_timeout = 10.;
      flush_timeout = 1.;
    }
  in
  let srv = Ucd.Server.start cfg in
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  submit_inline c ~name:"chatty" chatty_source;
  (* ...and never read again.  Wait until the job is done server-side
     (its huge report now sits in our unread socket), then shut down:
     the bounded flush must force-disconnect us, not hang forever *)
  let rec until_done n =
    if n = 0 then Alcotest.fail "chatty job never finished";
    let done_ =
      match Ucd.Server.stats srv with
      | Ucd.Jsonu.Obj fields -> (
          match List.assoc_opt "server" fields with
          | Some (Ucd.Jsonu.Obj server) ->
              List.assoc_opt "jobs_done" server = Some (Ucd.Jsonu.Int 1)
          | _ -> false)
      | _ -> false
    in
    if not done_ then begin
      Thread.delay 0.05;
      until_done (n - 1)
    end
  in
  until_done 600;
  let t0 = Unix.gettimeofday () in
  let code = Ucd.Server.stop srv in
  check Alcotest.int "clean exit despite stalled client" 0 code;
  check Alcotest.bool "shutdown bounded by the flush timeout" true
    (Unix.gettimeofday () -. t0 < 8.)

(* ---------------- durability: journal, chaos, recovery ------------- *)

let tmpdir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Printf.sprintf "%s/ucd_jtest_%d_%d"
        (Filename.get_temp_dir_name ())
        (Unix.getpid ()) !n
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let recover_exn ?keep dir =
  match Ucd.Journal.recover ?keep ~dir () with
  | Ok (j, rp) -> (j, rp)
  | Error e -> Alcotest.failf "journal recover: %s" e

let corpus_source name =
  match List.assoc_opt name Uc_programs.Programs.all_named with
  | Some src -> src
  | None -> Alcotest.failf "no corpus program %s" name

let corpus_digest name =
  Ucd.Job.digest (Ucd.Job.make ~name ~source:(corpus_source name) ())

let accepted_entry ?digest name =
  let digest = match digest with Some d -> d | None -> corpus_digest name in
  Ucd.Journal.Accepted
    {
      digest;
      name;
      tenant = "t";
      submit =
        Ucd.Proto.submit_obj
          (Ucd.Proto.submit_defaults ~name ~source:(Ucd.Proto.Corpus name));
    }

let test_journal_entry_round_trip () =
  let submit =
    Ucd.Proto.submit_obj
      (Ucd.Proto.submit_defaults ~name:"matmul"
         ~source:(Ucd.Proto.Corpus "matmul"))
  in
  List.iter
    (fun e ->
      match Ucd.Journal.entry_of_json (Ucd.Journal.entry_json e) with
      | Ok back ->
          check Alcotest.string "entry round trip"
            (Ucd.Jsonu.to_string (Ucd.Journal.entry_json e))
            (Ucd.Jsonu.to_string (Ucd.Journal.entry_json back))
      | Error msg -> Alcotest.failf "entry did not round trip: %s" msg)
    [
      Ucd.Journal.Accepted
        { digest = "d1"; name = "matmul"; tenant = "t"; submit };
      Ucd.Journal.Started { digest = "d1" };
      (* checkpoint blobs are binary: every byte must survive *)
      Ucd.Journal.Checkpointed
        { digest = "d1"; ckpt = String.init 256 Char.chr };
      Ucd.Journal.Done_ { digest = "d1"; status = "ok" };
      Ucd.Journal.Faulted { digest = "d1" };
    ]

let test_journal_replay_and_compaction () =
  let dir = tmpdir () in
  let j, rp0 = recover_exn dir in
  check Alcotest.int "fresh journal replays nothing" 0 rp0.Ucd.Journal.replayed;
  List.iter (Ucd.Journal.append j)
    [
      accepted_entry ~digest:"da" "a";
      accepted_entry ~digest:"db" "b";
      accepted_entry ~digest:"dc" "c";
      Ucd.Journal.Started { digest = "db" };
      Ucd.Journal.Checkpointed { digest = "db"; ckpt = "BLOB\x00\x01\xff" };
      Ucd.Journal.Done_ { digest = "da"; status = "ok" };
    ];
  Ucd.Journal.close j;
  let j2, rp = recover_exn dir in
  Ucd.Journal.close j2;
  check Alcotest.int "six records replayed" 6 rp.Ucd.Journal.replayed;
  check Alcotest.int "no corruption" 0 rp.Ucd.Journal.corrupt;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "finished"
    [ ("da", "ok") ]
    rp.Ucd.Journal.finished;
  (match rp.Ucd.Journal.pending with
  | [ b; c ] ->
      check Alcotest.string "pending keeps accept order" "db"
        b.Ucd.Journal.p_digest;
      check Alcotest.bool "b was started" true b.Ucd.Journal.p_started;
      check
        (Alcotest.option Alcotest.string)
        "b's checkpoint blob survives verbatim"
        (Some "BLOB\x00\x01\xff") b.Ucd.Journal.p_ckpt;
      check Alcotest.string "c pending too" "dc" c.Ucd.Journal.p_digest;
      check Alcotest.bool "c never started" false c.Ucd.Journal.p_started
  | l -> Alcotest.failf "expected 2 pending, got %d" (List.length l));
  (* recovery compacted the file down to the pending entries: b keeps
     accepted+started+checkpointed, c keeps accepted, da is gone *)
  let j3, rp3 = recover_exn dir in
  Ucd.Journal.close j3;
  check Alcotest.int "compacted to 4 records" 4 rp3.Ucd.Journal.replayed;
  check Alcotest.int "still 2 pending" 2 (List.length rp3.Ucd.Journal.pending);
  check Alcotest.int "finished entries are not kept" 0
    (List.length rp3.Ucd.Journal.finished)

let test_journal_corrupt_quarantine () =
  let dir = tmpdir () in
  let j, _ = recover_exn dir in
  List.iter (Ucd.Journal.append j)
    [
      accepted_entry ~digest:"da" "a";
      accepted_entry ~digest:"db" "b";
      Ucd.Journal.Done_ { digest = "da"; status = "ok" };
    ];
  Ucd.Journal.close j;
  let file = Ucd.Journal.path ~dir in
  (* append a checksum-divergent record and a torn tail (no newline) —
     exactly what a SIGKILL mid-write leaves behind *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 file in
  output_string oc
    "{\"sum\":\"00000000000000000000000000000000\",\"rec\":{\"t\":\"done\",\"digest\":\"db\",\"status\":\"ok\"}}\n";
  output_string oc "{\"sum\":\"torn mid-wri";
  close_out oc;
  let j2, rp = recover_exn dir in
  Ucd.Journal.close j2;
  check Alcotest.int "good records replayed" 3 rp.Ucd.Journal.replayed;
  check Alcotest.int "both damaged lines quarantined" 2 rp.Ucd.Journal.corrupt;
  (* the forged done(db) was rejected, so db is still pending *)
  (match rp.Ucd.Journal.pending with
  | [ p ] -> check Alcotest.string "db still pending" "db" p.Ucd.Journal.p_digest
  | l -> Alcotest.failf "expected 1 pending, got %d" (List.length l));
  check Alcotest.bool "evidence preserved in .corrupt" true
    (Sys.file_exists (file ^ ".corrupt"))

let test_journal_keep_resurrects_done () =
  (* recovery compacts the journal in place, so each recover reads a
     fresh copy of the same crashed-daemon state *)
  let write_state dir =
    let j, _ = recover_exn dir in
    List.iter (Ucd.Journal.append j)
      [
        accepted_entry ~digest:"da" "a";
        Ucd.Journal.Done_ { digest = "da"; status = "ok" };
      ];
    Ucd.Journal.close j
  in
  (* default: a done job stays done *)
  let d1 = tmpdir () in
  write_state d1;
  let j2, rp = recover_exn d1 in
  Ucd.Journal.close j2;
  check Alcotest.int "not resurrected by default" 0
    (List.length rp.Ucd.Journal.pending);
  (* but the daemon resurrects a done job whose cached report vanished *)
  let d2 = tmpdir () in
  write_state d2;
  let j3, rp3 =
    recover_exn ~keep:(fun ~digest:_ ~status -> status = "ok") d2
  in
  Ucd.Journal.close j3;
  (match rp3.Ucd.Journal.pending with
  | [ p ] ->
      check Alcotest.string "resurrected into pending" "da"
        p.Ucd.Journal.p_digest
  | l -> Alcotest.failf "expected 1 resurrected, got %d" (List.length l));
  check Alcotest.int "and out of finished" 0
    (List.length rp3.Ucd.Journal.finished)

let test_chaos_parse_and_determinism () =
  let plan = "seed=9;horizon=50;resets=3;frames=1;slow=2;disk=1;crash=2" in
  let spec =
    match Ucd.Chaos.parse plan with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse: %s" e
  in
  (* parse >> spec_string is a fixpoint *)
  (match Ucd.Chaos.parse (Ucd.Chaos.spec_string spec) with
  | Ok s2 ->
      check Alcotest.string "canonical fixpoint" (Ucd.Chaos.spec_string spec)
        (Ucd.Chaos.spec_string s2)
  | Error e -> Alcotest.failf "reparse: %s" e);
  (match Ucd.Chaos.parse "resets=oops" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad value must be rejected");
  (match Ucd.Chaos.parse "zaps=3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must be rejected");
  (* same spec, two instantiations: identical fire serials *)
  let trace () =
    let c = Ucd.Chaos.instantiate spec in
    let fires = ref [] in
    for i = 1 to 50 do
      if Ucd.Chaos.fires_reset c ~obs:Obs.null then fires := i :: !fires
    done;
    for i = 1 to 50 do
      if Ucd.Chaos.fires_crash c ~obs:Obs.null then fires := (100 + i) :: !fires
    done;
    (List.rev !fires, Ucd.Chaos.fired c)
  in
  let f1, hits1 = trace () in
  let f2, hits2 = trace () in
  check (Alcotest.list Alcotest.int) "deterministic fire serials" f1 f2;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "deterministic hit counts" hits1 hits2;
  check Alcotest.int "all scheduled resets fired within the horizon" 3
    (List.assoc "resets" hits1);
  check Alcotest.int "all scheduled crashes fired within the horizon" 2
    (List.assoc "crash" hits1)

(* write a journal by hand under [dir], as a crashed daemon would have
   left it, then start a server over it *)
let with_recovered_server ~dir entries f =
  let j, _ = recover_exn dir in
  List.iter (Ucd.Journal.append j) entries;
  Ucd.Journal.close j;
  let socket = next_sock () in
  let srv =
    Ucd.Server.start ~cache_dir:dir
      { (base_cfg socket) with Ucd.Server.domains = 1 }
  in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  f socket

let await_digest_done c digest =
  let rec go n =
    if n = 0 then Alcotest.failf "digest %s never reached done" digest
    else
      match Ucd.Client.status_digest c digest with
      | Error e -> Alcotest.failf "status_digest: %s" e
      | Ok ("done", Some row) -> row
      | Ok _ ->
          Thread.delay 0.05;
          go (n - 1)
  in
  go 200

let reference_row name =
  let cache = Ucd.Cache.create () in
  Ucd.Runner.run_job ~cache
    (Ucd.Job.make ~name ~source:(corpus_source name) ())

let test_recovery_requeues_accepted_job () =
  (* an accepted-but-unfinished journal entry: the restarted daemon
     requeues it and the recomputed row equals the batch path's *)
  let dir = tmpdir () in
  let digest = corpus_digest "matmul" in
  with_recovered_server ~dir
    [ accepted_entry "matmul"; Ucd.Journal.Started { digest } ]
  @@ fun socket ->
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  let row = await_digest_done c digest in
  match Ucd.Report.of_json row with
  | Error e -> Alcotest.failf "bad recovered row: %s" e
  | Ok r ->
      check Alcotest.string "recovered row ≡ batch row"
        (Ucd.Report.canonical_json (reference_row "matmul"))
        (Ucd.Report.canonical_json { r with Ucd.Report.from_cache = false })

let test_recovery_survives_stale_checkpoint () =
  (* the journaled checkpoint blob belongs to a different program (the
     source changed across the restart): the digest guard must reject
     it and the job must restart from scratch, not crash or resume into
     the wrong machine *)
  let stale_blob =
    let compiled = Uc.Compile.lower (Uc.Compile.parse_source (corpus_source "reciprocal")) in
    let t = Uc.Compile.start_compiled compiled in
    ignore (Uc.Compile.step t ~fuel_slice:50);
    Uc.Compile.checkpoint t
  in
  let dir = tmpdir () in
  let digest = corpus_digest "matmul" in
  with_recovered_server ~dir
    [
      accepted_entry "matmul";
      Ucd.Journal.Started { digest };
      Ucd.Journal.Checkpointed { digest; ckpt = stale_blob };
    ]
  @@ fun socket ->
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  let row = await_digest_done c digest in
  match Ucd.Report.of_json row with
  | Error e -> Alcotest.failf "bad recovered row: %s" e
  | Ok r ->
      check Alcotest.string "fresh-start row ≡ batch row"
        (Ucd.Report.canonical_json (reference_row "matmul"))
        (Ucd.Report.canonical_json { r with Ucd.Report.from_cache = false })

let test_recovery_recomputes_missing_report () =
  (* a done record whose cached report artifact is gone: replay must
     resurrect and recompute it, not answer "done" with nothing *)
  let dir = tmpdir () in
  let digest = corpus_digest "matmul" in
  with_recovered_server ~dir
    [ accepted_entry "matmul"; Ucd.Journal.Done_ { digest; status = "ok" } ]
  @@ fun socket ->
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  let row = await_digest_done c digest in
  match Ucd.Report.of_json row with
  | Error e -> Alcotest.failf "bad recovered row: %s" e
  | Ok r ->
      check Alcotest.string "recomputed row ≡ batch row"
        (Ucd.Report.canonical_json (reference_row "matmul"))
        (Ucd.Report.canonical_json { r with Ucd.Report.from_cache = false })

let test_resubmit_in_flight_digest_joins () =
  (* resubmitting an in-flight digest must not run the job twice: both
     resubmissions get a [resumed] frame naming the same job id, and
     each watcher ack yields exactly one report frame *)
  let socket = next_sock () in
  let srv =
    Ucd.Server.start { (base_cfg socket) with Ucd.Server.domains = 1 }
  in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let c1 = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c1) @@ fun () ->
  let sub = slow_submit ~deadline:5. "dup" in
  (match Ucd.Client.send c1 (Ucd.Proto.Submit sub) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  let owner_id =
    match recv_replies c1 ~n:1 with
    | [ Ucd.Proto.Accepted { job; _ } ] -> job
    | _ -> Alcotest.fail "owner submit must be accepted"
  in
  let c2 = connect_exn socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c2) @@ fun () ->
  (match Ucd.Client.send c2 (Ucd.Proto.Submit sub) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  (match Ucd.Client.send c2 (Ucd.Proto.Submit sub) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  let resumed = ref [] and reports = ref 0 in
  while List.length !resumed < 2 || !reports < 2 do
    match Ucd.Client.recv c2 with
    | Error e -> Alcotest.failf "recv: %s" e
    | Ok (Ucd.Proto.Resumed { job; _ }) -> resumed := job :: !resumed
    | Ok (Ucd.Proto.Accepted _) ->
        Alcotest.fail "in-flight resubmit must resume, not accept"
    | Ok (Ucd.Proto.Report _) -> incr reports
    | Ok (Ucd.Proto.Rejected { msg; _ }) -> Alcotest.failf "rejected: %s" msg
    | Ok _ -> ()
  done;
  (match !resumed with
  | [ a; b ] ->
      check Alcotest.int "both resubmits name the owner's job id" owner_id a;
      check Alcotest.int "and the same id twice" a b
  | _ -> Alcotest.fail "expected two resumed frames");
  check Alcotest.int "one report frame per watcher ack" 2 !reports;
  (* the owner still gets exactly one *)
  let owner_reports = ref 0 in
  (try
     while !owner_reports < 1 do
       match Ucd.Client.recv c1 with
       | Error e -> Alcotest.failf "owner recv: %s" e
       | Ok (Ucd.Proto.Report _) -> incr owner_reports
       | Ok _ -> ()
     done
   with _ -> ());
  check Alcotest.int "owner got its report" 1 !owner_reports

let test_server_status_over_socket () =
  let dir = tmpdir () in
  let socket = next_sock () in
  let srv = Ucd.Server.start ~cache_dir:dir (base_cfg socket) in
  Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
  let c = connect_exn ~tenant:"ops" socket in
  Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
  submit_inline c ~name:"s1" "void main() {}";
  (match recv_replies c ~n:1 with
  | [ Ucd.Proto.Accepted _ ] -> ()
  | _ -> Alcotest.fail "submit must be accepted");
  match Ucd.Client.server_status c with
  | Error e -> Alcotest.failf "server_status: %s" e
  | Ok (Ucd.Jsonu.Obj fields) ->
      let has k = List.mem_assoc k fields in
      List.iter
        (fun k ->
          check Alcotest.bool (Printf.sprintf "status has %S" k) true (has k))
        [ "version"; "uptime_seconds"; "jobs"; "pool"; "journal"; "chaos"; "tenants" ];
      (match List.assoc "journal" fields with
      | Ucd.Jsonu.Obj j ->
          check Alcotest.bool "journal enabled with a cache dir" true
            (List.assoc_opt "enabled" j = Some (Ucd.Jsonu.Bool true))
      | _ -> Alcotest.fail "journal field is not an object");
      (match List.assoc "tenants" fields with
      | Ucd.Jsonu.List (_ :: _) -> ()
      | Ucd.Jsonu.List [] ->
          Alcotest.fail "tenant usage must list the in-flight tenant"
      | _ -> Alcotest.fail "tenants field is not a list")
  | Ok _ -> Alcotest.fail "server_status reply is not an object"

let test_chaos_soak_no_lost_jobs () =
  (* a chaotic server: resets, torn frames, stalls, disk failures and
     worker crashes — a persistent client that reconnects and resubmits
     by digest still lands every job, with rows identical to the
     batch path.  The soak sends ~11 frames (hello, ten submits) and
     receives ~21 (welcome, ten acks, ten rows), so events are drawn
     over the first 11 serials of each: every scheduled reset and torn
     frame lands on a frame the soak exchanges *)
  let horizon = 11 in
  let spec =
    match
      Ucd.Chaos.parse
        (Printf.sprintf "seed=5;horizon=%d;resets=4;frames=3;slow=3;disk=2;crash=3"
           horizon)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "chaos parse: %s" e
  in
  (* the distinct serials the plan schedules, per category *)
  let scheduled fires =
    let c = Ucd.Chaos.instantiate spec in
    List.length (List.filter (fun _ -> fires c ~obs:Obs.null) (List.init horizon Fun.id))
  in
  let dir = tmpdir () in
  let socket = next_sock () in
  let obs = Obs.create () in
  let srv =
    Ucd.Server.start ~obs ~cache_dir:dir
      { (base_cfg socket) with Ucd.Server.chaos = Some spec }
  in
  let names =
    List.filteri (fun i _ -> i < 10)
      (List.map fst Uc_programs.Programs.all_named)
  in
  let rows =
    Fun.protect ~finally:(fun () -> ignore (Ucd.Server.stop srv)) @@ fun () ->
    submitted_rows
      (Ucd.Client.submit_all ~reconnect:true (Ucd.Client.Unix_path socket)
         (List.map corpus_submit names))
  in
  List.iter2
    (fun name (r : Ucd.Report.result) ->
      check Alcotest.string
        (Printf.sprintf "chaos row for %s ≡ batch row" name)
        (Ucd.Report.canonical_json (reference_row name))
        (Ucd.Report.canonical_json { r with Ucd.Report.from_cache = false }))
    names rows;
  let fired key =
    match List.assoc_opt ("ucd.chaos." ^ key) (Obs.table obs) with
    | Some (Obs.Json.Int n) -> n
    | _ -> 0
  in
  let resets = scheduled Ucd.Chaos.fires_reset in
  let frames = scheduled Ucd.Chaos.fires_frame in
  check Alcotest.bool "the plan schedules resets and torn frames" true
    (resets > 0 && frames > 0);
  check Alcotest.int "all scheduled resets fired within the horizon" resets
    (fired "resets");
  check Alcotest.int "all scheduled torn frames fired within the horizon" frames
    (fired "frames")

(* ---------------- the client submit session ---------------- *)

let test_malformed_report_row () =
  (* a fake daemon acks the submit, then sends a report row that is not
     a report: the session must fail naming the job, not count the row
     as neither success nor failure *)
  let socket = next_sock () in
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX socket);
  Unix.listen lsock 1;
  let fake () =
    let fd, _ = Unix.accept lsock in
    let r = Ucd.Proto.reader fd in
    let reply msg =
      let line = Ucd.Proto.server_line msg ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line))
    in
    ignore (Ucd.Proto.read_frame r);
    reply (Ucd.Proto.Welcome { version = Ucd.Proto.version; session = 1; server = "fake" });
    ignore (Ucd.Proto.read_frame r);
    reply (Ucd.Proto.Accepted { client_ref = Some "0"; job = 1; digest = "d" });
    reply
      (Ucd.Proto.Report
         { job = 1; row = Ucd.Jsonu.Obj [ ("job", Ucd.Jsonu.Str "matmul") ] });
    (* until the client hangs up *)
    ignore (Ucd.Proto.read_frame r);
    Unix.close fd
  in
  let th = Thread.create fake () in
  let result =
    Ucd.Client.submit_all (Ucd.Client.Unix_path socket) [ corpus_submit "matmul" ]
  in
  Thread.join th;
  Unix.close lsock;
  Sys.remove socket;
  match result with
  | Ok _ -> Alcotest.fail "a malformed report row must be an error"
  | Error e ->
      check Alcotest.bool ("error names the job: " ^ e) true
        (Astring.String.is_infix ~affix:"matmul" e)

(* A frame-forwarding proxy on [front] in front of the daemon on [back].
   Every frame is logged (connection number, direction, line) before it
   is passed on, so a row the client read on one connection is logged
   before the next connection's submits.  [before_up] sees each client
   frame before it is forwarded, and may hold it there.  Returns the
   function that stops it and hands back the log. *)
let wire_proxy ?(before_up = fun _ -> ()) ~front ~back () =
  let log = ref [] and lock = Mutex.create () in
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX front);
  Unix.listen lsock 8;
  let pipe conn dir src dst ends =
    let r = Ucd.Proto.reader src in
    let rec go () =
      match Ucd.Proto.read_frame r with
      | `Frame line ->
          if dir = `Up then before_up line;
          Mutex.protect lock (fun () -> log := (conn, dir, line) :: !log);
          let s = line ^ "\n" in
          if
            try Unix.write_substring dst s 0 (String.length s) > 0
            with Unix.Unix_error _ -> false
          then go ()
      | `Eof | `Oversized | (exception Unix.Unix_error _) -> ()
    in
    go ();
    (* half-close, so the other direction still delivers what it has;
       the second direction to end closes both *)
    (try Unix.shutdown dst Unix.SHUTDOWN_SEND with _ -> ());
    if Atomic.fetch_and_add ends 1 = 1 then List.iter Unix.close [ src; dst ]
  in
  let rec accept conn =
    match Unix.accept lsock with
    | exception Unix.Unix_error _ -> ()
    | client, _ ->
        let server = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (match Unix.connect server (Unix.ADDR_UNIX back) with
        | () ->
            let ends = Atomic.make 0 in
            List.iter
              (fun (dir, src, dst) ->
                ignore (Thread.create (fun () -> pipe conn dir src dst ends) ()))
              [ (`Up, client, server); (`Down, server, client) ]
        | exception Unix.Unix_error _ -> List.iter Unix.close [ client; server ]);
        accept (conn + 1)
  in
  let th = Thread.create accept 0 in
  fun () ->
    Unix.shutdown lsock Unix.SHUTDOWN_ALL;
    Unix.close lsock;
    Thread.join th;
    Sys.remove front;
    List.rev !log

(* Which submissions a connection finished: those it carried a
   rejection for, or an ack and that job's row.  A draining daemon's
   shutting_down rejection finishes nothing: the session resubmits it
   to the next daemon.  [ref -> first connection]. *)
let finished_on wire =
  let finished = Hashtbl.create 16 and acks = ref [] and rows = ref [] in
  let finish r conn =
    match Hashtbl.find_opt finished r with
    | Some c when c <= conn -> ()
    | _ -> Hashtbl.replace finished r conn
  in
  List.iter
    (fun (conn, dir, line) ->
      match (dir, Ucd.Proto.server_of_line line) with
      | `Down, Ok (Ucd.Proto.Accepted { client_ref = Some r; job; _ })
      | `Down, Ok (Ucd.Proto.Resumed { client_ref = Some r; job; _ }) ->
          acks := ((conn, job), r) :: !acks
      | `Down, Ok (Ucd.Proto.Rejected { client_ref = Some r; code; _ })
        when code <> Ucd.Proto.Shutting_down ->
          finish r conn
      | `Down, Ok (Ucd.Proto.Report { job; _ }) -> rows := (conn, job) :: !rows
      | _ -> ())
    wire;
  List.iter
    (fun (key, r) -> if List.mem key !rows then finish r (fst key))
    !acks;
  finished

let qcheck_submit_all_under_chaos =
  (* under random socket resets, torn frames and at most one daemon
     restart, submit_all ~reconnect yields one row or typed rejection
     per submit, in order, rows ≡ batch, and nothing runs twice *)
  let corpus = List.map fst Uc_programs.Programs.all_named in
  let reference =
    lazy
      (List.combine corpus
         (Ucd.Runner.run_jobs ~domains:2 ~cache:(Ucd.Cache.create ())
            (List.map
               (fun (name, source) -> Ucd.Job.make ~name ~source ())
               Uc_programs.Programs.all_named)))
  in
  (* one cache dir for every case: later cases hit the cache, which is
     when rows overtake their acks *)
  let dir = lazy (tmpdir ()) in
  let gen =
    QCheck.Gen.(
      quad (int_bound 9999)
        (pair (int_bound 3) (int_bound 3))
        (opt (float_bound_inclusive 0.05))
        (map
           (fun mask -> List.filteri (fun i _ -> mask land (1 lsl i) <> 0) corpus)
           (int_bound ((1 lsl List.length corpus) - 1))))
  in
  let print (seed, (resets, frames), restart, names) =
    Printf.sprintf "seed=%d resets=%d frames=%d restart=%s jobs=%s" seed resets
      frames
      (match restart with Some d -> Printf.sprintf "%.3fs" d | None -> "none")
      (String.concat "," names)
  in
  QCheck.Test.make ~count:10 ~name:"submit_all under chaos and a restart"
    (QCheck.make ~print gen)
    (fun (seed, (resets, frames), restart, names) ->
      let n = List.length names in
      let chaos =
        Result.get_ok
          (Ucd.Chaos.parse
             (Printf.sprintf "seed=%d;horizon=%d;resets=%d;frames=%d" seed
                ((2 * n) + 4) resets frames))
      in
      let back = next_sock () and front = next_sock () in
      let start () =
        Ucd.Server.start ~cache_dir:(Lazy.force dir)
          { (base_cfg back) with Ucd.Server.chaos = Some chaos }
      in
      let srv = ref (start ()) and misses = ref [] in
      let stop () =
        ignore (Ucd.Server.stop !srv);
        match Ucd.Server.stats !srv with
        | Ucd.Jsonu.Obj f -> (
            match List.assoc "cache" f with
            | Ucd.Jsonu.Obj c -> misses := List.assoc "run_misses" c :: !misses
            | _ -> ())
        | _ -> ()
      in
      let stop_proxy = wire_proxy ~front ~back () in
      let settled = Atomic.make false and timed_out = ref false in
      (* the restart, then a watchdog that turns a hung session into a
         failure: with the daemon gone for good, redialling gives up *)
      let driver () =
        Option.iter
          (fun d ->
            Thread.delay d;
            stop ();
            srv := start ())
          restart;
        let deadline = Unix.gettimeofday () +. 20. in
        while (not (Atomic.get settled)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        if not (Atomic.get settled) then begin
          timed_out := true;
          stop ()
        end
      in
      let th = Thread.create driver () in
      let result =
        Ucd.Client.submit_all ~reconnect:true (Ucd.Client.Unix_path front)
          (List.map corpus_submit names)
      in
      Atomic.set settled true;
      Thread.join th;
      if not !timed_out then stop ();
      let wire = stop_proxy () in
      let outcomes =
        match result with
        | Ok (c, outcomes) ->
            Ucd.Client.close c;
            outcomes
        | Error e ->
            QCheck.Test.fail_reportf "submit_all failed%s: %s"
              (if !timed_out then " (hung)" else "") e
      in
      if List.length outcomes <> n then
        QCheck.Test.fail_reportf "%d outcomes for %d submits"
          (List.length outcomes) n;
      List.iter2
        (fun name -> function
          | Ucd.Client.Row { result; _ } ->
              if
                Ucd.Report.canonical_json result
                <> Ucd.Report.canonical_json
                     (List.assoc name (Lazy.force reference))
              then QCheck.Test.fail_reportf "row for %s differs from batch" name
          | Ucd.Client.Rejected { code = Ucd.Proto.Shutting_down; _ } ->
              (* the restart drains the daemon: a reconnecting session
                 resubmits what the drain refused to the next one *)
              QCheck.Test.fail_reportf "%s rejected as shutting_down" name
          | Ucd.Client.Rejected _ -> ()
          | Ucd.Client.Pending -> QCheck.Test.fail_reportf "no outcome for %s" name)
        names outcomes;
      let distinct =
        List.length (List.sort_uniq compare (List.map corpus_digest names))
      in
      List.iter
        (function
          | Ucd.Jsonu.Int k when k <= distinct -> ()
          | k ->
              QCheck.Test.fail_reportf "run_misses %s for %d distinct digests"
                (Ucd.Jsonu.to_string k) distinct)
        !misses;
      (* resubmit only unfinished: no submission is sent again on a
         connection after the one that finished it *)
      let finished = finished_on wire in
      List.iter
        (fun (conn, dir, line) ->
          match (dir, Ucd.Proto.client_of_line line) with
          | `Up, Ok (Ucd.Proto.Submit { client_ref = Some r; name; _ }) -> (
              match Hashtbl.find_opt finished r with
              | Some c when c < conn ->
                  QCheck.Test.fail_reportf
                    "%s sent again on connection %d, finished on %d" name conn c
              | _ -> ())
          | _ -> ())
        wire;
      true)

let test_submit_all_rides_out_drain () =
  (* a graceful restart: the daemon drains, kept open by a slow job in
     flight, while a reconnecting session's submits arrive.  The drain
     refuses them as shutting_down; submit_all must send them to the
     next daemon and return their rows, not the refusals *)
  let dir = tmpdir () in
  let back = next_sock () and front = next_sock () in
  let start () = Ucd.Server.start ~cache_dir:dir (base_cfg back) in
  let srv = ref (start ()) in
  let held = Atomic.make false and draining = Atomic.make false in
  (* the client's first submit waits in the proxy until the drain began *)
  let before_up line =
    match Ucd.Proto.client_of_line line with
    | Ok (Ucd.Proto.Submit _) ->
        Atomic.set held true;
        while not (Atomic.get draining) do Thread.delay 0.002 done
    | _ -> ()
  in
  let stop_proxy = wire_proxy ~before_up ~front ~back () in
  let slow = connect_exn back in
  (match Ucd.Client.send slow (Ucd.Proto.Submit (slow_submit "slow")) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "slow submit: %s" e);
  (match Ucd.Client.recv slow with
  | Ok (Ucd.Proto.Accepted _) -> ()
  | _ -> Alcotest.fail "slow job not accepted");
  let restart () =
    while not (Atomic.get held) do Thread.delay 0.002 done;
    ignore (Ucd.Server.request_shutdown !srv);
    Atomic.set draining true;
    ignore (Ucd.Server.stop !srv);
    srv := start ()
  in
  let th = Thread.create restart () in
  let names = [ "matmul"; "ranksort"; "heat" ] in
  let result =
    Ucd.Client.submit_all ~reconnect:true (Ucd.Client.Unix_path front)
      (List.map corpus_submit names)
  in
  Thread.join th;
  Ucd.Client.close slow;
  ignore (Ucd.Server.stop !srv);
  let wire = stop_proxy () in
  (* the drain did refuse the first connection's submits *)
  let refused =
    List.exists
      (fun (conn, dir, line) ->
        conn = 0 && dir = `Down
        &&
        match Ucd.Proto.server_of_line line with
        | Ok (Ucd.Proto.Rejected { code = Ucd.Proto.Shutting_down; _ }) -> true
        | _ -> false)
      wire
  in
  check Alcotest.bool "the drain refused a submit" true refused;
  List.iter2
    (fun name (r : Ucd.Report.result) ->
      check Alcotest.string
        (Printf.sprintf "row for %s after the restart ≡ batch row" name)
        (Ucd.Report.canonical_json (reference_row name))
        (Ucd.Report.canonical_json { r with Ucd.Report.from_cache = false }))
    names (submitted_rows result)

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "client frames round trip" `Quick
            test_client_round_trip;
          Alcotest.test_case "server frames round trip" `Quick
            test_server_round_trip;
          Alcotest.test_case "malformed frames → typed errors" `Quick
            test_malformed_frames;
          Alcotest.test_case "oversized frame rejection" `Quick
            test_oversized_framing;
        ] );
      ( "jsonu",
        [
          Alcotest.test_case "hostile strings round trip" `Quick
            test_jsonu_hostile_strings;
          QCheck_alcotest.to_alcotest qcheck_jsonu_string_round_trip;
          QCheck_alcotest.to_alcotest qcheck_report_round_trip;
        ] );
      ( "admission",
        [
          Alcotest.test_case "pool try_submit overload" `Quick
            test_pool_try_submit_overload;
          Alcotest.test_case "tenant quotas" `Quick test_session_quota;
          Alcotest.test_case "stream lanes" `Quick test_stream_two_lanes;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "corpus over socket ≡ batch (cold+warm)" `Quick
            test_loopback_corpus_identical;
          Alcotest.test_case "version mismatch in hello" `Quick
            test_version_mismatch;
          Alcotest.test_case "hello required first" `Quick
            test_hello_required_first;
          Alcotest.test_case "overloaded rejection" `Quick
            test_overload_rejection;
          Alcotest.test_case "quota rejection" `Quick test_quota_rejection;
          Alcotest.test_case "mistyped submit rejected" `Quick
            test_mistyped_submit_rejection;
          Alcotest.test_case "live trace streaming" `Quick
            test_trace_streaming;
          Alcotest.test_case "drain flushes reports" `Quick
            test_drain_flushes_reports;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "crash renders as a failed row" `Quick
            test_crash_result_row;
          Alcotest.test_case "failed job releases its quota slot" `Quick
            test_failed_job_releases_quota;
          Alcotest.test_case "finished jobs are evicted, window queryable"
            `Quick test_status_eviction;
          Alcotest.test_case "drain denied over TCP" `Quick
            test_drain_denied_over_tcp;
          Alcotest.test_case "stalled client cannot wedge shutdown" `Quick
            test_stalled_client_cannot_wedge_shutdown;
        ] );
      ( "durability",
        [
          Alcotest.test_case "journal entries round trip" `Quick
            test_journal_entry_round_trip;
          Alcotest.test_case "replay + compaction" `Quick
            test_journal_replay_and_compaction;
          Alcotest.test_case "corrupt lines quarantined, never a crash" `Quick
            test_journal_corrupt_quarantine;
          Alcotest.test_case "keep resurrects done-without-artifact" `Quick
            test_journal_keep_resurrects_done;
          Alcotest.test_case "chaos plans parse + fire deterministically"
            `Quick test_chaos_parse_and_determinism;
          Alcotest.test_case "restart requeues accepted job" `Quick
            test_recovery_requeues_accepted_job;
          Alcotest.test_case "stale checkpoint falls back to fresh start"
            `Quick test_recovery_survives_stale_checkpoint;
          Alcotest.test_case "done record with missing report recomputes"
            `Quick test_recovery_recomputes_missing_report;
          Alcotest.test_case "in-flight resubmit joins the same job" `Quick
            test_resubmit_in_flight_digest_joins;
          Alcotest.test_case "ucc status snapshot over socket" `Quick
            test_server_status_over_socket;
          Alcotest.test_case "chaos soak: zero lost, rows ≡ batch" `Slow
            test_chaos_soak_no_lost_jobs;
        ] );
      ( "client",
        [
          Alcotest.test_case "malformed report row is a typed error" `Quick
            test_malformed_report_row;
          QCheck_alcotest.to_alcotest qcheck_submit_all_under_chaos;
          Alcotest.test_case "submit_all rides out a graceful restart" `Quick
            test_submit_all_rides_out_drain;
        ] );
    ]
