(* Client side of the serve protocol: connect, handshake, a thin
   send/recv surface over Proto, and the one submit loop.  Used by `ucc
   submit`, the loopback tests, and the bench load generator.  Blocking
   and single-threaded by design — one request pipeline per connection;
   callers wanting concurrency open more connections. *)

type addr = Unix_path of string | Tcp of string * int

type t = { fd : Unix.file_descr; reader : Proto.reader }

let send t msg =
  match Proto.write_all t.fd (Proto.client_line msg ^ "\n") with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "send failed: %s" (Unix.error_message e))
  | exception _ -> Error "send failed"

let recv t =
  match Proto.read_frame t.reader with
  | `Eof -> Error "connection closed by server"
  | `Oversized -> Error "oversized frame from server"
  | `Frame line -> (
      match Proto.server_of_line line with
      | Ok msg -> Ok msg
      | Error msg -> Error (Printf.sprintf "bad server frame: %s" msg))

let close t = try Unix.close t.fd with _ -> ()

let connect ?(tenant = "anonymous") ?(priority = Proto.Normal) addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let sock () =
    match addr with
    | Unix_path path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
    | Tcp (host, port) ->
        let ip =
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> Unix.inet_addr_of_string host
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (ip, port));
        fd
  in
  match sock () with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "connect failed: %s" (Unix.error_message e))
  | fd -> (
      let t0 = { fd; reader = Proto.reader fd } in
      let hello =
        Proto.Hello { version = Proto.version; tenant; priority }
      in
      match send t0 hello with
      | Error e ->
          close t0;
          Error e
      | Ok () -> (
          match recv t0 with
          | Ok (Proto.Welcome _) -> Ok t0
          | Ok (Proto.Error { code; msg }) ->
              close t0;
              Error
                (Printf.sprintf "server rejected hello: %s: %s"
                   (Proto.code_string code) msg)
          | Ok _ ->
              close t0;
              Error "server did not answer hello with welcome"
          | Error e ->
              close t0;
              Error e))

(* Capped exponential backoff between attempts: 50 ms doubling, capped
   at 1 s, with Runner's seeded jitter so a fleet of identical clients
   hammering a restarting daemon spreads out, reproducibly. *)
let connect_attempts = 12

let connect_retry ?tenant ?priority addr =
  let rec go k =
    match connect ?tenant ?priority addr with
    | Ok t -> Ok t
    | Error e when k + 1 >= connect_attempts ->
        Error (Printf.sprintf "%s (after %d attempts)" e connect_attempts)
    | Error _ ->
        Unix.sleepf
          (Runner.backoff_delay ~base:0.05 ~cap:1.0 ~seed:1 ~attempt:k);
        go (k + 1)
  in
  go 0

(* Wait for a reply satisfying [want], handing every other frame to
   [other] (reports and trace events keep streaming while we wait for a
   stats or drain reply).  An [error] frame is the server's answer to
   the pending request (the pipeline is single-threaded), so it ends
   the wait instead of looping forever. *)
let recv_until t ~other want =
  let rec loop () =
    match recv t with
    | Error e -> Error e
    | Ok (Proto.Error { code; msg }) ->
        Error (Printf.sprintf "%s: %s" (Proto.code_string code) msg)
    | Ok msg -> (
        match want msg with
        | Some v -> Ok v
        | None ->
            other msg;
            loop ())
  in
  loop ()

let stats ?(other = fun _ -> ()) t =
  match send t Proto.Stats with
  | Error e -> Error e
  | Ok () ->
      recv_until t ~other (function
        | Proto.Stats_reply j -> Some j
        | _ -> None)

let drain ?(other = fun _ -> ()) t =
  match send t Proto.Drain with
  | Error e -> Error e
  | Ok () ->
      recv_until t ~other (function
        | Proto.Draining { in_flight } -> Some in_flight
        | _ -> None)

let status_digest ?(other = fun _ -> ()) t digest =
  match send t (Proto.Status_digest digest) with
  | Error e -> Error e
  | Ok () ->
      recv_until t ~other (function
        | Proto.Digest_reply { digest = d; state; row } when d = digest ->
            Some (state, row)
        | _ -> None)

let server_status ?(other = fun _ -> ()) t =
  match send t Proto.Server_status with
  | Error e -> Error e
  | Ok () ->
      recv_until t ~other (function
        | Proto.Server_status_reply j -> Some j
        | _ -> None)

let set_trace ?(other = fun _ -> ()) t enable =
  match send t (Proto.Trace enable) with
  | Error e -> Error e
  | Ok () ->
      recv_until t ~other (function
        | Proto.Trace_reply on -> Some on
        | _ -> None)

type outcome =
  | Row of { row : Jsonu.t; result : Report.result }
  | Rejected of { code : Proto.error_code; msg : string }
  | Pending

(* One blocking submit session.  Submission [i] travels with ref "i";
   [acks] maps a server job id to the indices acked with it whose row
   has not come yet (one report arrives per ack), and [orphans] parks
   rows that overtook their ack (worker thread vs reader thread on the
   server).  Both are per connection: job ids do not survive a
   restart, digests do, so a redial resubmits every unfinished index
   and the server's digest dedup turns each into an attach to the
   still-running job or a cache hit, never a second run. *)
let submit_all ?tenant ?priority ?(reconnect = false) ?(wait = true)
    ?(trace = false) ?(other = fun _ -> ()) addr submits =
  let ( let* ) = Result.bind in
  let subs = Array.of_list submits in
  let n = Array.length subs in
  let out = Array.make n Pending and acked = Array.make n false in
  let acks = Hashtbl.create 16 and orphans = Hashtbl.create 4 in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  let index client_ref =
    match Option.bind client_ref int_of_string_opt with
    | Some i when i >= 0 && i < n -> Some i
    | _ -> None
  in
  let place i row =
    match Report.of_json row with
    | Ok result -> out.(i) <- Row { row; result }
    | Error e ->
        fail
          (Printf.sprintf "report row for job %s does not parse: %s"
             subs.(i).Proto.name e)
  in
  let on_frame = function
    | Proto.Accepted { client_ref; job; _ } | Proto.Resumed { client_ref; job; _ }
      -> (
        match index client_ref with
        | None -> ()
        | Some i -> (
            acked.(i) <- true;
            match Hashtbl.find_opt orphans job with
            | Some row ->
                Hashtbl.remove orphans job;
                place i row
            | None -> Hashtbl.add acks job i))
    (* a draining daemon refuses new work; under [reconnect] the index
       stays unfinished, so the next daemon gets the resubmission *)
    | Proto.Rejected { code = Proto.Shutting_down; _ } when reconnect -> ()
    | Proto.Rejected { client_ref; code; msg } ->
        Option.iter
          (fun i ->
            acked.(i) <- true;
            out.(i) <- Rejected { code; msg })
          (index client_ref)
    | Proto.Report { job; row } -> (
        match Hashtbl.find_opt acks job with
        | Some i ->
            Hashtbl.remove acks job;
            place i row
        | None -> Hashtbl.add orphans job row)
    | Proto.Error { code; msg } ->
        fail (Printf.sprintf "%s: %s" (Proto.code_string code) msg)
    | Proto.Shutdown { msg } when not reconnect ->
        fail ("server shut down: " ^ msg)
    | msg -> other msg
  in
  let finished i = match out.(i) with Pending -> false | _ -> true in
  let settled () =
    let rec go i =
      i = n || ((if wait then finished i else acked.(i)) && go (i + 1))
    in
    go 0
  in
  (* one connection's life: subscribe, send every unfinished index,
     read until settled *)
  let serve c =
    Hashtbl.reset acks;
    Hashtbl.reset orphans;
    Array.iteri (fun i _ -> if not (finished i) then acked.(i) <- false) acked;
    let rec submit i =
      if i = n then Ok ()
      else if finished i then submit (i + 1)
      else
        let* () =
          send c
            (Proto.Submit
               { (subs.(i)) with Proto.client_ref = Some (string_of_int i) })
        in
        submit (i + 1)
    in
    let rec pump () =
      if !failure <> None || settled () then Ok ()
      else
        let* msg = recv c in
        on_frame msg;
        pump ()
    in
    let sent =
      let* () = if trace then send c (Proto.Trace true) else Ok () in
      submit 0
    in
    (* after a failed send the frames already in flight are still read,
       so a row that came before the connection died is not sent again *)
    let read = pump () in
    if Result.is_error sent then sent else read
  in
  let rec session c =
    match (serve c, !failure) with
    | Ok (), None -> Ok (c, Array.to_list out)
    | Error _, None when reconnect ->
        close c;
        let* c = connect_retry ?tenant ?priority addr in
        session c
    | _, Some e | Error e, None ->
        close c;
        Error e
  in
  let* c =
    if reconnect then connect_retry ?tenant ?priority addr
    else connect ?tenant ?priority addr
  in
  session c
