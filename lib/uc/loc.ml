(** Source locations and located errors for the UC front end. *)

type t = { line : int; col : int }

let dummy = { line = 0; col = 0 }
let make ~line ~col = { line; col }

(** The position just past the last character of [src]. *)
let end_of src =
  let line = ref 1 and bol = ref 0 in
  String.iteri (fun i c -> if c = '\n' then (incr line; bol := i + 1)) src;
  { line = !line; col = String.length src - !bol + 1 }

let pp fmt { line; col } = Format.fprintf fmt "%d:%d" line col

(** Raised by every front-end phase (lexer, parser, sema, mapping,
    codegen) on a user-program error. *)
exception Error of t * string

let error loc fmt = Format.kasprintf (fun s -> raise (Error (loc, s))) fmt

let error_to_string = function
  | Error (loc, msg) -> Format.asprintf "%a: %s" pp loc msg
  | e -> Printexc.to_string e
