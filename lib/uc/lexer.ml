open Token

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the beginning of the current line *)
}

let make src = { src; pos = 0; line = 1; bol = 0 }
let loc st = Loc.make ~line:st.line ~col:(st.pos - st.bol + 1)
let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_ws_and_comments st =
  match peek st with
  | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_ws_and_comments st
  | '/' when peek2 st = '/' ->
      while (not (eof st)) && peek st <> '\n' do
        advance st
      done;
      skip_ws_and_comments st
  | '/' when peek2 st = '*' ->
      let start = loc st in
      advance st;
      advance st;
      let rec close () =
        if eof st then Loc.error start "unterminated comment"
        else if peek st = '*' && peek2 st = '/' then begin
          advance st;
          advance st
        end
        else begin
          advance st;
          close ()
        end
      in
      close ();
      skip_ws_and_comments st
  | _ -> ()

let lex_number st =
  let start = loc st in
  let first = st.pos in
  while is_digit (peek st) do
    st.pos <- st.pos + 1
  done;
  (* "0..9" must lex as INT 0, DOTDOT, INT 9 *)
  if peek st = '.' && peek2 st <> '.' then begin
    let b = Buffer.create 16 in
    Buffer.add_substring b st.src first (st.pos - first);
    Buffer.add_char b '.';
    advance st;
    while is_digit (peek st) do
      Buffer.add_char b (peek st);
      advance st
    done;
    if peek st = 'e' || peek st = 'E' then begin
      Buffer.add_char b 'e';
      advance st;
      if peek st = '-' || peek st = '+' then begin
        Buffer.add_char b (peek st);
        advance st
      end;
      while is_digit (peek st) do
        Buffer.add_char b (peek st);
        advance st
      done
    end;
    match float_of_string_opt (Buffer.contents b) with
    | Some f -> (FLOAT f, start)
    | None -> Loc.error start "invalid float literal %s" (Buffer.contents b)
  end
  else
    let text = String.sub st.src first (st.pos - first) in
    match int_of_string_opt text with
    | Some i -> (INT i, start)
    | None -> Loc.error start "invalid integer literal %s" text

let lex_ident st =
  let start = loc st in
  let first = st.pos in
  (* an identifier holds no newline, so the line bookkeeping of
     [advance] has nothing to do *)
  while is_alnum (peek st) do
    st.pos <- st.pos + 1
  done;
  let name = String.sub st.src first (st.pos - first) in
  (* "index-set" is a single keyword containing a hyphen *)
  if
    name = "index"
    && peek st = '-'
    && st.pos + 4 <= String.length st.src
    && String.sub st.src (st.pos + 1) 3 = "set"
    && not (st.pos + 4 < String.length st.src && is_alnum st.src.[st.pos + 4])
  then begin
    st.pos <- st.pos + 4;
    (KW_INDEXSET, start)
  end
  else
    match Token.keyword name with
    | Some kw -> (kw, start)
    | None -> (IDENT name, start)

let lex_string st =
  let start = loc st in
  advance st;
  let b = Buffer.create 16 in
  let rec go () =
    if eof st then Loc.error start "unterminated string literal"
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
          advance st;
          (match peek st with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | c -> Buffer.add_char b c);
          advance st;
          go ()
      | c ->
          Buffer.add_char b c;
          advance st;
          go ()
  in
  go ();
  (STRING (Buffer.contents b), start)

(* One raw token (no macro expansion, '#' returned as a directive marker). *)
type raw = Tok of Token.t * Loc.t | Hash of Loc.t | Reof of Loc.t

let next_raw st =
  skip_ws_and_comments st;
  let l = loc st in
  if eof st then Reof l
  else
    let c = peek st in
    if is_digit c then
      let t, l = lex_number st in
      Tok (t, l)
    else if is_alpha c then
      let t, l = lex_ident st in
      Tok (t, l)
    else if c = '"' then
      let t, l = lex_string st in
      Tok (t, l)
    else begin
      let two target tok_two tok_one =
        advance st;
        if peek st = target then begin
          advance st;
          tok_two
        end
        else tok_one
      in
      match c with
      | '#' ->
          advance st;
          Hash l
      | '$' ->
          advance st;
          let r =
            match peek st with
            | '+' -> Ast.Rsum
            | '&' -> Ast.Rland
            | '>' -> Ast.Rmax
            | '<' -> Ast.Rmin
            | '*' -> Ast.Rprod
            | '|' -> Ast.Rlor
            | '^' -> Ast.Rxor
            | ',' -> Ast.Rarb
            | c -> Loc.error l "invalid reduction operator $%c" c
          in
          advance st;
          Tok (RED r, l)
      | '+' -> Tok (two '=' PLUSEQ PLUS, l)
      | '-' -> Tok (two '=' MINUSEQ MINUS, l)
      | '*' -> Tok (two '=' STAREQ STAR, l)
      | '/' -> Tok (two '=' SLASHEQ SLASH, l)
      | '%' -> Tok (two '=' PERCENTEQ PERCENT, l)
      | '=' -> Tok (two '=' EQ ASSIGN, l)
      | '!' -> Tok (two '=' NE NOT, l)
      | '<' ->
          advance st;
          (match peek st with
          | '=' ->
              advance st;
              Tok (LE, l)
          | '<' ->
              advance st;
              Tok (SHL, l)
          | '?' when peek2 st = '=' ->
              advance st;
              advance st;
              Tok (MINASSIGN, l)
          | _ -> Tok (LT, l))
      | '>' ->
          advance st;
          (match peek st with
          | '=' ->
              advance st;
              Tok (GE, l)
          | '>' ->
              advance st;
              Tok (SHR, l)
          | '?' when peek2 st = '=' ->
              advance st;
              advance st;
              Tok (MAXASSIGN, l)
          | _ -> Tok (GT, l))
      | '&' -> Tok (two '&' ANDAND AMP, l)
      | '|' -> Tok (two '|' OROR PIPE, l)
      | '^' ->
          advance st;
          Tok (CARET, l)
      | '~' ->
          advance st;
          Tok (TILDE, l)
      | '?' ->
          advance st;
          Tok (QUESTION, l)
      | ':' ->
          advance st;
          Tok (COLON, l)
      | ';' ->
          advance st;
          Tok (SEMI, l)
      | ',' ->
          advance st;
          Tok (COMMA, l)
      | '(' ->
          advance st;
          Tok (LPAREN, l)
      | ')' ->
          advance st;
          Tok (RPAREN, l)
      | '{' ->
          advance st;
          Tok (LBRACE, l)
      | '}' ->
          advance st;
          Tok (RBRACE, l)
      | '[' ->
          advance st;
          Tok (LBRACKET, l)
      | ']' ->
          advance st;
          Tok (RBRACKET, l)
      | '.' ->
          advance st;
          if peek st = '.' then begin
            advance st;
            Tok (DOTDOT, l)
          end
          else Loc.error l "unexpected '.'"
      | c -> Loc.error l "unexpected character %C" c
    end

let max_macro_depth = 32

module Macros = Hashtbl.Make (String)

let tokenize src =
  let st = make src in
  let macros : Token.t list Macros.t = Macros.create 16 in
  let out = ref [] in
  let rec expand depth tok l =
    match tok with
    | IDENT name -> (
        match Macros.find_opt macros name with
        | Some body ->
            if depth > max_macro_depth then
              Loc.error l "macro expansion too deep for %s (cyclic #define?)"
                name;
            List.iter (fun t -> expand (depth + 1) t l) body
        | None -> out := (tok, l) :: !out)
    | t -> out := (t, l) :: !out
  in
  let read_directive l =
    (* only "#define NAME tokens-to-eol" is supported *)
    let dline = st.line in
    (match next_raw st with
    | Tok (IDENT "define", _) when st.line = dline -> ()
    | Tok (t, dl) -> Loc.error dl "unsupported directive #%s" (Token.to_string t)
    | Hash dl | Reof dl -> Loc.error dl "malformed preprocessor directive");
    let name =
      match next_raw st with
      | Tok (IDENT n, nl) when st.line = dline -> n
      | _ -> Loc.error l "#define expects a macro name on the same line"
    in
    (* gather replacement tokens up to the end of the directive line *)
    let body = ref [] in
    let rec gather () =
      skip_ws_and_comments_until_newline ()
    and skip_ws_and_comments_until_newline () =
      (* stop before consuming tokens on the next line *)
      let save_pos = st.pos and save_line = st.line and save_bol = st.bol in
      match next_raw st with
      | Tok (t, _) when st.line = dline ->
          body := t :: !body;
          gather ()
      | Reof _ -> ()
      | _ ->
          (* token starts on a later line (or a '#'): rewind *)
          st.pos <- save_pos;
          st.line <- save_line;
          st.bol <- save_bol
    in
    gather ();
    Macros.replace macros name (List.rev !body)
  in
  let rec loop () =
    match next_raw st with
    | Reof l ->
        out := (EOF, l) :: !out;
        Array.of_list (List.rev !out)
    | Hash l ->
        read_directive l;
        loop ()
    | Tok (t, l) ->
        expand 0 t l;
        loop ()
  in
  loop ()
