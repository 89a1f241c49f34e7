(** Lexical tokens of UC. *)

type t =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string                 (* only valid as a print argument *)
  | RED of Ast.redop                 (* $+ $& $> $< $* $| $^ $, *)
  (* keywords *)
  | KW_INT | KW_FLOAT | KW_VOID | KW_INDEXSET
  | KW_ST | KW_OTHERS
  | KW_PAR | KW_SEQ | KW_SOLVE | KW_ONEOF
  | KW_MAP | KW_PERMUTE | KW_FOLD | KW_COPY | KW_BY | KW_ALONG
  | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN | KW_BREAK | KW_CONTINUE
  | KW_INF
  | KW_GOTO                          (* recognized only to be rejected *)
  (* operators and punctuation *)
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | ASSIGN | PLUSEQ | MINUSEQ | STAREQ | SLASHEQ | PERCENTEQ
  | MINASSIGN | MAXASSIGN            (* <?= and >?= *)
  | EQ | NE | LT | LE | GT | GE
  | ANDAND | OROR | NOT
  | AMP | PIPE | CARET | TILDE | SHL | SHR
  | QUESTION | COLON | SEMI | COMMA
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | DOTDOT
  | EOF

(* Monomorphic equality.  A token without a payload is an immediate, so
   physical equality decides it; the parser's [expect]/[accept] compare
   with this rather than the generic structural [=]. *)
let equal (a : t) (b : t) =
  match a, b with
  | IDENT x, IDENT y | STRING x, STRING y -> String.equal x y
  | INT x, INT y -> x = y
  | FLOAT x, FLOAT y -> x = y
  | RED x, RED y -> x == y
  | _ -> a == b

let to_string = function
  | IDENT s -> s
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "%S" s
  | RED r -> Ast.redop_name r
  | KW_INT -> "int" | KW_FLOAT -> "float" | KW_VOID -> "void"
  | KW_INDEXSET -> "index-set"
  | KW_ST -> "st" | KW_OTHERS -> "others"
  | KW_PAR -> "par" | KW_SEQ -> "seq" | KW_SOLVE -> "solve" | KW_ONEOF -> "oneof"
  | KW_MAP -> "map" | KW_PERMUTE -> "permute" | KW_FOLD -> "fold"
  | KW_COPY -> "copy" | KW_BY -> "by" | KW_ALONG -> "along"
  | KW_IF -> "if" | KW_ELSE -> "else" | KW_WHILE -> "while" | KW_FOR -> "for"
  | KW_RETURN -> "return" | KW_BREAK -> "break" | KW_CONTINUE -> "continue"
  | KW_INF -> "INF" | KW_GOTO -> "goto"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | ASSIGN -> "=" | PLUSEQ -> "+=" | MINUSEQ -> "-=" | STAREQ -> "*="
  | SLASHEQ -> "/=" | PERCENTEQ -> "%="
  | MINASSIGN -> "<?=" | MAXASSIGN -> ">?="
  | EQ -> "==" | NE -> "!=" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | ANDAND -> "&&" | OROR -> "||" | NOT -> "!"
  | AMP -> "&" | PIPE -> "|" | CARET -> "^" | TILDE -> "~"
  | SHL -> "<<" | SHR -> ">>"
  | QUESTION -> "?" | COLON -> ":" | SEMI -> ";" | COMMA -> ","
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | DOTDOT -> ".."
  | EOF -> "<eof>"

(* the keyword spelled [s], if any: a string match, compiled to a
   comparison tree, so an identifier costs a few string comparisons *)
let keyword = function
  | "int" -> Some KW_INT | "float" -> Some KW_FLOAT | "void" -> Some KW_VOID
  | "st" -> Some KW_ST | "others" -> Some KW_OTHERS
  | "par" -> Some KW_PAR | "seq" -> Some KW_SEQ | "solve" -> Some KW_SOLVE
  | "oneof" -> Some KW_ONEOF
  | "map" -> Some KW_MAP | "permute" -> Some KW_PERMUTE | "fold" -> Some KW_FOLD
  | "copy" -> Some KW_COPY | "by" -> Some KW_BY | "along" -> Some KW_ALONG
  | "if" -> Some KW_IF | "else" -> Some KW_ELSE | "while" -> Some KW_WHILE
  | "for" -> Some KW_FOR
  | "return" -> Some KW_RETURN | "break" -> Some KW_BREAK
  | "continue" -> Some KW_CONTINUE
  | "INF" -> Some KW_INF | "goto" -> Some KW_GOTO
  | _ -> None

(* every keyword spelled as one identifier ("index-set" is lexed on its
   own), for tests and tools: [keyword s = Some k] exactly for the
   pairs [(s, k)] listed here *)
let keyword_table : (string * t) list =
  [
    ("int", KW_INT); ("float", KW_FLOAT); ("void", KW_VOID);
    ("st", KW_ST); ("others", KW_OTHERS);
    ("par", KW_PAR); ("seq", KW_SEQ); ("solve", KW_SOLVE); ("oneof", KW_ONEOF);
    ("map", KW_MAP); ("permute", KW_PERMUTE); ("fold", KW_FOLD);
    ("copy", KW_COPY); ("by", KW_BY); ("along", KW_ALONG);
    ("if", KW_IF); ("else", KW_ELSE); ("while", KW_WHILE); ("for", KW_FOR);
    ("return", KW_RETURN); ("break", KW_BREAK); ("continue", KW_CONTINUE);
    ("INF", KW_INF); ("goto", KW_GOTO);
  ]
