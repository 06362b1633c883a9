(* Minimal JSON: emitter and parser, enough for machine-readable FEAM
   reports and their round-trip tests.  No external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* -- rendering ------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec render_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.12g" f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape_string s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        render_into buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string key);
        Buffer.add_string buf "\":";
        render_into buf value)
      fields;
    Buffer.add_char buf '}'

let render json =
  let buf = Buffer.create 256 in
  render_into buf json;
  Buffer.contents buf

(* -- parsing ---------------------------------------------------------------- *)

exception Parse_failure of int * string

type parser_state = { text : string; mutable pos : int }

let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let fail st message = raise (Parse_failure (st.pos, message))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  if
    st.pos + String.length word <= String.length st.text
    && String.sub st.text st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else fail st ("expected " ^ word)

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
      | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
      | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
      | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.text then fail st "bad \\u escape";
        let hex = String.sub st.text st.pos 4 in
        st.pos <- st.pos + 4;
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
        | Some _ -> Buffer.add_char buf '?' (* non-ASCII: placeholder *)
        | None -> fail st "bad \\u escape");
        go ()
      | _ -> fail st "bad escape")
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let token = String.sub st.text start (st.pos - start) in
  match int_of_string_opt token with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt token with
    | Some f -> Float f
    | None -> fail st ("bad number: " ^ token))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string_body st)
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some c when c = '-' || (c >= '0' && c <= '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else begin
    let rec go acc =
      let item = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        go (item :: acc)
      | Some ']' ->
        advance st;
        List (List.rev (item :: acc))
      | _ -> fail st "expected ',' or ']'"
    in
    go []
  end

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Obj []
  end
  else begin
    let rec go acc =
      skip_ws st;
      let key = parse_string_body st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        go ((key, value) :: acc)
      | Some '}' ->
        advance st;
        Obj (List.rev ((key, value) :: acc))
      | _ -> fail st "expected ',' or '}'"
    in
    go []
  end

let parse text =
  let st = { text; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length text then Error "trailing garbage"
    else Ok v
  with Parse_failure (pos, message) ->
    Error (Printf.sprintf "at offset %d: %s" pos message)

(* -- accessors ----------------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List l -> Some l | _ -> None

let to_number_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let int_field key json = Option.bind (member key json) to_int_opt
let str_field key json = Option.bind (member key json) to_string_opt
let bool_field key json = Option.bind (member key json) to_bool_opt
let list_field key json = Option.bind (member key json) to_list_opt
let number_field key json = Option.bind (member key json) to_number_opt

let strings_field key json =
  List.filter_map to_string_opt (Option.value (list_field key json) ~default:[])

let pairs_field key (a, b) json =
  List.filter_map
    (fun item ->
      match (str_field a item, str_field b item) with
      | Some x, Some y -> Some (x, y)
      | _ -> None)
    (Option.value (list_field key json) ~default:[])
