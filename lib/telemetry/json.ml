type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let num v = if Float.is_finite v then Float v else Null

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let rec emit ~indent ~level b j =
  let nl pad =
    if indent then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * pad) ' ')
    end
  in
  match j with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float v ->
    if Float.is_finite v then Buffer.add_string b (float_repr v)
    else Buffer.add_string b "null"
  | String s -> escape b s
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        nl (level + 1);
        emit ~indent ~level:(level + 1) b item)
      items;
    nl level;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        nl (level + 1);
        escape b k;
        Buffer.add_char b ':';
        if indent then Buffer.add_char b ' ';
        emit ~indent ~level:(level + 1) b v)
      fields;
    nl level;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  emit ~indent:false ~level:0 b j;
  Buffer.contents b

let to_string_pretty j =
  let b = Buffer.create 1024 in
  emit ~indent:true ~level:0 b j;
  Buffer.contents b

(* ---------------- parser ---------------- *)

type cursor = { src : string; mutable pos : int }

let fail c msg = failwith (Printf.sprintf "Json.of_string: %s at offset %d" msg c.pos)

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  String.iter (fun ch -> expect c ch) word;
  value

(* The four hex digits of a \\u escape, exactly four. *)
let hex4 c =
  if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail c "bad \\u escape"
  in
  let code = ref 0 in
  for k = 0 to 3 do
    code := (!code lsl 4) lor digit c.src.[c.pos + k]
  done;
  c.pos <- c.pos + 4;
  !code

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char b '"'; advance c
      | Some '\\' -> Buffer.add_char b '\\'; advance c
      | Some '/' -> Buffer.add_char b '/'; advance c
      | Some 'n' -> Buffer.add_char b '\n'; advance c
      | Some 'r' -> Buffer.add_char b '\r'; advance c
      | Some 't' -> Buffer.add_char b '\t'; advance c
      | Some 'b' -> Buffer.add_char b '\b'; advance c
      | Some 'f' -> Buffer.add_char b '\012'; advance c
      | Some 'u' ->
        advance c;
        let code = hex4 c in
        let code =
          if code >= 0xD800 && code <= 0xDBFF then begin
            (* A high surrogate must be followed by an escaped low one;
               the pair encodes one code point above U+FFFF. *)
            if not (c.pos + 1 < String.length c.src && c.src.[c.pos] = '\\'
                    && c.src.[c.pos + 1] = 'u')
            then fail c "lone surrogate in \\u escape";
            c.pos <- c.pos + 2;
            let low = hex4 c in
            if low < 0xDC00 || low > 0xDFFF then fail c "lone surrogate in \\u escape";
            0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
          end
          else if code >= 0xDC00 && code <= 0xDFFF then
            fail c "lone surrogate in \\u escape"
          else code
        in
        Buffer.add_utf_8_uchar b (Uchar.of_int code)
      | _ -> fail c "bad escape");
      loop ()
    | Some ch ->
      Buffer.add_char b ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec run () =
    match peek c with
    | Some ch when is_num_char ch ->
      advance c;
      run ()
    | _ -> ()
  in
  run ();
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c (Printf.sprintf "bad number %S" s))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec loop () =
        items := parse_value c :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          loop ()
        | Some ']' -> advance c
        | _ -> fail c "expected ',' or ']'"
      in
      loop ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let value = parse_value c in
        fields := (key, value) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          loop ()
        | Some '}' -> advance c
        | _ -> fail c "expected ',' or '}'"
      in
      loop ();
      Obj (List.rev !fields)
    end
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v
