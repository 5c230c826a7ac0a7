(* Minimal JSON without a dependency: the one writer every artifact in
   the repository goes through, and a strict reader for the documents
   read back (bench baselines, health dumps, the emitters' own output in
   tests).  Integer literals that fit an [int] parse as [Int], every
   other number as [Number]; objects keep their textual field order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Compact, no whitespace.  A finite [Number] prints with 9 significant
   digits (so integral floats print without a fraction: "1"), a
   non-finite one, which JSON cannot represent, as null. *)
let rec add_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Number f ->
      if Float.is_finite f then Printf.bprintf b "%.9g" f
      else Buffer.add_string b "null"
  | String s -> add_quoted b s
  | Array items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add_value b v)
        items;
      Buffer.add_char b ']'
  | Object fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_quoted b k;
          Buffer.add_char b ':';
          add_value b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  add_value b v;
  Buffer.contents b

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue_ := false
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string_raw st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  fail st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> fail st "bad \\u escape"
                in
                st.pos <- st.pos + 4;
                (* UTF-8 encode the BMP code point; surrogate pairs are
                   passed through as two encoded halves, which is enough
                   for the ASCII-heavy documents we emit *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> fail st "unknown escape");
            loop ())
    | Some c when Char.code c < 0x20 -> fail st "unescaped control character"
    | Some c ->
        advance st;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

(* The JSON number grammar — optional minus, then 0 or a digit run
   without a leading zero, then an optional fraction and an optional
   exponent, each with at least one digit — enforced here rather than
   left to [float_of_string], which also takes "+1", ".5", "1." and
   "01". *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let from = st.pos in
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do
      advance st
    done;
    st.pos > from
  in
  let bad () = fail st "bad number" in
  if peek st = Some '-' then advance st;
  (match peek st with
  | Some '0' -> advance st
  | Some '1' .. '9' -> ignore (digits ())
  | _ -> bad ());
  let integral = ref true in
  if peek st = Some '.' then begin
    advance st;
    integral := false;
    if not (digits ()) then bad ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      integral := false;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      if not (digits ()) then bad ()
  | _ -> ());
  let s = String.sub st.src start (st.pos - start) in
  match if !integral then int_of_string_opt s else None with
  | Some i -> Int i
  | None -> Number (float_of_string s)

(* The comma-separated members of an array or object, the opening
   bracket already consumed, up to and including [close]. *)
let sequence st close item =
  skip_ws st;
  if peek st = Some close then begin
    advance st;
    []
  end
  else
    let rec loop acc =
      let acc = item () :: acc in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          loop acc
      | Some c when c = close ->
          advance st;
          List.rev acc
      | _ -> fail st (Printf.sprintf "expected ',' or '%c'" close)
    in
    loop []

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      Object
        (sequence st '}' (fun () ->
             skip_ws st;
             let key = parse_string_raw st in
             skip_ws st;
             expect st ':';
             (key, parse_value st)))
  | Some '[' ->
      advance st;
      Array (sequence st ']' (fun () -> parse_value st))
  | Some '"' -> String (parse_string_raw st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Number f -> Some f
  | _ -> None

(* exact only: a fractional or out-of-range number is not an int *)
let to_int = function
  | Int i -> Some i
  | Number f when Float.is_integer f && Float.abs f < 0x1p62 ->
      Some (int_of_float f)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function Array l -> Some l | _ -> None
let to_obj = function Object f -> Some f | _ -> None
