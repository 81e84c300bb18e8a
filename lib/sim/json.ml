(* The one JSON value type, its one encoder and its one parser. Every
   machine-readable export builds a [t] and writes it with [to_string];
   every reader (run records, BENCH files, the compare gate) parses with
   [parse]. No external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- encoding -------------------------------------------------------- *)

(* A quote, a backslash and every byte below 0x20 are escaped; the rest
   stand for themselves. *)
let rec clean s i =
  i >= String.length s
  ||
  match String.unsafe_get s i with
  | '"' | '\\' -> false
  | c -> Char.code c >= 0x20 && clean s (i + 1)

let escape_char = function
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | '\n' -> "\\n"
  | '\r' -> "\\r"
  | '\t' -> "\\t"
  | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
  | c -> String.make 1 c

(* Most strings need no escaping; those are returned as they are, so a
   caller on a hot path builds no copy. *)
let escape s =
  if clean s 0 then s
  else String.concat "" (List.init (String.length s) (fun i -> escape_char s.[i]))

(* Integer-valued floats print as "N.0", others with six significant
   digits. *)
let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let to_string v =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let str s = add "\""; add (escape s); add "\"" in
  let list f open_ close xs =
    add open_;
    List.iteri (fun i x -> if i > 0 then add ","; f x) xs;
    add close
  in
  let rec go = function
    | Null -> add "null"
    | Bool b -> add (string_of_bool b)
    | Int i -> add (string_of_int i)
    | Num f -> add (num_to_string f)
    | Str s -> str s
    | Arr vs -> list go "[" "]" vs
    | Obj kvs -> list (fun (k, v) -> str k; add ":"; go v) "{" "}" kvs
  in
  go v;
  Buffer.contents buf

(* ---- parsing --------------------------------------------------------- *)

exception Bad of string

(* The UTF-8 encoding of code point [u]: its bytes from the lead byte's
   marker and six payload bits per continuation byte. *)
let add_utf8 buf u =
  let cont shift = Buffer.add_char buf (Char.chr (0x80 lor ((u lsr shift) land 0x3f))) in
  let lead marker shift = Buffer.add_char buf (Char.chr (marker lor (u lsr shift))) in
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then (lead 0xc0 6; cont 0)
  else if u < 0x10000 then (lead 0xe0 12; cont 6; cont 0)
  else (lead 0xf0 18; cont 12; cont 6; cont 0)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  (* The code unit of the four hex digits after a "\u". *)
  let hex4 () =
    if !pos + 4 > n then fail "bad \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    let u = ref 0 in
    for i = 0 to 3 do u := (!u lsl 4) lor digit s.[!pos + i] done;
    pos := !pos + 4;
    !u
  in
  (* A "\u" escape, or a surrogate pair of them, as one code point. *)
  let code_point () =
    match hex4 () with
    | u when u >= 0xdc00 && u <= 0xdfff -> fail "lone low surrogate"
    | u when u >= 0xd800 && u <= 0xdbff ->
        if !pos + 2 > n || s.[!pos] <> '\\' || s.[!pos + 1] <> 'u' then
          fail "lone high surrogate";
        pos := !pos + 2;
        let lo = hex4 () in
        if lo < 0xdc00 || lo > 0xdfff then fail "bad low surrogate";
        0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00)
    | u -> u
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          let c = peek () in
          advance ();
          (match c with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char buf c
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'u' -> add_utf8 buf (code_point ())
          | Some _ -> fail "bad escape"
          | None -> fail "unterminated escape");
          go ()
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  (* The items of an object or array up to [close], each read by [item]. *)
  let items close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin advance (); [] end
    else
      let rec more acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); more acc
        | Some c when c = close -> advance (); List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      more []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value ())))
    | Some '[' -> Arr (items ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at byte %d" !pos)
    else Ok v
  with Bad msg -> Error msg

(* ---- reading --------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let rec path keys v =
  match keys with
  | [] -> Some v
  | k :: rest -> Option.bind (member k v) (path rest)
