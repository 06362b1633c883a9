(* RFC 4648 base64, used to embed binary ELF images in the textual
   bundle format (the artifact FEAM's source phase writes and users copy
   to target sites). *)

let alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let decode_table =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) alphabet;
  t

let encode (s : string) : string =
  let n = String.length s in
  let out = Buffer.create ((n + 2) / 3 * 4) in
  let byte i = Char.code s.[i] in
  let rec go i =
    if i + 3 <= n then begin
      let b = (byte i lsl 16) lor (byte (i + 1) lsl 8) lor byte (i + 2) in
      Buffer.add_char out alphabet.[(b lsr 18) land 63];
      Buffer.add_char out alphabet.[(b lsr 12) land 63];
      Buffer.add_char out alphabet.[(b lsr 6) land 63];
      Buffer.add_char out alphabet.[b land 63];
      go (i + 3)
    end
    else if i + 2 = n then begin
      let b = (byte i lsl 16) lor (byte (i + 1) lsl 8) in
      Buffer.add_char out alphabet.[(b lsr 18) land 63];
      Buffer.add_char out alphabet.[(b lsr 12) land 63];
      Buffer.add_char out alphabet.[(b lsr 6) land 63];
      Buffer.add_char out '='
    end
    else if i + 1 = n then begin
      let b = byte i lsl 16 in
      Buffer.add_char out alphabet.[(b lsr 18) land 63];
      Buffer.add_char out alphabet.[(b lsr 12) land 63];
      Buffer.add_string out "=="
    end
  in
  go 0;
  Buffer.contents out

type error = Bad_length | Bad_character of char

let error_to_string = function
  | Bad_length -> "base64: input length not a multiple of 4"
  | Bad_character c -> Printf.sprintf "base64: invalid character %C" c

let decode (s : string) : (string, error) result =
  let n = String.length s in
  if n mod 4 <> 0 then Error Bad_length
  else begin
    let out = Buffer.create (n / 4 * 3) in
    let exception Bad of char in
    let value i =
      let c = s.[i] in
      let v = decode_table.(Char.code c) in
      if v < 0 then raise (Bad c) else v
    in
    try
      let rec go i =
        if i < n then begin
          let pad =
            if i + 4 = n then
              if s.[i + 3] = '=' then if s.[i + 2] = '=' then 2 else 1 else 0
            else 0
          in
          let v0 = value i and v1 = value (i + 1) in
          let v2 = if pad >= 2 then 0 else value (i + 2) in
          let v3 = if pad >= 1 then 0 else value (i + 3) in
          let b = (v0 lsl 18) lor (v1 lsl 12) lor (v2 lsl 6) lor v3 in
          Buffer.add_char out (Char.chr ((b lsr 16) land 0xff));
          if pad < 2 then Buffer.add_char out (Char.chr ((b lsr 8) land 0xff));
          if pad < 1 then Buffer.add_char out (Char.chr (b land 0xff));
          go (i + 4)
        end
      in
      go 0;
      Ok (Buffer.contents out)
    with Bad c -> Error (Bad_character c)
  end
