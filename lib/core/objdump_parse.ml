(* Parsers for the text output of the GNU binary utilities, which is the
   form in which the BDC consumes binary metadata (paper §V.A: "Most of
   the information about a binary can be extracted with ... objdump"). *)

type dynamic_info = {
  file_format : string;                     (* "elf64-x86-64" *)
  needed : string list;
  soname : string option;
  rpath : string option;
  runpath : string option;
  verneeds : (string * string list) list;   (* file -> version names *)
  verdefs : string list;
}

(* The parser reads the text in place: a line is a span [s, e) of it,
   and only the values kept are copied out.  Lines are trimmed of
   [String.trim]'s whitespace; words are separated by spaces and tabs. *)

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let is_blank c = c = ' ' || c = '\t'

let span_starts_with text s e prefix =
  e - s >= String.length prefix && Feam_sysmodel.Str_split.occurs_at ~sub:prefix text s

let span_equal text s e lit = e - s = String.length lit && span_starts_with text s e lit

(* The words of the span, by one scan from the right. *)
let words text s e =
  let acc = ref [] and stop = ref e in
  for i = e - 1 downto s do
    if is_blank (String.unsafe_get text i) then begin
      if !stop > i + 1 then acc := String.sub text (i + 1) (!stop - i - 1) :: !acc;
      stop := i
    end
  done;
  if !stop > s then String.sub text s (!stop - s) :: !acc else !acc

let last_word text s e =
  let e = ref e in
  while !e > s && is_blank text.[!e - 1] do decr e done;
  let b = ref !e in
  while !b > s && not (is_blank text.[!b - 1]) do decr b done;
  if !b = !e then None else Some (String.sub text !b (!e - !b))

(* Offset of the newline ending the line that holds offset [i], or the
   text's length. *)
let rec line_end text i =
  if i >= String.length text || String.unsafe_get text i = '\n' then i
  else line_end text (i + 1)

(* [f s e] on every line of the text, trimmed. *)
let iter_lines text f =
  let n = String.length text in
  let rec from ls =
    let le = line_end text ls in
    let s = ref ls and e = ref le in
    while !s < !e && is_space text.[!s] do incr s done;
    while !e > !s && is_space text.[!e - 1] do decr e done;
    f !s !e;
    if le < n then from (le + 1)
  in
  from 0

(* "<path>:     file format <fmt>": the first line holding the marker
   exactly once gives the format, trimmed. *)
let format_marker = "file format "

let file_format_of text =
  let find ?until from =
    Feam_sysmodel.Str_split.find ~from ?until ~sub:format_marker text
  in
  let rec search from =
    match find from with
    | None -> None
    | Some i -> (
      let after = i + String.length format_marker in
      let le = line_end text after in
      match find ~until:le after with
      | Some _ -> search (le + 1)
      | None -> Some (String.trim (String.sub text after (le - after))))
  in
  search 0

(* Parse `objdump -p` output. *)
let parse_objdump_p text =
  match file_format_of text with
  | None -> Error "objdump output: no file format line"
  | Some file_format ->
    let needed = ref [] and verdefs = ref [] in
    let soname = ref None and rpath = ref None and runpath = ref None in
    (* Version References blocks, newest first: the file name and the
       block's version names, newest first. *)
    let blocks = ref [] in
    let current_block = ref None in
    let section = ref `None in
    let enter sec =
      current_block := None;
      section := sec
    in
    iter_lines text (fun s e ->
        if s = e then ()
        else if span_equal text s e "Dynamic Section:" then enter `Dynamic
        else if span_equal text s e "Version References:" then enter `Verneed
        else if span_equal text s e "Version definitions:" then enter `Verdef
        else
          match !section with
          | `None -> ()
          | `Dynamic -> (
            match words text s e with
            | [ "NEEDED"; value ] -> needed := value :: !needed
            | [ "SONAME"; value ] -> soname := Some value
            | [ "RPATH"; value ] -> rpath := Some value
            | [ "RUNPATH"; value ] -> runpath := Some value
            | _ -> () (* STRTAB etc. *))
          | `Verneed ->
            if span_starts_with text s e "required from " then begin
              let s = s + 14 in
              let e = if e > s && text.[e - 1] = ':' then e - 1 else e in
              let versions = ref [] in
              blocks := (String.sub text s (e - s), versions) :: !blocks;
              current_block := Some versions
            end
            else (
              (* "    0xHASH 0x00 02 GLIBC_2.3.4" *)
              match (last_word text s e, !current_block) with
              | Some version, Some versions -> versions := version :: !versions
              | _ -> ())
          | `Verdef -> (
            (* "1 0x01 0xHASH libfoo.so.1" *)
            match last_word text s e with
            | Some name when name.[0] <> '0' -> verdefs := name :: !verdefs
            | _ -> ()));
    (* A version line belongs to every block of its file name opened so
       far: a block lists its own versions, then those of every later
       block of the same name.  Built from the newest block back. *)
    let verneeds =
      match !blocks with
      | [] -> []
      | blocks ->
        let later = Hashtbl.create 8 in
        List.fold_left
          (fun acc (file, versions) ->
            let tail = Option.value (Hashtbl.find_opt later file) ~default:[] in
            let all = List.rev_append !versions tail in
            Hashtbl.replace later file all;
            (file, all) :: acc)
          [] blocks
    in
    Ok
      {
        file_format;
        needed = List.rev !needed;
        soname = !soname;
        rpath = !rpath;
        runpath = !runpath;
        verneeds;
        verdefs = List.rev !verdefs;
      }

(* Map an objdump format descriptor back to machine and class. *)
let machine_of_format = function
  | "elf64-x86-64" -> Some (Feam_elf.Types.X86_64, Feam_elf.Types.C64)
  | "elf32-i386" -> Some (Feam_elf.Types.I386, Feam_elf.Types.C32)
  | "elf64-powerpc" -> Some (Feam_elf.Types.PPC64, Feam_elf.Types.C64)
  | "elf32-powerpc" -> Some (Feam_elf.Types.PPC, Feam_elf.Types.C32)
  | "elf64-sparc" -> Some (Feam_elf.Types.SPARCV9, Feam_elf.Types.C64)
  | "elf32-sparc" -> Some (Feam_elf.Types.SPARC, Feam_elf.Types.C32)
  | "elf64-ia64-little" -> Some (Feam_elf.Types.IA64, Feam_elf.Types.C64)
  | _ -> None

(* Parse `readelf -p .comment` output into its strings. *)
let parse_readelf_comment text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         (* "  [     0]  GCC: (GNU) 4.4.5" *)
         match String.index_opt line ']' with
         | Some i when String.length line > i + 2 && String.trim (String.sub line 0 i) <> "" ->
           let lbracket = String.index_opt line '[' in
           if lbracket = None then None
           else Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

(* Extract compiler and OS provenance from .comment strings: the BDC uses
   these to report what toolchain and OS built the binary (§V.A). *)
type provenance = { compiler_banner : string option; build_os : string option }

let provenance_of_comments comments =
  let compiler_banner =
    List.find_opt
      (fun c ->
        String.starts_with ~prefix:"GCC:" c
        || String.starts_with ~prefix:"Intel(R)" c
        || String.starts_with ~prefix:"PGI" c)
      comments
  in
  let build_os =
    (* Distro names appear parenthesized in GCC/ld comment strings. *)
    List.find_map
      (fun c ->
        let find_tag tag = Feam_sysmodel.Str_split.contains ~sub:tag c in
        if find_tag "Red Hat" then Some "Red Hat"
        else if find_tag "CentOS" then Some "CentOS"
        else if find_tag "SUSE" then Some "SUSE"
        else None)
      comments
  in
  { compiler_banner; build_os }
