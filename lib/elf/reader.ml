(* Parses ELF images back into a {!Spec.t} plus section-level metadata.
   This is the only channel through which the migration framework and the
   dynamic-linker simulator see binaries: everything downstream of the
   builder goes through real byte-level parsing. *)

type error =
  | Not_elf                      (* missing \x7fELF magic *)
  | Unsupported of string        (* unknown class/endian/machine/type code *)
  | Malformed of string          (* structurally broken image *)

let error_to_string = function
  | Not_elf -> "not an ELF file"
  | Unsupported what -> "unsupported ELF: " ^ what
  | Malformed what -> "malformed ELF: " ^ what

exception Parse_error of error

let fail e = raise (Parse_error e)

type section = {
  name : string;
  sh_type : int;
  sh_offset : int;
  sh_size : int;
  sh_link : int;
  sh_info : int;
  sh_addr : int;
}

type t = { spec : Spec.t; sections : section array }

let spec t = t.spec
let sections t = Array.to_list t.sections

(* Split a NUL-separated blob into its strings, dropping empties. *)
let split_nul blob =
  String.split_on_char '\000' blob |> List.filter (fun s -> s <> "")

let header_size = function Types.C32 -> 52 | Types.C64 -> 64

let parse_ident data =
  if String.length data < 16 then fail Not_elf;
  if String.sub data 0 4 <> "\x7fELF" then fail Not_elf;
  let cls =
    match Types.class_of_code (Char.code data.[4]) with
    | Some c -> c
    | None -> fail (Unsupported (Printf.sprintf "class code %d" (Char.code data.[4])))
  in
  let endian =
    match Types.endian_of_code (Char.code data.[5]) with
    | Some e -> e
    | None -> fail (Unsupported (Printf.sprintf "data encoding %d" (Char.code data.[5])))
  in
  if Char.code data.[6] <> 1 then
    fail (Unsupported (Printf.sprintf "ELF version %d" (Char.code data.[6])));
  (cls, endian)

let parse_sections r cls ~shoff ~shentsize ~shnum ~shstrndx =
  if shnum > 0 && (shstrndx < 0 || shstrndx >= shnum) then
    fail (Malformed "section name table index out of range");
  (* Every header is read before any name, as the names live in the
     section [shstrndx] points at.  Fields are read from the last to the
     first, so a truncated header fails on the field past its end. *)
  let header i =
    let base = shoff + (i * shentsize) in
    let u32 off = Codec.Reader.u32 r (base + off) in
    let word off = Codec.Reader.word r cls (base + off) in
    let w = Codec.Reader.word_size cls in
    (* ELF64 widens sh_flags, sh_addr, sh_offset and sh_size *)
    let sh_info = u32 (12 + (4 * w)) in
    let sh_link = u32 (8 + (4 * w)) in
    let sh_size = word (8 + (3 * w)) in
    let sh_offset = word (8 + (2 * w)) in
    let sh_addr = word (8 + w) in
    let sh_type = u32 4 in
    let name_off = u32 0 in
    ( name_off,
      { name = ""; sh_type; sh_offset; sh_size; sh_link; sh_info; sh_addr } )
  in
  let raw = Array.init shnum header in
  if shnum = 0 then [||]
  else
    let shstr_off = (snd raw.(shstrndx)).sh_offset in
    Array.map
      (fun (name_off, s) ->
        let name =
          try Codec.Reader.cstring r (shstr_off + name_off)
          with Codec.Truncated _ -> fail (Malformed "section name out of bounds")
        in
        { s with name })
      raw

(* The offset of the section an [sh_link] names, when it names one. *)
let linked_offset sections link =
  if link > 0 && link < Array.length sections then
    Some sections.(link).sh_offset
  else None

(* Dynamic section: list of (tag, value) pairs up to DT_NULL. *)
let parse_dynamic r cls section =
  let entsize = 2 * Codec.Reader.word_size cls in
  let n = section.sh_size / entsize in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let base = section.sh_offset + (i * entsize) in
      let tag = Codec.Reader.word r cls base in
      let value = Codec.Reader.word r cls (base + Codec.Reader.word_size cls) in
      if tag = Types.Dt.null then List.rev acc else go (i + 1) ((tag, value) :: acc)
  in
  go 0 []

let parse_verneed r section ~dynstr_off =
  let str off = Codec.Reader.cstring r (dynstr_off + off) in
  let rec records off acc =
    let vn_cnt = Codec.Reader.u16 r (off + 2) in
    let vn_file = Codec.Reader.u32 r (off + 4) in
    let vn_aux = Codec.Reader.u32 r (off + 8) in
    let vn_next = Codec.Reader.u32 r (off + 12) in
    let rec auxes aoff k acc =
      if k = 0 then List.rev acc
      else
        let vna_name = Codec.Reader.u32 r (aoff + 8) in
        let vna_next = Codec.Reader.u32 r (aoff + 12) in
        let acc = str vna_name :: acc in
        if vna_next = 0 then List.rev acc else auxes (aoff + vna_next) (k - 1) acc
    in
    let versions = if vn_cnt = 0 then [] else auxes (off + vn_aux) vn_cnt [] in
    let acc = { Spec.vn_file = str vn_file; vn_versions = versions } :: acc in
    if vn_next = 0 then List.rev acc else records (off + vn_next) acc
  in
  if section.sh_size = 0 then [] else records section.sh_offset []

let parse_verdef r section ~dynstr_off =
  let str off = Codec.Reader.cstring r (dynstr_off + off) in
  let rec records off acc =
    let vd_aux = Codec.Reader.u32 r (off + 12) in
    let vd_next = Codec.Reader.u32 r (off + 16) in
    let vda_name = Codec.Reader.u32 r (off + vd_aux) in
    let acc = str vda_name :: acc in
    if vd_next = 0 then List.rev acc else records (off + vd_next) acc
  in
  if section.sh_size = 0 then [] else records section.sh_offset []

let sym_entry_size = function Types.C32 -> 16 | Types.C64 -> 24

(* .dynsym entries (the index-0 null entry excluded), with versions
   resolved through .gnu.version.  The version-index tables mirror the
   builder's assignment: undefined symbols bind into the verneed
   numbering (vna_other, 2 + flattened position), defined symbols into
   the verdef numbering (vd_ndx = position + 1); which table applies is
   decided by st_shndx, exactly as on the write side.  Out-of-range or
   special (0 = local, 1 = global) indices degrade to an unversioned
   symbol rather than failing the parse. *)
let parse_dynsyms r cls sections ~dynstr_off ~verneeds ~verdefs dynsym_sec
    versym_sec =
  let entsize = sym_entry_size cls in
  let n = dynsym_sec.sh_size / entsize in
  let strtab_off =
    Option.value (linked_offset sections dynsym_sec.sh_link) ~default:dynstr_off
  in
  (* Version index -> name: verneed indices count from 2 over the
     flattened version lists, verdef indices from 1. *)
  let need_index =
    Array.of_list (List.concat_map (fun vn -> vn.Spec.vn_versions) verneeds)
  in
  let def_index = Array.of_list verdefs in
  let version_at table ndx =
    if ndx < Array.length table then Some table.(ndx) else None
  in
  let versym_at i =
    match versym_sec with
    | None -> None
    | Some vs ->
      let off = 2 * i in
      if off + 2 <= vs.sh_size then Some (Codec.Reader.u16 r (vs.sh_offset + off))
      else None
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let base = dynsym_sec.sh_offset + (i * entsize) in
      let name_off = Codec.Reader.u32 r base in
      let st_info, st_shndx =
        match cls with
        | Types.C64 ->
          (Codec.Reader.u8 r (base + 4), Codec.Reader.u16 r (base + 6))
        | Types.C32 ->
          (Codec.Reader.u8 r (base + 12), Codec.Reader.u16 r (base + 14))
      in
      let sym_name = Codec.Reader.cstring r (strtab_off + name_off) in
      let sym_defined = st_shndx <> Types.Shn.undef in
      let sym_binding =
        if st_info lsr 4 = Types.Stb.weak then Spec.Weak else Spec.Global
      in
      let sym_version =
        match versym_at i with
        | None -> None
        | Some raw -> (
          let ndx = raw land 0x7fff (* mask the VERSYM_HIDDEN bit *) in
          if ndx <= 1 then None
          else if sym_defined then version_at def_index (ndx - 1)
          else version_at need_index (ndx - 2))
      in
      go (i + 1) ({ Spec.sym_name; sym_defined; sym_binding; sym_version } :: acc)
  in
  if n <= 1 then [] else go 1 []

(* Program headers: (p_type, p_offset, p_filesz) triples. *)
let parse_program_headers r cls ~phoff ~phentsize ~phnum =
  List.init phnum (fun i ->
      let base = phoff + (i * phentsize) in
      match cls with
      | Types.C64 ->
        ( Codec.Reader.u32 r base,
          Codec.Reader.u64 r (base + 8),
          Codec.Reader.u64 r (base + 32) )
      | Types.C32 ->
        ( Codec.Reader.u32 r base,
          Codec.Reader.u32 r (base + 4),
          Codec.Reader.u32 r (base + 16) ))

let parse_abi_note r section =
  (* namesz, descsz, type, "GNU\0", os, maj, min, patch *)
  if section.sh_size < 32 then None
  else
    let base = section.sh_offset in
    let namesz = Codec.Reader.u32 r base in
    let typ = Codec.Reader.u32 r (base + 8) in
    if namesz <> 4 || typ <> 1 then None
    else if Codec.Reader.sub r (base + 12) 4 <> "GNU\000" then None
    else
      let maj = Codec.Reader.u32 r (base + 20) in
      let min_ = Codec.Reader.u32 r (base + 24) in
      let patch = Codec.Reader.u32 r (base + 28) in
      Some (maj, min_, patch)

let parse_uncached (data : string) : (t, error) result =
  try
    let cls, endian = parse_ident data in
    let r = Codec.Reader.create ~endian data in
    if String.length data < header_size cls then fail (Malformed "truncated header");
    let e_type = Codec.Reader.u16 r 16 in
    let e_machine = Codec.Reader.u16 r 18 in
    let file_type =
      match Types.file_type_of_code e_type with
      | Some t -> t
      | None -> fail (Unsupported (Printf.sprintf "file type %d" e_type))
    in
    let machine =
      match Types.machine_of_code e_machine with
      | Some m -> m
      | None -> fail (Unsupported (Printf.sprintf "machine %d" e_machine))
    in
    let word = Codec.Reader.word_size cls in
    (* e_entry, e_phoff and e_shoff are class-sized words starting at
       offset 24. *)
    let phoff = Codec.Reader.word r cls (24 + word) in
    let shoff = Codec.Reader.word r cls (24 + (2 * word)) in
    let tail = 24 + (3 * word) + 4 (* e_flags *) + 2 (* e_ehsize *) in
    let phentsize = Codec.Reader.u16 r tail in
    let phnum = Codec.Reader.u16 r (tail + 2) in
    let shentsize = Codec.Reader.u16 r (tail + 4) in
    let shnum = Codec.Reader.u16 r (tail + 6) in
    let shstrndx = Codec.Reader.u16 r (tail + 8) in
    let program_headers =
      if phoff = 0 || phnum = 0 then []
      else parse_program_headers r cls ~phoff ~phentsize ~phnum
    in
    let interp =
      List.find_map
        (fun (p_type, off, size) ->
          if p_type = Types.Pt.interp && size > 0 then
            Some (Codec.Reader.cstring r off)
          else None)
        program_headers
    in
    let sections = parse_sections r cls ~shoff ~shentsize ~shnum ~shstrndx in
    let find_type ty = Array.find_opt (fun s -> s.sh_type = ty) sections in
    let find_name n = Array.find_opt (fun s -> s.name = n) sections in
    (* Dynamic metadata. *)
    let dynamic_sec = find_type Types.Sht.dynamic in
    let dynamic =
      match dynamic_sec with Some s -> parse_dynamic r cls s | None -> []
    in
    let dynstr_off =
      (* Locate .dynstr via the dynamic section's sh_link when possible,
         falling back to the section name. *)
      match
        Option.bind dynamic_sec (fun dyn -> linked_offset sections dyn.sh_link)
      with
      | Some off -> off
      | None -> (
        match find_name ".dynstr" with
        | Some s -> s.sh_offset
        | None -> 0)
    in
    let dynstr_at off = Codec.Reader.cstring r (dynstr_off + off) in
    let tagged tag = List.filter_map (fun (t, v) -> if t = tag then Some v else None) dynamic in
    let needed = List.map dynstr_at (tagged Types.Dt.needed) in
    let opt_tag tag =
      match tagged tag with v :: _ -> Some (dynstr_at v) | [] -> None
    in
    let soname = opt_tag Types.Dt.soname in
    let rpath = opt_tag Types.Dt.rpath in
    let runpath = opt_tag Types.Dt.runpath in
    let verneeds =
      match find_type Types.Sht.gnu_verneed with
      | Some s -> parse_verneed r s ~dynstr_off
      | None -> []
    in
    let verdefs =
      match find_type Types.Sht.gnu_verdef with
      | Some s -> parse_verdef r s ~dynstr_off
      | None -> []
    in
    let dynsyms =
      match find_type Types.Sht.dynsym with
      | Some s ->
        parse_dynsyms r cls sections ~dynstr_off ~verneeds ~verdefs s
          (find_type Types.Sht.gnu_versym)
      | None -> []
    in
    let comments =
      match find_name ".comment" with
      | Some s -> split_nul (Codec.Reader.sub r s.sh_offset s.sh_size)
      | None -> []
    in
    let abi_note =
      match find_name ".note.ABI-tag" with
      | Some s -> parse_abi_note r s
      | None -> None
    in
    let spec =
      Spec.make ~file_type ?soname ~needed ?rpath ?runpath ~verneeds ~verdefs
        ~dynsyms ~comments ?abi_note ?interp ~elf_class:cls ~endian machine
    in
    Ok { spec; sections }
  with
  | Parse_error e -> Error e
  | Codec.Truncated what -> Error (Malformed ("truncated: " ^ what))

(* A handle is the parse memo of one image: its bytes, plus their parse
   and content key, each filled on first demand.  Keying an image never
   parses it, and parsing never hashes it.  There is no table behind
   handles: a holder that reads one image many times (a Vfs slot, a
   bundle's copy or probe, a test-set binary) keeps its handle, and a
   second [image] of the same string starts afresh.  The memo lives and
   dies with its handle, so nothing here is global. *)
type image = {
  data : string;
  mutable parsed : (t, error) result option;
  mutable key : Feam_util.Chash.t option;
  mutable image_digest : Digest.t option;
}

let image data = { data; parsed = None; key = None; image_digest = None }

let image_bytes img = img.data

let parse_image img =
  match img.parsed with
  | Some r ->
    Feam_obs.Metrics.incr "elf.parse_memo.hit";
    Feam_obs.Metrics.incr ~by:(String.length img.data)
      "elf.parse_memo.saved_bytes";
    r
  | None ->
    Feam_obs.Metrics.incr "elf.parse_memo.miss";
    let r = parse_uncached img.data in
    img.parsed <- Some r;
    r

let image_key img =
  match img.key with
  | Some k -> k
  | None ->
    let k = Feam_util.Chash.of_bytes img.data in
    img.key <- Some k;
    k

let image_digest img =
  match img.image_digest with
  | Some d -> d
  | None ->
    let d = Digest.string img.data in
    img.image_digest <- Some d;
    d

let parse data = parse_image (image data)

(* Convenience used throughout the framework: just the spec. *)
let spec_of_bytes data = Result.map (fun t -> t.spec) (parse data)
