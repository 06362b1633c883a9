(* Serializes a {!Spec.t} into a real ELF image.

   Layout: ELF header, program header table (PT_INTERP when the spec
   names a loader, PT_LOAD covering the image, PT_DYNAMIC), then section
   contents in a fixed order (.interp, .note.ABI-tag, .dynstr, .dynsym,
   .gnu.version, .gnu.version_r, .gnu.version_d, .dynamic, .comment,
   .shstrtab), then the section header table.  Allocated sections get virtual addresses
   at [image_base + file offset] so that DT_STRTAB / DT_VERNEED hold
   resolvable addresses. *)

let image_base = 0x400000

(* A section under construction. *)
type section = {
  name : string;
  sh_type : int;
  sh_flags : int;
  body : string;
  sh_link : int; (* filled with the .dynstr index where relevant *)
  sh_info : int;
  sh_entsize : int;
  sh_addralign : int;
  allocated : bool;
}

let shf_alloc = 2

(* String-keyed tables, compared with [String.equal] (OCaml 4.14's
   [String] has no [hash] to apply [Hashtbl.Make] to directly). *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

(* Incremental string table: interns strings, returns offsets.  A string
   keeps the offset of its first insertion, so the table's bytes depend
   only on the order of first insertions. *)
module Strtab = struct
  type t = { buf : Buffer.t; index : int Tbl.t }

  let create () =
    let buf = Buffer.create 256 in
    Buffer.add_char buf '\000';
    { buf; index = Tbl.create 32 }

  let add t s =
    match Tbl.find_opt t.index s with
    | Some off -> off
    | None ->
      let off = Buffer.length t.buf in
      Buffer.add_string t.buf s;
      Buffer.add_char t.buf '\000';
      Tbl.add t.index s off;
      off

  let contents t = Buffer.contents t.buf
end

let header_size = function Types.C32 -> 52 | Types.C64 -> 64

let shentsize = function Types.C32 -> 40 | Types.C64 -> 64

let phentsize = function Types.C32 -> 32 | Types.C64 -> 56

let dyn_entry_size = function Types.C32 -> 8 | Types.C64 -> 16

let sym_entry_size = function Types.C32 -> 16 | Types.C64 -> 24

(* .note.ABI-tag body: 4-byte name "GNU\0", 16-byte desc
   (os = 0 Linux, then the minimum kernel version triple). *)
let note_body endian (maj, min_, patch) =
  let w = Codec.Writer.create ~size:32 endian in
  Codec.Writer.u32 w 4 (* namesz *);
  Codec.Writer.u32 w 16 (* descsz *);
  Codec.Writer.u32 w 1 (* NT_GNU_ABI_TAG *);
  Codec.Writer.bytes w "GNU\000";
  Codec.Writer.u32 w 0 (* ELF_NOTE_OS_LINUX *);
  Codec.Writer.u32 w maj;
  Codec.Writer.u32 w min_;
  Codec.Writer.u32 w patch;
  Codec.Writer.contents w

(* .gnu.version_r body: one Verneed record per depended-on file, each with
   one Vernaux per required version name.  Version indices (vna_other)
   start at 2 (0 = local, 1 = global). *)
let verneed_body endian dynstr (verneeds : Spec.verneed list) =
  let size =
    List.fold_left
      (fun acc vn -> acc + 16 + (16 * List.length vn.Spec.vn_versions))
      0 verneeds
  in
  let w = Codec.Writer.create ~size endian in
  let n = List.length verneeds in
  let next_index = ref 2 in
  List.iteri
    (fun i vn ->
      let cnt = List.length vn.Spec.vn_versions in
      let file_off = Strtab.add dynstr vn.Spec.vn_file in
      Codec.Writer.u16 w 1 (* vn_version *);
      Codec.Writer.u16 w cnt;
      Codec.Writer.u32 w file_off;
      Codec.Writer.u32 w 16 (* vn_aux: auxes follow immediately *);
      (* vn_next: byte distance to the next Verneed record *)
      Codec.Writer.u32 w (if i = n - 1 then 0 else 16 + (cnt * 16));
      List.iteri
        (fun j name ->
          let name_off = Strtab.add dynstr name in
          Codec.Writer.u32 w (Types.elf_hash name);
          Codec.Writer.u16 w 0 (* vna_flags *);
          Codec.Writer.u16 w !next_index;
          incr next_index;
          Codec.Writer.u32 w name_off;
          Codec.Writer.u32 w (if j = cnt - 1 then 0 else 16))
        vn.Spec.vn_versions)
    verneeds;
  Codec.Writer.contents w

(* .gnu.version_d body: one Verdef + Verdaux per defined version name. *)
let verdef_body endian dynstr verdefs =
  let n = List.length verdefs in
  let w = Codec.Writer.create ~size:(28 * n) endian in
  List.iteri
    (fun i name ->
      let name_off = Strtab.add dynstr name in
      Codec.Writer.u16 w 1 (* vd_version *);
      Codec.Writer.u16 w (if i = 0 then 1 else 0) (* VER_FLG_BASE on first *);
      Codec.Writer.u16 w (i + 1) (* vd_ndx *);
      Codec.Writer.u16 w 1 (* vd_cnt *);
      Codec.Writer.u32 w (Types.elf_hash name);
      Codec.Writer.u32 w 20 (* vd_aux *);
      Codec.Writer.u32 w (if i = n - 1 then 0 else 28 (* 20 + 8 *));
      Codec.Writer.u32 w name_off;
      Codec.Writer.u32 w 0 (* vda_next *))
    verdefs;
  Codec.Writer.contents w

(* .dynsym body: the mandatory null entry at index 0, then one entry per
   symbol.  Defined symbols get SHN_ABS (the framework never models
   addresses), undefined ones SHN_UNDEF; st_info carries the binding in
   its high nibble with STT_FUNC below. *)
let symtab_body cls endian dynstr (dynsyms : Spec.dynsym list) =
  let size = sym_entry_size cls * (List.length dynsyms + 1) in
  let w = Codec.Writer.create ~size endian in
  let entry ~name_off ~info ~shndx =
    match cls with
    | Types.C64 ->
      Codec.Writer.u32 w name_off;
      Codec.Writer.u8 w info;
      Codec.Writer.u8 w 0 (* st_other *);
      Codec.Writer.u16 w shndx;
      Codec.Writer.u64 w 0 (* st_value *);
      Codec.Writer.u64 w 0 (* st_size *)
    | Types.C32 ->
      Codec.Writer.u32 w name_off;
      Codec.Writer.u32 w 0 (* st_value *);
      Codec.Writer.u32 w 0 (* st_size *);
      Codec.Writer.u8 w info;
      Codec.Writer.u8 w 0 (* st_other *);
      Codec.Writer.u16 w shndx
  in
  entry ~name_off:0 ~info:0 ~shndx:0;
  List.iter
    (fun (s : Spec.dynsym) ->
      let binding =
        match s.Spec.sym_binding with
        | Spec.Global -> Types.Stb.global
        | Spec.Weak -> Types.Stb.weak
      in
      entry
        ~name_off:(Strtab.add dynstr s.Spec.sym_name)
        ~info:((binding lsl 4) lor 2 (* STT_FUNC *))
        ~shndx:(if s.Spec.sym_defined then Types.Shn.abs else Types.Shn.undef))
    dynsyms;
  Codec.Writer.contents w

(* .gnu.version body: one u16 version index per .dynsym entry including
   the null entry (index 0).  Undefined symbols bind to verneed indices
   (vna_other numbering: 2 + flattened position), defined symbols to
   verdef indices (vd_ndx = position + 1); unversioned symbols get 1
   (VER_NDX_GLOBAL). *)
let versym_body endian (spec : Spec.t) =
  (* version name -> index; a name listed twice keeps its first index *)
  let index_of names =
    let t = Tbl.create 16 in
    List.iter (fun (v, i) -> if not (Tbl.mem t v) then Tbl.add t v i) names;
    t
  in
  let need_index =
    let next = ref 2 in
    List.concat_map
      (fun vn ->
        List.map
          (fun v ->
            let i = !next in
            incr next;
            (v, i))
          vn.Spec.vn_versions)
      spec.Spec.verneeds
    |> index_of
  in
  let def_index = index_of (List.mapi (fun i v -> (v, i + 1)) spec.Spec.verdefs) in
  let w = Codec.Writer.create ~size:(2 * (List.length spec.Spec.dynsyms + 1)) endian in
  Codec.Writer.u16 w 0;
  List.iter
    (fun (s : Spec.dynsym) ->
      let ndx =
        match s.Spec.sym_version with
        | None -> 1
        | Some v -> (
          let table = if s.Spec.sym_defined then def_index else need_index in
          match Tbl.find_opt table v with Some i -> i | None -> 1)
      in
      Codec.Writer.u16 w ndx)
    spec.Spec.dynsyms;
  Codec.Writer.contents w

let comment_body comments =
  String.concat "" (List.map (fun c -> c ^ "\000") comments)

let dynamic_body spec cls endian dynstr ~size ~dynstr_addr ~dynstr_size
    ~symtab_addr ~versym_addr ~verneed_addr ~verdef_addr =
  let w = Codec.Writer.create ~size endian in
  let entry tag value =
    Codec.Writer.word w cls tag;
    Codec.Writer.word w cls value
  in
  List.iter (fun dep -> entry Types.Dt.needed (Strtab.add dynstr dep)) spec.Spec.needed;
  Option.iter (fun s -> entry Types.Dt.soname (Strtab.add dynstr s)) spec.Spec.soname;
  Option.iter (fun s -> entry Types.Dt.rpath (Strtab.add dynstr s)) spec.Spec.rpath;
  Option.iter (fun s -> entry Types.Dt.runpath (Strtab.add dynstr s)) spec.Spec.runpath;
  entry Types.Dt.strtab dynstr_addr;
  entry Types.Dt.strsz dynstr_size;
  (match symtab_addr with
  | Some addr ->
    entry Types.Dt.symtab addr;
    entry Types.Dt.syment (sym_entry_size cls)
  | None -> ());
  (match versym_addr with
  | Some addr -> entry Types.Dt.versym addr
  | None -> ());
  (match verneed_addr with
  | Some addr ->
    entry Types.Dt.verneed addr;
    entry Types.Dt.verneednum (List.length spec.Spec.verneeds)
  | None -> ());
  (match verdef_addr with
  | Some addr ->
    entry Types.Dt.verdef addr;
    entry Types.Dt.verdefnum (List.length spec.Spec.verdefs)
  | None -> ());
  entry Types.Dt.null 0;
  Codec.Writer.contents w

(* [build spec] renders the spec as ELF bytes. *)
let build (spec : Spec.t) : string =
  let cls = spec.elf_class and endian = spec.endian in
  let dynstr = Strtab.create () in
  (* Build string-referencing bodies first so that .dynstr is complete
     before it is laid out.  The dynamic section references .dynstr offsets
     only, so it can be rendered after layout (when addresses are known) as
     long as its strings are interned now. *)
  List.iter (fun d -> ignore (Strtab.add dynstr d)) spec.needed;
  Option.iter (fun s -> ignore (Strtab.add dynstr s)) spec.soname;
  Option.iter (fun s -> ignore (Strtab.add dynstr s)) spec.rpath;
  Option.iter (fun s -> ignore (Strtab.add dynstr s)) spec.runpath;
  let symtab =
    if spec.dynsyms = [] then "" else symtab_body cls endian dynstr spec.dynsyms
  in
  let verneed = verneed_body endian dynstr spec.verneeds in
  let verdef = verdef_body endian dynstr spec.verdefs in
  let dynstr_body = Strtab.contents dynstr in

  (* Dynamic entry count: needed + optional singletons + strtab/strsz +
     symbol-table entries + version entries + null terminator. *)
  let dyn_entries =
    List.length spec.needed
    + (match spec.soname with Some _ -> 1 | None -> 0)
    + (match spec.rpath with Some _ -> 1 | None -> 0)
    + (match spec.runpath with Some _ -> 1 | None -> 0)
    + 2 (* strtab, strsz *)
    + (if spec.dynsyms = [] then 0 else 3) (* symtab, syment, versym *)
    + (if spec.verneeds = [] then 0 else 2)
    + (if spec.verdefs = [] then 0 else 2)
    + 1 (* null *)
  in
  let dynamic_size = dyn_entries * dyn_entry_size cls in

  (* Program header table: PT_INTERP (optional), PT_LOAD, PT_DYNAMIC. *)
  let phnum = 2 + (match spec.interp with Some _ -> 1 | None -> 0) in

  (* Lay out section contents after the ELF header and the program
     header table, 8-byte aligned. *)
  let align8 off = (off + 7) land lnot 7 in
  let cursor = ref (header_size cls + (phnum * phentsize cls)) in
  let place size =
    let off = align8 !cursor in
    cursor := off + size;
    off
  in
  let interp_body = Option.map (fun i -> i ^ "\000") spec.interp in
  let interp_off = Option.map (fun b -> place (String.length b)) interp_body in
  let note =
    Option.map (fun v -> note_body endian v) spec.abi_note
  in
  let note_off = Option.map (fun b -> place (String.length b)) note in
  let dynstr_off = place (String.length dynstr_body) in
  let symtab_off =
    if spec.dynsyms = [] then None else Some (place (String.length symtab))
  in
  let versym = if spec.dynsyms = [] then "" else versym_body endian spec in
  let versym_off =
    if spec.dynsyms = [] then None else Some (place (String.length versym))
  in
  let verneed_off = if spec.verneeds = [] then None else Some (place (String.length verneed)) in
  let verdef_off = if spec.verdefs = [] then None else Some (place (String.length verdef)) in
  let dynamic_off = place dynamic_size in
  let comment = comment_body spec.comments in
  let comment_off = place (String.length comment) in

  let addr_of off = image_base + off in
  let dynamic =
    dynamic_body spec cls endian dynstr ~size:dynamic_size
      ~dynstr_addr:(addr_of dynstr_off)
      ~dynstr_size:(String.length dynstr_body)
      ~symtab_addr:(Option.map addr_of symtab_off)
      ~versym_addr:(Option.map addr_of versym_off)
      ~verneed_addr:(Option.map addr_of verneed_off)
      ~verdef_addr:(Option.map addr_of verdef_off)
  in
  assert (String.length dynamic = dynamic_size);
  (* .dynstr must not have grown while rendering the dynamic section. *)
  assert (String.length (Strtab.contents dynstr) = String.length dynstr_body);

  (* Section descriptors in index order (0 = NULL). *)
  let sections = ref [] in
  let add_section s = sections := s :: !sections in
  add_section
    {
      name = "";
      sh_type = Types.Sht.null;
      sh_flags = 0;
      body = "";
      sh_link = 0;
      sh_info = 0;
      sh_entsize = 0;
      sh_addralign = 0;
      allocated = false;
    };
  let section ?(flags = 0) ?(link = 0) ?(info = 0) ?(entsize = 0)
      ?(align = 8) ~allocated name sh_type body =
    add_section
      {
        name;
        sh_type;
        sh_flags = flags;
        body;
        sh_link = link;
        sh_info = info;
        sh_entsize = entsize;
        sh_addralign = align;
        allocated;
      }
  in
  (* Section indices depend on which optional sections exist; track the
     index of .dynstr for sh_link fields. *)
  let idx = ref 1 in
  Option.iter
    (fun body ->
      section ~flags:shf_alloc ~align:1 ~allocated:true ".interp"
        Types.Sht.progbits body;
      incr idx)
    interp_body;
  Option.iter
    (fun body ->
      section ~flags:shf_alloc ~align:4 ~allocated:true ".note.ABI-tag"
        Types.Sht.note body;
      incr idx)
    note;
  let dynstr_idx = !idx in
  section ~flags:shf_alloc ~allocated:true ".dynstr" Types.Sht.strtab dynstr_body;
  incr idx;
  if spec.dynsyms <> [] then begin
    let dynsym_idx = !idx in
    section ~flags:shf_alloc ~link:dynstr_idx ~info:1
      ~entsize:(sym_entry_size cls) ~allocated:true ".dynsym" Types.Sht.dynsym
      symtab;
    incr idx;
    section ~flags:shf_alloc ~link:dynsym_idx ~entsize:2 ~align:2
      ~allocated:true ".gnu.version" Types.Sht.gnu_versym versym;
    incr idx
  end;
  if spec.verneeds <> [] then begin
    section ~flags:shf_alloc ~link:dynstr_idx ~info:(List.length spec.verneeds)
      ~allocated:true ".gnu.version_r" Types.Sht.gnu_verneed verneed;
    incr idx
  end;
  if spec.verdefs <> [] then begin
    section ~flags:shf_alloc ~link:dynstr_idx ~info:(List.length spec.verdefs)
      ~allocated:true ".gnu.version_d" Types.Sht.gnu_verdef verdef;
    incr idx
  end;
  section ~flags:shf_alloc ~link:dynstr_idx ~entsize:(dyn_entry_size cls)
    ~allocated:true ".dynamic" Types.Sht.dynamic dynamic;
  incr idx;
  section ~align:1 ~allocated:false ".comment" Types.Sht.progbits comment;
  incr idx;

  (* .shstrtab names all sections including itself. *)
  let shstrtab = Strtab.create () in
  let sections_so_far = List.rev !sections in
  List.iter (fun s -> ignore (Strtab.add shstrtab s.name)) sections_so_far;
  ignore (Strtab.add shstrtab ".shstrtab");
  let shstrtab_body = Strtab.contents shstrtab in
  section ~align:1 ~allocated:false ".shstrtab" Types.Sht.strtab shstrtab_body;
  let shstrndx = !idx in
  let sections = List.rev !sections in

  (* Assign file offsets: the bodies were placed above in the same order;
     recompute to keep a single source of truth. *)
  let offsets =
    let cursor = ref (header_size cls + (phnum * phentsize cls)) in
    List.map
      (fun s ->
        if s.sh_type = Types.Sht.null then 0
        else begin
          let off = align8 !cursor in
          cursor := off + String.length s.body;
          off
        end)
      sections
  in
  (* The precomputed offsets must agree with the layout used for
     addresses embedded in .dynamic. *)
  List.iter2
    (fun s off ->
      match s.name with
      | ".interp" -> assert (Some off = interp_off)
      | ".note.ABI-tag" -> assert (Some off = note_off)
      | ".dynstr" -> assert (off = dynstr_off)
      | ".dynsym" -> assert (Some off = symtab_off)
      | ".gnu.version" -> assert (Some off = versym_off)
      | ".gnu.version_r" -> assert (Some off = verneed_off)
      | ".gnu.version_d" -> assert (Some off = verdef_off)
      | ".dynamic" -> assert (off = dynamic_off)
      | ".comment" -> assert (off = comment_off)
      | _ -> ())
    sections offsets;

  let last_off = List.fold_left2 (fun acc s off -> max acc (off + String.length s.body)) 0 sections offsets in
  let shoff = align8 last_off in
  let shnum = List.length sections in

  (* Emit: header, bodies, section header table. *)
  let total_size = shoff + (shnum * shentsize cls) in
  let w = Codec.Writer.create ~size:total_size endian in
  (* e_ident *)
  Codec.Writer.bytes w "\x7fELF";
  Codec.Writer.u8 w (Types.class_code cls);
  Codec.Writer.u8 w (Types.endian_code endian);
  Codec.Writer.u8 w 1 (* EV_CURRENT *);
  Codec.Writer.u8 w (Types.osabi_code Types.GNU_LINUX);
  Codec.Writer.u8 w 0 (* ABI version *);
  Codec.Writer.zeros w 7;
  Codec.Writer.u16 w (Types.file_type_code spec.file_type);
  Codec.Writer.u16 w (Types.machine_code spec.machine);
  Codec.Writer.u32 w 1 (* e_version *);
  Codec.Writer.word w cls (image_base + header_size cls) (* e_entry: synthetic *);
  Codec.Writer.word w cls (header_size cls) (* e_phoff *);
  Codec.Writer.word w cls shoff;
  Codec.Writer.u32 w 0 (* e_flags *);
  Codec.Writer.u16 w (header_size cls);
  Codec.Writer.u16 w (phentsize cls);
  Codec.Writer.u16 w phnum;
  Codec.Writer.u16 w (shentsize cls);
  Codec.Writer.u16 w shnum;
  Codec.Writer.u16 w shstrndx;
  (* Program header table. *)
  let phdr p_type ~flags ~off ~size ~align =
    match cls with
    | Types.C64 ->
      Codec.Writer.u32 w p_type;
      Codec.Writer.u32 w flags;
      Codec.Writer.u64 w off;
      Codec.Writer.u64 w (image_base + off) (* p_vaddr *);
      Codec.Writer.u64 w (image_base + off) (* p_paddr *);
      Codec.Writer.u64 w size;
      Codec.Writer.u64 w size;
      Codec.Writer.u64 w align
    | Types.C32 ->
      Codec.Writer.u32 w p_type;
      Codec.Writer.u32 w off;
      Codec.Writer.u32 w (image_base + off);
      Codec.Writer.u32 w (image_base + off);
      Codec.Writer.u32 w size;
      Codec.Writer.u32 w size;
      Codec.Writer.u32 w flags;
      Codec.Writer.u32 w align
  in
  (match (interp_body, interp_off) with
  | Some body, Some off ->
    phdr Types.Pt.interp ~flags:4 ~off ~size:(String.length body) ~align:1
  | _ -> ());
  phdr Types.Pt.load ~flags:5 ~off:0 ~size:total_size ~align:0x1000;
  phdr Types.Pt.dynamic ~flags:6 ~off:dynamic_off ~size:dynamic_size ~align:8;
  (* Bodies. *)
  List.iter2
    (fun s off ->
      if s.sh_type <> Types.Sht.null then begin
        Codec.Writer.pad_to w off;
        Codec.Writer.bytes w s.body
      end)
    sections offsets;
  Codec.Writer.pad_to w shoff;
  (* Section header table. *)
  List.iter2
    (fun s off ->
      let name_off = if s.name = "" then 0 else Strtab.add shstrtab s.name in
      let addr = if s.allocated then image_base + off else 0 in
      match cls with
      | Types.C64 ->
        Codec.Writer.u32 w name_off;
        Codec.Writer.u32 w s.sh_type;
        Codec.Writer.u64 w s.sh_flags;
        Codec.Writer.u64 w addr;
        Codec.Writer.u64 w (if s.sh_type = Types.Sht.null then 0 else off);
        Codec.Writer.u64 w (String.length s.body);
        Codec.Writer.u32 w s.sh_link;
        Codec.Writer.u32 w s.sh_info;
        Codec.Writer.u64 w s.sh_addralign;
        Codec.Writer.u64 w s.sh_entsize
      | Types.C32 ->
        Codec.Writer.u32 w name_off;
        Codec.Writer.u32 w s.sh_type;
        Codec.Writer.u32 w s.sh_flags;
        Codec.Writer.u32 w addr;
        Codec.Writer.u32 w (if s.sh_type = Types.Sht.null then 0 else off);
        Codec.Writer.u32 w (String.length s.body);
        Codec.Writer.u32 w s.sh_link;
        Codec.Writer.u32 w s.sh_info;
        Codec.Writer.u32 w s.sh_addralign;
        Codec.Writer.u32 w s.sh_entsize)
    sections offsets;
  Codec.Writer.contents w
