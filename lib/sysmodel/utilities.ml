(* Emulation of the standard Unix utilities FEAM composes (paper §V):
   objdump, readelf, uname, locate, find, plus /proc and /etc reads.

   Each emulation reads only the site's virtual filesystem and renders
   output in the real tool's text format; the framework components parse
   that text, exactly as the real implementation shells out and parses.
   When the site's {!Tools} record says a tool is absent, the emulation
   returns [Error `Tool_unavailable] and the framework must fall back. *)

open Feam_util

type error =
  [ `Tool_unavailable of string
  | `No_such_file of string
  | `Not_elf of string ]

let error_to_string = function
  | `Tool_unavailable t -> Printf.sprintf "%s: command not found" t
  | `No_such_file p -> Printf.sprintf "%s: No such file or directory" p
  | `Not_elf p -> Printf.sprintf "%s: file format not recognized" p

(* objdump-style format descriptor for a parsed ELF. *)
let file_format_string (spec : Feam_elf.Spec.t) =
  let open Feam_elf.Types in
  match (spec.machine, spec.elf_class) with
  | X86_64, _ -> "elf64-x86-64"
  | I386, _ -> "elf32-i386"
  | PPC64, _ -> "elf64-powerpc"
  | PPC, _ -> "elf32-powerpc"
  | SPARCV9, _ -> "elf64-sparc"
  | SPARC, _ -> "elf32-sparc"
  | IA64, _ -> "elf64-ia64-little"

(* The parsed ELF image at a path, read through the file's handle. *)
let parse_elf site path =
  let vfs = Site.vfs site in
  match Vfs.resolve_image vfs path with
  | Some (_, image) -> (
    match Feam_elf.Reader.parse_image image with
    | Ok t -> Ok t
    | Error _ -> Error (`Not_elf path))
  | None when Vfs.exists vfs path -> Error (`Not_elf path)
  | None -> Error (`No_such_file path)

(* `objdump -p PATH`: file format line, Dynamic Section, Version
   References and Version definitions — the BDC's primary information
   source. *)
let objdump_p site path =
  if not (Site.tools site).Tools.objdump then
    Error (`Tool_unavailable "objdump")
  else begin
    Cost.charge Cost.tool_call;
    match parse_elf site path with
    | Error _ as e -> e
    | Ok parsed ->
      let spec = Feam_elf.Reader.spec parsed in
      let buf = Buffer.create 512 in
      let add = Buffer.add_string buf in
      let line label value =
        add label;
        add value;
        Buffer.add_char buf '\n'
      in
      (* "0x%08x" of a 32-bit hash *)
      let add_hash h =
        add "0x";
        for shift = 7 downto 0 do
          Buffer.add_char buf "0123456789abcdef".[(h lsr (4 * shift)) land 0xf]
        done
      in
      add path;
      line ":     file format " (file_format_string spec);
      Buffer.add_char buf '\n';
      (match spec.Feam_elf.Spec.interp with
      | Some interp ->
        add "Program Header:\n";
        add "    INTERP off    0x0000000000000200 vaddr 0x0000000000400200\n";
        add "      [Requesting program interpreter: ";
        add interp;
        add "]\n\n"
      | None -> ());
      add "Dynamic Section:\n";
      List.iter (line "  NEEDED               ") spec.needed;
      Option.iter (line "  SONAME               ") spec.soname;
      Option.iter (line "  RPATH                ") spec.rpath;
      Option.iter (line "  RUNPATH              ") spec.runpath;
      add "  STRTAB               0x400000\n";
      add "  STRSZ                0x100\n";
      if spec.verdefs <> [] then begin
        add "\nVersion definitions:\n";
        List.iteri
          (fun i name ->
            add (string_of_int (i + 1));
            add (if i = 0 then " 0x01 " else " 0x00 ");
            add_hash (Feam_elf.Types.elf_hash name);
            line " " name)
          spec.verdefs
      end;
      if spec.verneeds <> [] then begin
        add "\nVersion References:\n";
        List.iter
          (fun vn ->
            add "  required from ";
            add vn.Feam_elf.Spec.vn_file;
            add ":\n";
            List.iteri
              (fun j v ->
                add "    ";
                add_hash (Feam_elf.Types.elf_hash v);
                add (if j + 2 < 10 then " 0x00 0" else " 0x00 ");
                add (string_of_int (j + 2));
                line " " v)
              vn.Feam_elf.Spec.vn_versions)
          spec.verneeds
      end;
      Ok (Buffer.contents buf)
  end

(* `file PATH`: always available (file(1) is ubiquitous); the BDC's
   fallback for format/ISA identification when objdump is absent. *)
let file_cmd site path =
  Cost.charge Cost.tool_call;
  match Vfs.find (Site.vfs site) path with
  | None -> Error (`No_such_file path)
  | Some { Vfs.kind = Vfs.Script _; _ } ->
    Ok (path ^ ": POSIX shell script text executable")
  | Some { Vfs.kind = Vfs.Text _; _ } -> Ok (path ^ ": ASCII text")
  | Some { Vfs.kind = Vfs.Symlink target; _ } -> Ok (path ^ ": symbolic link to " ^ target)
  | Some { Vfs.kind = Vfs.Elf _; _ } -> (
    match parse_elf site path with
    | Error _ -> Ok (path ^ ": data")
    | Ok parsed ->
      let spec = Feam_elf.Reader.spec parsed in
      let open Feam_elf.Types in
      let bits = match spec.Feam_elf.Spec.elf_class with C64 -> "64-bit" | C32 -> "32-bit" in
      let endian = match spec.Feam_elf.Spec.endian with LE -> "LSB" | BE -> "MSB" in
      let kind =
        match spec.Feam_elf.Spec.file_type with
        | ET_EXEC -> "executable"
        | ET_DYN -> "shared object"
      in
      Ok
        (Printf.sprintf "%s: ELF %s %s %s, %s, version 1 (SYSV), dynamically linked"
           path bits endian kind
           (machine_name spec.Feam_elf.Spec.machine)))

(* `readelf -p .comment PATH`. *)
let readelf_comment site path =
  if not (Site.tools site).Tools.readelf then
    Error (`Tool_unavailable "readelf")
  else begin
    Cost.charge Cost.tool_call;
    match parse_elf site path with
    | Error _ as e -> e
    | Ok parsed ->
      let spec = Feam_elf.Reader.spec parsed in
      let buf = Buffer.create 256 in
      if spec.comments = [] then
        Buffer.add_string buf
          "readelf: Warning: Section '.comment' was not dumped because it does not exist!\n"
      else begin
        Buffer.add_string buf "\nString dump of section '.comment':\n";
        let off = ref 0 in
        List.iter
          (fun c ->
            Buffer.add_string buf (Printf.sprintf "  [%6x]  %s\n" !off c);
            off := !off + String.length c + 1)
          spec.comments
      end;
      Ok (Buffer.contents buf)
  end

(* `uname -p`. *)
let uname_p site =
  if not (Site.tools site).Tools.uname then Error (`Tool_unavailable "uname")
  else begin
    Cost.charge Cost.tool_call;
    Ok (Feam_elf.Types.machine_uname (Site.machine site))
  end

(* `cat /proc/version`, always available. *)
let proc_version site =
  Cost.charge Cost.tool_call;
  Distro.proc_version (Site.distro site) ~machine:(Site.machine site)

let release_files =
  [ "/etc/redhat-release"; "/etc/SuSE-release"; "/etc/lsb-release" ]

(* `cat /etc/*release`, reading whatever release files the site's vfs
   holds. *)
let etc_release site =
  Cost.charge Cost.tool_call;
  let vfs = Site.vfs site in
  release_files
  |> List.filter_map (fun p ->
         match Vfs.find vfs p with
         | Some { Vfs.kind = Vfs.Text body; _ } -> Some (p, body)
         | _ -> None)

(* `locate NAME`: every path in the (virtual) locate database whose
   basename starts with NAME. *)
let locate site name =
  if not (Site.tools site).Tools.locate then
    Error (`Tool_unavailable "locate")
  else begin
    Cost.charge Cost.locate_query;
    Ok
      (Vfs.find_by_basename (Site.vfs site) (fun base ->
           String.starts_with ~prefix:name base))
  end

(* `find DIR -name NAME*`: search specific directories. *)
let find_in_dirs site dirs name =
  if not (Site.tools site).Tools.find then Error (`Tool_unavailable "find")
  else begin
    Cost.charge Cost.find_walk;
    let vfs = Site.vfs site in
    Ok
      (List.concat_map
         (fun dir ->
           Vfs.find_under vfs dir (fun base ->
               String.starts_with ~prefix:name base))
         dirs)
  end

(* Identify the site's C library binary and its version banner.  Running
   libc.so.6 on a command line prints a banner whose first line carries
   the version; that is what the EDC parses (paper §V.B). *)
let glibc_banner site =
  Cost.charge Cost.tool_call;
  Printf.sprintf
    "GNU C Library stable release version %s, by Roland McGrath et al.\n\
     Compiled by GNU CC version 4.1.2.\n"
    (Version.to_string (Site.glibc site))

let libc_in bits =
  List.map (fun dir -> dir ^ "/libc.so.6") (Distro.default_lib_dirs ~bits)

let libc_64 = libc_in `B64
let libc_32 = libc_in `B32

let libc_candidates site =
  match Site.bits site with `B64 -> libc_64 | `B32 -> libc_32

(* Locate libc.so.6 in the site's default library directories. *)
let find_libc site =
  Cost.charge Cost.tool_call;
  let vfs = Site.vfs site in
  List.find_opt (Vfs.exists vfs) (libc_candidates site)
