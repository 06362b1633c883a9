(* The evaluation memo (DESIGN §17): the MPI-stack
   determinant's outcomes (paper §III.B, §V.C) and the source phase's
   bundles (paper §V, Figure 2).

   Probing candidate stacks — compile a hello world at the target, stage
   the shipped probes and the bundle copies they need, run each through
   the batch queue — is the most expensive step of a target phase, and
   one pass repeats it for the same inputs many times: every binary of
   one stack family asks each target the same question.  The source
   phase is the paper's once-per-binary step, but a pass runs it once
   per matrix cell, and none of its inputs is the target.  A memo is
   passed down explicitly; callers that pass none compute every time.
   Its entries are kept per site state, so a memo may outlive a pass: a
   serve engine keeps one across requests, and an entry serves whenever
   its site is in the state it was made in.

   A hit must leave the world exactly as a miss would, so a miss runs
   under recorders for every channel its effects outlive it on, and a
   hit replays the recording in order: flight-recorder records, the
   pass's counters, build-ID serials and clock charges.  Both tables
   keep the same tape.  Files need no replay: {!Tec.select_stack} runs
   the determinant in one file-system scope, and the source phase
   writes nothing. *)

open Feam_util
open Feam_sysmodel

(* One computation's result and every effect of it a hit redoes. *)
type 'a tape = {
  value : 'a;
  records : Feam_flightrec.Recorder.tape;
  counters : Feam_obs.Metrics.tape;
  builds : int;  (* build IDs the computation's compiles handed out *)
  charges : float list;
}

(* Run [f] under a recording clock, the journal and counter recorders
   (counters named with one of [prefixes]) and the build-ID serial.  The
   run's other effects happen live; its charges reach [clock] once it
   returns.  A rerun would charge what the miss did: a describe-memo hit
   inside it replays its miss's charges too. *)
let record ?clock ~prefixes f =
  let recording = Sim_clock.recording () in
  let builds = Feam_toolchain.Build_id.serial () in
  let ((value, records), counters) =
    Feam_obs.Metrics.capture ~prefixes @@ fun () ->
    Feam_flightrec.Recorder.capture @@ fun () -> f ~clock:recording
  in
  let charges = Sim_clock.charges recording in
  List.iter (Cost.charge clock) charges;
  {
    value;
    records;
    counters;
    builds = Feam_toolchain.Build_id.serial () - builds;
    charges;
  }

let replay ?clock tape =
  Feam_flightrec.Recorder.replay tape.records;
  Feam_obs.Metrics.replay tape.counters;
  Feam_toolchain.Build_id.skip tape.builds;
  List.iter (Cost.charge clock) tape.charges;
  tape.value

type selection =
  (Discovery.discovered_stack * Stack_install.t) option * (string * string) list

(* The determinants run at a site and the source phases of binaries
   homed there, in one state of the site. *)
type tables = {
  stacks : (string, selection tape) Hashtbl.t;
  sources : (string, (Bundle.t, string) result tape) Hashtbl.t;
}

(* One site's tables, all made at one generation of its file system and
   with one value of each setter list; one pair per ld-cache flag. *)
type entries = {
  site : Site.t;  (* the site the name stood for in earlier lookups *)
  vfs_generation : int;
  ld_conf_dirs : string list;
  stack_installs : Stack_install.t list;
  mutable by_flag : (bool * tables) list;
}

type t = (string, entries) Hashtbl.t  (* by site name *)

let create () = Hashtbl.create 8

(* The tables for the site's current state.  A site found at a newer
   file-system generation, or with a setter list grown, loses every
   table: generations only grow, and so do the lists, so no lookup can
   match them again.  A setter replaces a list only to grow it, so the
   lists compare physically.  A key names a site; the site must not be
   another world's. *)
let tables t site =
  let name = Site.name site in
  let vfs_generation = Vfs.generation (Site.vfs site) in
  let ld_conf_dirs = Site.ld_conf_dirs site in
  let stack_installs = Site.stack_installs site in
  let e =
    match Hashtbl.find_opt t name with
    | Some e when e.site != site ->
      invalid_arg
        ("Pass_memo: site " ^ name
       ^ " is another world's; start a new pass for a rebuilt world")
    | Some e
      when e.vfs_generation = vfs_generation
           && e.ld_conf_dirs == ld_conf_dirs
           && e.stack_installs == stack_installs ->
      e
    | _ ->
      let e =
        { site; vfs_generation; ld_conf_dirs; stack_installs; by_flag = [] }
      in
      Hashtbl.replace t name e;
      e
  in
  let flag = Site.ld_cache_current site in
  match List.assoc_opt flag e.by_flag with
  | Some tables -> tables
  | None ->
    let tables = { stacks = Hashtbl.create 16; sources = Hashtbl.create 16 } in
    e.by_flag <- (flag, tables) :: e.by_flag;
    tables

let held t =
  Hashtbl.fold
    (fun name e acc ->
      ( name,
        e.vfs_generation,
        List.map
          (fun (_, s) -> Hashtbl.length s.stacks + Hashtbl.length s.sources)
          e.by_flag )
      :: acc)
    t []
  |> List.sort compare

(* [name].hit / [name].miss count the lookups. *)
let find_or_record table ~name ~prefixes ?clock key f =
  match Hashtbl.find_opt table key with
  | Some tape ->
    Feam_obs.Metrics.incr (name ^ ".hit");
    replay ?clock tape
  | None ->
    Feam_obs.Metrics.incr (name ^ ".miss");
    let tape = record ?clock ~prefixes f in
    Hashtbl.add table key tape;
    tape.value

(* Keys are length-prefixed strings.  The flight recorder's state leads:
   a miss keeps journal records only while journaling is on (a pass that
   journals nothing would otherwise hold every record for nothing), so
   an entry serves only lookups in the same state. *)
let key_buffer () =
  let b = Buffer.create 512 in
  Buffer.add_char b (if Feam_flightrec.Recorder.enabled () then 'j' else '-');
  b

let add b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let add_list b f l =
  add b (string_of_int (List.length l));
  List.iter f l

let add_context b ~config env =
  add_list b (fun (k, v) -> add b k; add b v) (Env.bindings env);
  add b (Config.to_file_body config)

(* -- the MPI-stack determinant ----------------------------------------- *)

(* Counters the probes move that the pass reports; cache counters
   (elf.parse_memo and the like) are left to count real work. *)
let stack_counters = [ "edc.probe_"; "resolve." ]

(* The inputs a determinant's outcome depends on.  Probe bytes and the
   target's /tmp/feam are left out on purpose; DESIGN §17 argues why. *)
let stack_key ~config env ~bundle ~target_glibc ~candidates =
  let b = key_buffer () in
  add_context b ~config env;
  add b (match target_glibc with Some v -> Version.to_string v | None -> "-");
  add_list b (fun c -> add b c.Discovery.slug) candidates;
  (match bundle with
  | None -> add b "no bundle"
  | Some bundle ->
    add b bundle.Bundle.created_at;
    add_list b
      (fun p ->
        add b p.Bundle.probe_name;
        add b p.Bundle.probe_stack_slug;
        add b (string_of_int p.Bundle.probe_declared_size))
      bundle.Bundle.probes;
    add_list b
      (fun c ->
        add b c.Bdc.copy_request;
        add b (Chash.to_hex (Feam_elf.Reader.image_key c.Bdc.copy_image));
        add b (string_of_int c.Bdc.copy_declared_size))
      bundle.Bundle.copies);
  Buffer.contents b

let find_or_probe t ?clock ~config site env ~bundle ~target_glibc ~candidates
    probe =
  find_or_record (tables t site).stacks ~name:"tec.stack_memo"
    ~prefixes:stack_counters ?clock
    (stack_key ~config env ~bundle ~target_glibc ~candidates)
    probe

(* -- the source phase -------------------------------------------------- *)

(* The source phase's own counters.  The describe and parse caches'
   counters are left out (they count real work), and so is bdc.describe,
   which only describe-cache misses move: an earlier source phase of the
   same binary in the same pass leaves nothing for it to count. *)
let source_counters =
  [
    "phases.source";
    "edc.discoveries";
    "bdc.library_copies";
    "bdc.unlocatable";
    "bdc.locate_failures";
    "bdc.objdump_parse_failures";
  ]

(* The home site's state fixes its lasting contents; the image keys
   what the path holds, also under a scope's writes. *)
let source_key ~config env ~binary_path ~image =
  let b = key_buffer () in
  add_context b ~config env;
  add b binary_path;
  (match image with
  | Some (image, declared_size) ->
    add b (Chash.to_hex (Feam_elf.Reader.image_key image));
    add b (string_of_int declared_size)
  | None -> add b "no image");
  Buffer.contents b

let find_or_source t ?clock ~config site env ~binary_path ~image source =
  find_or_record (tables t site).sources ~name:"phases.source_memo"
    ~prefixes:source_counters ?clock
    (source_key ~config env ~binary_path ~image)
    source
