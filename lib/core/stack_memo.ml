(* The MPI-stack determinant's memo (paper §III.B, §V.C; DESIGN §17).

   Probing candidate stacks — compile a hello world at the target, stage
   the shipped probes and the bundle copies they need, run each through
   the batch queue — is the most expensive step of a target phase, and
   one evaluation pass repeats it for the same inputs many times: every
   binary of one stack family asks each target the same question.  A
   memo lives for one pass and is passed down explicitly; callers that
   pass none probe every time.

   A hit must leave the world exactly as a miss would, so a miss runs
   under recorders for every channel the probes' effects outlive the
   determinant on, and a hit replays them in order: flight-recorder
   records, probe and resolution counters, build-ID serials and clock
   charges.  The probes' files need no replay: {!Tec.select_stack} runs
   the whole determinant in one file-system scope, so a miss leaves none
   behind either. *)

open Feam_util
open Feam_sysmodel

type selection =
  (Discovery.discovered_stack * Stack_install.t) option * (string * string) list

type entry = {
  selection : selection;
  records : Feam_flightrec.Recorder.tape;
  counters : Feam_obs.Metrics.tape;
  builds : int;  (* build IDs the probes' compiles handed out *)
  charges : float list;
}

type t = (string, entry) Hashtbl.t

let create () : t = Hashtbl.create 64

(* Counters the probes move that the pass reports; cache counters
   (elf.parse_memo and the like) are left to count real work. *)
let replayed_counters = [ "edc.probe_"; "resolve." ]

(* The inputs a determinant's outcome depends on, length-prefixed into
   one string.  Probe bytes and the target's /tmp/feam are left out on
   purpose; DESIGN §17 argues why.  The flight recorder's state leads:
   a miss keeps journal records only while journaling is on (a pass that
   journals nothing would otherwise hold every probe's records for
   nothing), so an entry serves only lookups in the same state. *)
let key ~config site env ~bundle ~target_glibc ~candidates =
  let b = Buffer.create 512 in
  Buffer.add_char b (if Feam_flightrec.Recorder.enabled () then 'j' else '-');
  let add s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let add_list f l =
    add (string_of_int (List.length l));
    List.iter f l
  in
  add (Site.name site);
  add_list (fun (k, v) -> add k; add v) (Env.bindings env);
  add (Config.to_file_body config);
  add (match target_glibc with Some v -> Version.to_string v | None -> "-");
  add_list (fun c -> add c.Discovery.slug) candidates;
  (match bundle with
  | None -> add "no bundle"
  | Some bundle ->
    add bundle.Bundle.created_at;
    add_list
      (fun p ->
        add p.Bundle.probe_name;
        add p.Bundle.probe_stack_slug;
        add (string_of_int p.Bundle.probe_declared_size))
      bundle.Bundle.probes;
    add_list
      (fun c ->
        add c.Bdc.copy_request;
        add (Chash.to_hex (Feam_elf.Reader.content_key c.Bdc.copy_bytes));
        add (string_of_int c.Bdc.copy_declared_size))
      bundle.Bundle.copies);
  Buffer.contents b

let replay ?clock e =
  Feam_flightrec.Recorder.replay e.records;
  Feam_obs.Metrics.replay e.counters;
  Feam_toolchain.Build_id.skip e.builds;
  List.iter (Cost.charge clock) e.charges

let record probe =
  let tape = Sim_clock.recording () in
  let builds = Feam_toolchain.Build_id.serial () in
  let ((selection, records), counters) =
    Feam_obs.Metrics.capture ~prefixes:replayed_counters @@ fun () ->
    Feam_flightrec.Recorder.capture @@ fun () -> probe ~clock:tape
  in
  {
    selection;
    records;
    counters;
    builds = Feam_toolchain.Build_id.serial () - builds;
    charges = Sim_clock.charges tape;
  }

let find_or_probe t ?clock ~config site env ~bundle ~target_glibc ~candidates
    probe =
  let k = key ~config site env ~bundle ~target_glibc ~candidates in
  match Hashtbl.find_opt t k with
  | Some e ->
    Feam_obs.Metrics.incr "tec.stack_memo.hit";
    replay ?clock e;
    e.selection
  | None ->
    Feam_obs.Metrics.incr "tec.stack_memo.miss";
    let e = record probe in
    Hashtbl.add t k e;
    (* The miss's other effects happened live; its charges went to the
       recording clock. *)
    List.iter (Cost.charge clock) e.charges;
    e.selection
