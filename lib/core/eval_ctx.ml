(* The caches of an evaluation.  See eval_ctx.mli. *)

type describe_memo =
  (bool * bool * Feam_util.Chash.t, Description.t Pass_memo.tape) Hashtbl.t

type t = {
  describe : describe_memo option;
  memo : Pass_memo.t option;
  closures : Feam_dynlinker.Resolve.memo option;
  templates : Feam_toolchain.Compile.templates option;
}

let create_describe_memo () : describe_memo = Hashtbl.create 256

let create ?(describe = create_describe_memo ()) () =
  {
    describe = Some describe;
    memo = Some (Pass_memo.create ());
    closures = Some (Feam_dynlinker.Resolve.create_memo ());
    templates = Some (Feam_toolchain.Compile.create_templates ());
  }

let reference =
  { describe = None; memo = None; closures = None; templates = None }

let closures ctx = Option.bind ctx (fun c -> c.closures)
let templates ctx = Option.bind ctx (fun c -> c.templates)
