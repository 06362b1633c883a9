(* The caches of an evaluation.  See eval_ctx.mli. *)

type t = {
  describe : Bdc.memo option;
  memo : Pass_memo.t option;
  closures : Feam_dynlinker.Resolve.memo option;
}

let create ?(describe = Bdc.create_memo ()) () =
  {
    describe = Some describe;
    memo = Some (Pass_memo.create ());
    closures = Some (Feam_dynlinker.Resolve.create_memo ());
  }

let reference = { describe = None; memo = None; closures = None }

let closures ctx = Option.bind ctx (fun c -> c.closures)
