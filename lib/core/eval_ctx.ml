(* The caches of an evaluation.  See eval_ctx.mli. *)

type t = {
  describe : Bdc.memo;
  memo : Pass_memo.t option;
  closures : Feam_dynlinker.Resolve.memo option;
}

let create ?(describe = Bdc.create_memo ()) () =
  {
    describe;
    memo = Some (Pass_memo.create ());
    closures = Some (Feam_dynlinker.Resolve.create_memo ());
  }

let closures ctx = Option.bind ctx (fun c -> c.closures)
