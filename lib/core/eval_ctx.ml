(* The caches of an evaluation.  See eval_ctx.mli. *)

type t = { describe : Bdc.memo; memo : Pass_memo.t option }

let create ?(describe = Bdc.create_memo ()) () =
  { describe; memo = Some (Pass_memo.create ()) }
