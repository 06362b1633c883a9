(* The caches of one evaluation pass.  See eval_ctx.mli. *)

type t = { describe : Bdc.memo; stacks : Stack_memo.t option }

let create () =
  { describe = Bdc.create_memo (); stacks = Some (Stack_memo.create ()) }

let next_pass t = { t with stacks = Some (Stack_memo.create ()) }
