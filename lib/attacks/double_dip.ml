(** Double DIP [10]: every distinguishing input must rule out at least two
    wrong keys at once.  The miter carries two independent key *pairs*; a
    2-distinguishing input makes both pairs disagree simultaneously while
    the pairs are kept distinct, which defeats one-key-per-iteration
    defences such as SARLock. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle

type result = Dip_loop.result = {
  outcome : bool array Budget.outcome;
  iterations : int;
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;  (** solver conflicts spent by this run *)
  elapsed_s : float;
}

(* two key pairs, each disagreeing on the same input, with the pairs kept
   distinct (key 0 <> key 2) *)
let differ some_diff ~outs ~keys =
  some_diff outs.(0) outs.(1);
  some_diff outs.(2) outs.(3);
  some_diff keys.(0) keys.(2)

let run ?(budget = { Budget.default with Budget.max_iterations = 128 })
    ?max_iterations (locked : Locked.t) (oracle : Oracle.t) : result =
  Dip_loop.run ~name:"double_dip" ~budget ?max_iterations
    (fun () -> Dip_loop.miter locked ~copies:4 ~differ)
    oracle
