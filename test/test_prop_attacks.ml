(** Attack-layer properties: when an oracle-guided attack claims an exact
    key on an unlockable instance, that key must survive an independent
    SAT-miter equivalence check against the original circuit — the
    paper's own success criterion, applied to our implementations. *)

module Locked = Orap_locking.Locked
module Random_ll = Orap_locking.Random_ll
module Sarlock = Orap_locking.Sarlock
module Oracle = Orap_core.Oracle
module Budget = Orap_attacks.Budget
module Sat_attack = Orap_attacks.Sat_attack
module Double_dip = Orap_attacks.Double_dip
module Prop = Orap_proptest.Prop
module Gen = Orap_proptest.Gen
module Equiv = Orap_attacks.Equiv

let keyed (lk : Locked.t) key =
  let positions = Locked.key_input_positions lk in
  Equiv.with_fixed_inputs lk.Locked.netlist
    (Array.to_list (Array.mapi (fun j pos -> (pos, key.(j))) positions))

let benchgen = Gen.benchgen_netlist ~inputs:8 ~outputs:4 ~gates:40

let with_seed g = Gen.pair g (Gen.int_range 0 0x3FFFFFFF)

(* P: the SAT attack against a functional oracle on random locking always
   terminates Exact, and the recovered key is miter-equivalent — even when
   it differs bitwise from the inserted key *)
let prop_sat_attack_exact_key_is_equivalent =
  Prop.to_alcotest ~count:12
    ~name:"sat attack key passes the miter check"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Random_ll.lock ~seed nl ~key_size:6 in
      let r = Sat_attack.run lk (Oracle.functional lk) in
      match r.Sat_attack.outcome with
      | Budget.Exact key ->
        Equiv.check ~method_:`Sat nl (keyed lk key) = Equiv.Equivalent
      | _ -> false)

(* P: Double DIP terminates on SARLock-locked circuits (the scheme it was
   designed to defeat) with a miter-equivalent key *)
let prop_double_dip_defeats_sarlock =
  Prop.to_alcotest ~count:8
    ~name:"double dip key on sarlock passes the miter check"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Sarlock.lock ~seed nl ~key_size:4 in
      let r = Double_dip.run ~max_iterations:512 lk (Oracle.functional lk) in
      match r.Double_dip.outcome with
      | Budget.Exact key | Budget.Approximate (key, _) ->
        Equiv.check ~method_:`Sat nl (keyed lk key) = Equiv.Equivalent
      | _ -> false)

(* P: a claimed Exact proof is sound relative to the oracle — replaying
   every recorded query against the recovered key shows no mismatch (here
   via fresh random queries, the attack's own validation path) *)
let prop_sat_attack_validation_is_clean =
  Prop.to_alcotest ~count:8
    ~name:"sat attack self-validation never demotes a clean oracle run"
    ~gen:(with_seed benchgen) (fun (nl, seed) ->
      let lk = Random_ll.lock ~seed nl ~key_size:5 in
      let r = Sat_attack.run ~validate:64 lk (Oracle.functional lk) in
      match r.Sat_attack.outcome with
      | Budget.Exact _ -> true
      | _ -> false)

let suite =
  ( "prop_attacks",
    [
      prop_sat_attack_exact_key_is_equivalent;
      prop_double_dip_defeats_sarlock;
      prop_sat_attack_validation_is_clean;
    ] )
