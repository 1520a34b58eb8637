(** Synthesis-layer properties: every optimisation pass is a functional
    no-op, checked with the SAT miter rather than random sampling, and the
    three functional representations (netlist simulation, AIG, truth
    table / ISOP) agree on the same circuits. *)

open Util
module Aig = Orap_synth.Aig
module Truth = Orap_synth.Truth
module Isop = Orap_synth.Isop
module Balance = Orap_synth.Balance
module Refactor = Orap_synth.Refactor
module Abc = Orap_synth.Abc_script
module Prop = Orap_proptest.Prop
module Gen = Orap_proptest.Gen
module Equiv = Orap_proptest.Equiv

(* P: netlist -> AIG -> netlist is the identity on function (miter) *)
let prop_aig_roundtrip =
  Prop.netlist ~count:30 "AIG round-trip is miter-equivalent" (fun nl ->
      Equiv.check ~method_:`Sat nl (Aig.to_netlist (Aig.of_netlist nl))
      = Equiv.Equivalent)

(* P: balance preserves the function and never worsens AIG depth *)
let prop_balance =
  Prop.netlist ~count:30 "balance preserves function, depth never grows"
    (fun nl ->
      let g = Aig.of_netlist nl in
      let g' = Balance.run g in
      Aig.depth g' <= Aig.depth g
      && Equiv.check ~method_:`Sat nl (Aig.to_netlist g') = Equiv.Equivalent)

(* P: refactor preserves the function (miter) *)
let prop_refactor =
  Prop.netlist ~count:25 "refactor is miter-equivalent" (fun nl ->
      let g = Refactor.run ~cut_size:8 (Aig.of_netlist nl) in
      Equiv.check ~method_:`Sat nl (Aig.to_netlist g) = Equiv.Equivalent)

(* P: the full ABC-style pipeline preserves the function (miter) *)
let prop_pipeline =
  Prop.netlist ~count:15 "abc pipeline is miter-equivalent" (fun nl ->
      Equiv.check ~method_:`Sat nl (Aig.to_netlist (Abc.optimize nl))
      = Equiv.Equivalent)

(* the single-output cone of output [j], same input interface *)
let cone_of_output nl j =
  let b = N.Builder.create () in
  let map = N.copy_into b nl (Array.make (N.num_nodes nl) (-1)) in
  N.Builder.mark_output b map.((N.outputs nl).(j));
  N.Builder.finish b

(* exhaustive truth table of a single-output netlist *)
let truth_of_netlist nl =
  let ni = N.num_inputs nl in
  let words = Array.make (((1 lsl ni) + 63) / 64) 0L in
  for p = 0 to (1 lsl ni) - 1 do
    let inp = Array.init ni (fun i -> (p lsr i) land 1 = 1) in
    if (Sim.eval_bools nl inp).(0) then
      words.(p lsr 6) <-
        Int64.logor words.(p lsr 6) (Int64.shift_left 1L (p land 63))
  done;
  Truth.of_int64_words ni words

(* SOP netlist over the same inputs from an ISOP cube cover *)
let netlist_of_cubes ni cubes =
  let b = N.Builder.create () in
  let pis = Array.init ni (fun _ -> N.Builder.add_input b) in
  let lit v negated =
    if negated then N.Builder.add_node b Gate.Not [| pis.(v) |] else pis.(v)
  in
  let cube_node c =
    let lits = ref [] in
    for v = ni - 1 downto 0 do
      if (c.Isop.pos lsr v) land 1 = 1 then lits := lit v false :: !lits;
      if (c.Isop.neg lsr v) land 1 = 1 then lits := lit v true :: !lits
    done;
    match !lits with
    | [] -> N.Builder.add_node b Gate.Const1 [||]
    | [ one ] -> one
    | several -> N.Builder.add_node b Gate.And (Array.of_list several)
  in
  let out =
    match List.map cube_node cubes with
    | [] -> N.Builder.add_node b Gate.Const0 [||]
    | [ one ] -> one
    | several -> N.Builder.add_node b Gate.Or (Array.of_list several)
  in
  N.Builder.mark_output b out;
  N.Builder.finish b

(* P: sim, AIG and truth/ISOP agree — the truth table extracted by
   simulation, rebuilt as an ISOP SOP netlist, is miter-equivalent to the
   original output cone, and the AIG round-trip of the cone has the same
   truth table *)
let prop_representations_agree =
  Prop.netlist ~count:25 ~params:Gen.tiny_params
    "sim / AIG / truth+ISOP representations agree" (fun nl ->
      let cone = cone_of_output nl 0 in
      let t = truth_of_netlist cone in
      let via_aig = truth_of_netlist (Aig.to_netlist (Aig.of_netlist cone)) in
      let sop = netlist_of_cubes (N.num_inputs cone) (Isop.compute t) in
      Truth.equal t via_aig
      && Equiv.check ~method_:`Sat cone sop = Equiv.Equivalent)

let suite =
  ( "prop_synth",
    [
      prop_aig_roundtrip;
      prop_balance;
      prop_refactor;
      prop_pipeline;
      prop_representations_agree;
    ] )
