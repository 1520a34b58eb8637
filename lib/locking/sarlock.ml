(** SARLock [7]: SAT-attack-resistant point-function locking.  A comparator
    flips one primary output exactly when the applied inputs equal the key
    guess and the guess is wrong, so every SAT iteration rules out a single
    key — at the price of the low output corruptibility the paper
    criticises in Section IV. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Prng = Orap_sim.Prng

let lock ?(seed = 29) (nl : N.t) ~key_size : Locked.t =
  let ni = N.num_inputs nl in
  let k = min key_size ni in
  if k < 1 then invalid_arg "Sarlock.lock";
  let rng = Prng.create seed in
  let correct_key = Prng.bool_array rng k in
  let b = N.Builder.create ~size_hint:(N.num_nodes nl + (4 * k)) () in
  let map = Array.make (N.num_nodes nl) (-1) in
  Array.iter (fun id -> map.(id) <- N.Builder.add_input b) (N.inputs nl);
  let key_ids =
    Array.init k (fun j -> N.Builder.add_input ~name:(Printf.sprintf "key%d" j) b)
  in
  let map = N.copy_into ~map_inputs:false b nl map in
  (* match = AND_j (x_j XNOR key_j) over the first k inputs *)
  let inputs = N.inputs nl in
  let eq_bits =
    Array.init k (fun j ->
        N.Builder.add_node b Gate.Xnor [| map.(inputs.(j)); key_ids.(j) |])
  in
  let match_all = N.Builder.add_node b Gate.And eq_bits in
  (* wrong = NOT (AND_j (key_j XNOR correct_j)) — the restore comparator *)
  let right_bits =
    Array.init k (fun j ->
        if correct_key.(j) then key_ids.(j)
        else N.Builder.add_node b Gate.Not [| key_ids.(j) |])
  in
  let wrong = N.Builder.add_node b Gate.Nand right_bits in
  let flip = N.Builder.add_node b Gate.And [| match_all; wrong |] in
  (* flip the first primary output *)
  let outputs = N.outputs nl in
  Array.iteri
    (fun idx o ->
      if idx = 0 then
        N.Builder.mark_output b (N.Builder.add_node b Gate.Xor [| map.(o); flip |])
      else N.Builder.mark_output b map.(o))
    outputs;
  {
    Locked.original = nl;
    netlist = N.Builder.finish b;
    num_regular_inputs = ni;
    correct_key;
    technique = Printf.sprintf "sarlock(k=%d)" k;
  }
