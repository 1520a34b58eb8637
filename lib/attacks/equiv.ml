(** See equiv.mli. *)

module N = Orap_netlist.Netlist
module Gate = Orap_netlist.Gate
module Sim = Orap_sim.Sim
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Tseitin = Orap_sat.Tseitin

type verdict = Equivalent | Inequivalent of bool array

exception Incomparable of string

let incomparablef fmt =
  Printf.ksprintf (fun s -> raise (Incomparable s)) fmt

let require_same_interface a b =
  if N.num_inputs a <> N.num_inputs b then
    incomparablef "input counts differ: %d vs %d" (N.num_inputs a)
      (N.num_inputs b);
  if N.num_outputs a <> N.num_outputs b then
    incomparablef "output counts differ: %d vs %d" (N.num_outputs a)
      (N.num_outputs b)

let sat_equiv a b =
  require_same_interface a b;
  let solver = Solver.create () in
  let ni = N.num_inputs a in
  let x_vars = Solver.new_vars solver ni in
  let va = Tseitin.encode solver a ~input_var:(fun i -> x_vars.(i)) in
  let vb = Tseitin.encode solver b ~input_var:(fun i -> x_vars.(i)) in
  let oa = Tseitin.output_vars a va and ob = Tseitin.output_vars b vb in
  let add c = ignore (Solver.add_clause solver c) in
  let diffs = Tseitin.diff_vars solver oa ob in
  add (Array.to_list (Array.map Lit.pos diffs));
  match Solver.solve solver with
  | Solver.Unknown -> assert false (* no conflict_limit: cannot happen *)
  | Solver.Unsat -> Equivalent
  | Solver.Sat ->
    Inequivalent (Array.map (fun v -> Solver.model_value solver v) x_vars)

let max_exhaustive_inputs = 12

(* the word of input [i] when simulating patterns [w*64 .. w*64+63]:
   pattern p assigns bit i of p to input i *)
let input_word_for ~word_index i =
  if i < 6 then
    [|
      0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
      0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L;
    |].(i)
  else if (word_index lsr (i - 6)) land 1 = 1 then Int64.minus_one
  else 0L

let exhaustive_equiv a b =
  require_same_interface a b;
  let ni = N.num_inputs a in
  if ni > max_exhaustive_inputs then
    incomparablef "%d inputs exceed the exhaustive cap of %d" ni
      max_exhaustive_inputs;
  let patterns = 1 lsl ni in
  let words = max 1 (patterns / 64) in
  let live_bits = min patterns 64 in
  let result = ref Equivalent in
  (try
     for w = 0 to words - 1 do
       let input_word i = input_word_for ~word_index:w i in
       let va = Sim.eval_word a ~input_word in
       let vb = Sim.eval_word b ~input_word in
       let oa = Sim.output_words a va and ob = Sim.output_words b vb in
       let diff = ref 0L in
       Array.iteri
         (fun j wa -> diff := Int64.logor !diff (Int64.logxor wa ob.(j)))
         oa;
       if live_bits < 64 then
         diff :=
           Int64.logand !diff
             (Int64.sub (Int64.shift_left 1L live_bits) 1L);
       if !diff <> 0L then begin
         (* lowest differing pattern in this word *)
         let bit = ref 0 in
         while Int64.logand (Int64.shift_right_logical !diff !bit) 1L = 0L do
           incr bit
         done;
         let p = (w * 64) + !bit in
         result :=
           Inequivalent (Array.init ni (fun i -> (p lsr i) land 1 = 1));
         raise Exit
       end
     done
   with Exit -> ());
  !result

let check ?(method_ = `Auto) a b =
  match method_ with
  | `Sat -> sat_equiv a b
  | `Exhaustive -> exhaustive_equiv a b
  | `Auto ->
    if N.num_inputs a <= max_exhaustive_inputs && N.num_inputs a = N.num_inputs b
    then exhaustive_equiv a b
    else sat_equiv a b

let equivalent a b = check a b = Equivalent

let counterexample_valid a b cex =
  Array.length cex = N.num_inputs a
  && Array.length cex = N.num_inputs b
  && Sim.eval_bools a cex <> Sim.eval_bools b cex

let with_fixed_inputs nl assignments =
  let inputs = N.inputs nl in
  List.iter
    (fun (pos, _) ->
      if pos < 0 || pos >= Array.length inputs then
        invalid_arg "Equiv.with_fixed_inputs: position out of range")
    assignments;
  let b = N.Builder.create ~size_hint:(N.num_nodes nl + 2) () in
  let map = Array.make (N.num_nodes nl) (-1) in
  let const0 = ref (-1) and const1 = ref (-1) in
  let const v =
    let cell = if v then const1 else const0 in
    if !cell < 0 then
      cell := N.Builder.add_node b (if v then Gate.Const1 else Gate.Const0) [||];
    !cell
  in
  Array.iteri
    (fun pos id ->
      match List.assoc_opt pos assignments with
      | Some v -> map.(id) <- const v
      | None -> map.(id) <- N.Builder.add_input b)
    inputs;
  let map = N.copy_into ~map_inputs:false b nl map in
  Array.iter (fun o -> N.Builder.mark_output b map.(o)) (N.outputs nl);
  N.Builder.finish b

let widen original nl =
  let extra = N.num_inputs nl - N.num_inputs original in
  if extra < 0 then
    incomparablef "widen: %d inputs, fewer than the original's %d"
      (N.num_inputs nl) (N.num_inputs original);
  let b = N.Builder.create () in
  let map = N.copy_into b original (Array.make (N.num_nodes original) (-1)) in
  for _ = 1 to extra do
    ignore (N.Builder.add_input b)
  done;
  Array.iter (fun o -> N.Builder.mark_output b map.(o)) (N.outputs original);
  N.Builder.finish b

let agrees_on_random original nl =
  let original = widen original nl in
  let rng = Orap_sim.Prng.create 77 in
  let ok = ref true in
  for _ = 1 to 128 do
    let inp = Orap_sim.Prng.bool_array rng (N.num_inputs nl) in
    if Sim.eval_bools nl inp <> Sim.eval_bools original inp then ok := false
  done;
  !ok
