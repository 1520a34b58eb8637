(** The SAT attack of Subramanyan et al. [6].

    The classic loop: build a miter of two locked-circuit copies sharing the
    primary inputs but carrying independent keys; while the miter is
    satisfiable, the model's input vector is a distinguishing input pattern
    (DIP); the oracle's response on the DIP is added as an input/output
    constraint on both key copies.  When the miter goes unsatisfiable, any
    key consistent with the accumulated constraints is functionally
    equivalent to the correct key *provided the oracle answered correctly* —
    which is exactly the property OraP removes. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit

type result = Dip_loop.result = {
  outcome : bool array Budget.outcome;
  iterations : int;
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;  (** solver conflicts spent by this run *)
  elapsed_s : float;
}

type state = Dip_loop.miter = {
  solver : Solver.t;
  x_vars : int array;
  key_vars : int array;
  activate : Lit.t;
  constrain : bool array -> bool array -> unit;
}

(* two copies that disagree on some output *)
let make_state (locked : Locked.t) : state =
  Dip_loop.miter locked ~copies:2 ~differ:(fun some_diff ~outs ~keys:_ ->
      some_diff outs.(0) outs.(1))

let add_io_constraint (st : state) dip y = st.constrain dip y

(* audit an [Exact] proof with [validate] fresh random oracle queries *)
let audit ~validate ~validation_seed locked oracle (r : Dip_loop.run) key iters
    =
  let rng = Orap_sim.Prng.create validation_seed in
  match Dip_loop.sample locked oracle rng validate key with
  | Error reason -> Budget.Oracle_refused reason
  | Ok samples ->
    let count f = List.fold_left (fun acc s -> acc + f s) 0 samples in
    let mismatching =
      count (fun (_, y, y') ->
          let m = ref 0 in
          Array.iteri (fun j b -> if b <> y'.(j) then incr m) y;
          !m)
    in
    if mismatching = 0 then Budget.Exact key
    else
      let total_bits = count (fun (_, y, _) -> Array.length y) in
      let err = float_of_int mismatching /. float_of_int total_bits in
      Budget.Approximate
        ( key,
          Budget.stats_of r.Dip_loop.clock ~iterations:iters
            ~queries:(r.Dip_loop.queries ()) ~estimated_error:err () )

(** Run the attack against [oracle] under [budget].  [max_iterations]
    overrides the budget's DIP-loop cap.

    [validate] > 0 audits an [Exact] proof with that many fresh random
    oracle queries before claiming it: the miter proof is only sound
    relative to the oracle's answers, so against a noisy or otherwise
    faulty oracle the "proof" can be hollow.  A probe mismatch downgrades
    the claim to [Approximate] carrying the measured error; a refusal
    mid-probe surfaces as [Oracle_refused].  Validation queries are real
    oracle queries and burn query budget. *)
let run ?budget ?max_iterations ?(validate = 0) ?(validation_seed = 11213)
    (locked : Locked.t) (oracle : Oracle.t) : result =
  Dip_loop.run ~name:"sat_attack" ?budget ?max_iterations
    ~on_exact:(audit ~validate ~validation_seed locked oracle)
    (fun () -> make_state locked)
    oracle
