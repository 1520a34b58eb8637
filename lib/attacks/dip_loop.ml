(** The distinguishing-input (DIP) loop shared by the SAT-family attacks.

    Every variant of the SAT attack runs the same loop and differs only in
    the miter it feeds it (DynUnlock's observation): while the miter is
    satisfiable under its [activate] assumption, the model's inputs are a
    DIP; the oracle's answer on it becomes an IO constraint.  Once the
    miter is exhausted, any key consistent with the constraints is the
    answer — or, if none is, the oracle contradicted itself.  SAT, AppSAT
    and Double DIP are miter builders plus, for SAT and AppSAT, a hook. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Prng = Orap_sim.Prng
module Solver = Orap_sat.Solver
module Lit = Orap_sat.Lit
module Tseitin = Orap_sat.Tseitin
module Telemetry = Orap_telemetry.Telemetry

(** The report of a SAT-family attack. *)
type result = {
  outcome : bool array Budget.outcome;
  iterations : int;
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;  (** solver conflicts spent by this run *)
  elapsed_s : float;
}

(** What an attack feeds the loop. *)
type miter = {
  solver : Solver.t;
  x_vars : int array;  (** the shared primary inputs: a model here is a DIP *)
  key_vars : int array;  (** the key copy reported once the miter is exhausted *)
  activate : Lit.t;  (** assumption literal guarding the miter difference *)
  constrain : bool array -> bool array -> unit;
      (** [constrain dip y] adds the IO constraint C(dip, K) = y on every
          key copy *)
}

(** [miter locked ~copies ~differ]: [copies] copies of the locked circuit
    sharing the primary inputs but each with its own key.  [differ]
    states, through [some_diff a b] ("the variables [a] and [b] differ
    somewhere" while [activate] holds), what makes an input distinguishing,
    given each copy's outputs and key variables.  Key copy 0 is the one
    reported; IO constraints bind every copy. *)
let miter (locked : Locked.t) ~copies ~differ : miter =
  let solver = Solver.create () in
  let nl = locked.Locked.netlist in
  let nri = locked.Locked.num_regular_inputs in
  let ksz = Locked.key_size locked in
  let x_vars = Solver.new_vars solver nri in
  let keys = Array.init copies (fun _ -> Solver.new_vars solver ksz) in
  let input_var kv i = if i < nri then x_vars.(i) else kv.(i - nri) in
  let outs =
    Array.map
      (fun kv ->
        Tseitin.output_vars nl (Tseitin.encode solver nl ~input_var:(input_var kv)))
      keys
  in
  (* the assumption literal guarding the difference clauses lets the same
     solver later produce a constraint-consistent key *)
  let a_var = Solver.new_var solver in
  let add c = ignore (Solver.add_clause solver c) in
  let some_diff a b =
    let diffs = Tseitin.diff_vars solver a b in
    add (Lit.neg a_var :: Array.to_list (Array.map Lit.pos diffs))
  in
  differ some_diff ~outs ~keys;
  let const_true = Solver.new_var solver in
  let const_false = Solver.new_var solver in
  add [ Lit.pos const_true ];
  add [ Lit.neg const_false ];
  (* C(dip, K) = y for every key copy K *)
  let constrain dip y =
    Array.iter
      (fun kv ->
        let fixed i =
          if i < nri then if dip.(i) then const_true else const_false
          else kv.(i - nri)
        in
        let nodes = Tseitin.encode solver nl ~input_var:fixed in
        Array.iteri
          (fun j ov -> add [ (if y.(j) then Lit.pos ov else Lit.neg ov) ])
          (Tseitin.output_vars nl nodes))
      keys
  in
  { solver; x_vars; key_vars = keys.(0); activate = Lit.pos a_var; constrain }

(** A running loop, as the hooks see it. *)
type run = {
  miter : miter;
  clock : Budget.clock;
  queries : unit -> int;  (** oracle queries made so far by this run *)
}

let model (m : miter) vars = Array.map (fun v -> Solver.model_value m.solver v) vars

(** A key consistent with every IO constraint so far: the miter solved
    with its difference switched off.  [Error] carries the stopping
    outcome — a tripped budget, or [Inconsistent] when the oracle's answers
    fit no key at all (the signature of a locked, OraP-protected oracle). *)
let consistent_key (r : run) :
    (bool array, bool array Budget.outcome) Stdlib.result =
  let m = r.miter in
  match Budget.solve r.clock ~assumptions:[| Lit.negate m.activate |] m.solver with
  | Error reason -> Error (Budget.Exhausted reason)
  | Ok Solver.Unknown -> assert false (* Budget.solve never returns it *)
  | Ok Solver.Unsat -> Error (Budget.Exhausted Budget.Inconsistent)
  | Ok Solver.Sat ->
    let key = model m m.key_vars in
    Solver.backtrack_to_root m.solver;
    Ok key

(** [sample locked oracle rng n key]: [n] random oracle queries, each as
    (input, oracle answer, [key]'s answer), in query order; [Error] on a
    refusal.  The hooks judge a candidate key with it. *)
let sample (locked : Locked.t) oracle rng n key =
  let nri = locked.Locked.num_regular_inputs in
  let rec go i acc =
    if i = n then Ok (List.rev acc)
    else
      let x = Prng.bool_array rng nri in
      match Budget.query oracle x with
      | Error reason -> Error reason
      | Ok y -> go (i + 1) ((x, y, Locked.eval locked ~key ~inputs:x) :: acc)
  in
  go 0 []

(** Run the loop on the miter [build ()] against [oracle] under [budget];
    [max_iterations] overrides the budget's cap.  [name] prefixes the
    [<name>.run] and per-DIP [<name>.iteration] spans.

    - [probe r i] runs before DIP iteration [i]; [Some outcome] stops the
      attack with it (AppSAT's random-query probe).
    - [on_exact r key i] judges the key found when the miter is exhausted
      after [i] DIPs (SAT's proof audit); by default it is [Exact key]. *)
let run ~name ?(budget = Budget.default) ?max_iterations
    ?(probe = fun _ _ -> None) ?(on_exact = fun _ key _ -> Budget.Exact key)
    (build : unit -> miter) (oracle : Oracle.t) : result =
  let budget =
    match max_iterations with
    | Some n -> { budget with Budget.max_iterations = n }
    | None -> budget
  in
  let clock = Budget.start budget in
  let m = build () in
  (* snapshot the oracle's lifetime counter so shared oracles report this
     run's queries, not every run's *)
  let queries0 = Oracle.num_queries oracle in
  let r =
    { miter = m; clock; queries = (fun () -> Oracle.num_queries oracle - queries0) }
  in
  let finish outcome iters =
    { outcome; iterations = iters; queries = r.queries ();
      conflicts = Solver.num_conflicts m.solver;
      elapsed_s = Budget.elapsed_s clock }
  in
  (* one DIP iteration: miter solve, oracle query, IO constraint *)
  let step iters =
    match Budget.solve clock ~assumptions:[| m.activate |] m.solver with
    | Error reason -> Some (Budget.Exhausted reason)
    | Ok Solver.Unknown -> assert false
    | Ok Solver.Sat -> (
      let dip = model m m.x_vars in
      Solver.backtrack_to_root m.solver;
      match Budget.query oracle dip with
      | Error reason -> Some (Budget.Oracle_refused reason)
      | Ok y ->
        m.constrain dip y;
        None)
    | Ok Solver.Unsat -> (
      match consistent_key r with
      | Ok key -> Some (on_exact r key iters)
      | Error outcome -> Some outcome)
  in
  let iteration = name ^ ".iteration" in
  let rec loop iters =
    match Budget.check_iteration clock iters with
    | Some reason -> finish (Budget.Exhausted reason) iters
    | None -> (
      match probe r iters with
      | Some outcome -> finish outcome iters
      | None -> (
        match
          Telemetry.span iteration
            ~args:[ ("iter", Telemetry.Int iters) ]
            (fun () -> step iters)
        with
        | Some outcome -> finish outcome iters
        | None -> loop (iters + 1)))
  in
  Telemetry.span (name ^ ".run")
    ~exit_args:(fun res ->
      [
        ("iterations", Telemetry.Int res.iterations);
        ("queries", Telemetry.Int res.queries);
        ("conflicts", Telemetry.Int res.conflicts);
        ("outcome", Telemetry.String (Budget.outcome_to_string res.outcome));
      ])
    (fun () -> loop 0)
