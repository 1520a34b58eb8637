(** The [attack-proof] and [dip-loop] workloads: oracle-based attacks run
    serially in one domain.  A pass runs every attack task once; its
    [wall_s] is the sum of the tasks' times to key.

    Each task carries the verdict class it must reach, judged with
    [Evaluate.of_outcome].  Iteration counts are reported, not pinned: a
    different solver may pick different DIPs. *)

module Telemetry = Orap_telemetry.Telemetry
module Metrics = Orap_telemetry.Metrics
module Benchgen = Orap_benchgen.Benchgen
module Weighted = Orap_locking.Weighted
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Chip = Orap_core.Chip
module Oracle = Orap_core.Oracle
module Solver = Orap_sat.Solver
module A = Orap_attacks

type kind = Proof | Dip_loop

type attack = Sat | Appsat | Ddip | Hill | Sens

let slug = function
  | Sat -> "sat" | Appsat -> "appsat" | Ddip -> "ddip" | Hill -> "hill"
  | Sens -> "sens"

(** Verdict classes. *)
type expect =
  | Recovered  (** a proved key that is functionally correct *)
  | Approximate  (** a key returned without a proof *)
  | Recovered_or_approximate
      (** either: AppSAT's probe may stop it before the proof *)
  | Capped  (** stopped by the iteration cap *)
  | Wrong_key  (** a key that is functionally wrong *)

let holds expect locked (outcome : bool array A.Budget.outcome) =
  let v = A.Evaluate.of_outcome locked outcome in
  match (expect, outcome) with
  | Recovered, A.Budget.Exact _ -> v.A.Evaluate.equivalent
  | (Approximate | Recovered_or_approximate), A.Budget.Approximate _ -> true
  | Recovered_or_approximate, A.Budget.Exact _ -> v.A.Evaluate.equivalent
  | Capped, A.Budget.Exhausted (A.Budget.Iterations _) -> true
  | Wrong_key, _ -> v.A.Evaluate.recovered && not v.A.Evaluate.equivalent
  | _ -> false

type task = {
  label : string;
  attack : attack;
  locked : Locked.t;
  oracle : unit -> Oracle.t;
  expect : expect;
}

(* --- set-up --- *)

let span = Telemetry.span

(* the fixture of [Security.make_fixture ~seed ~num_gates ~key_size] *)
let weighted ~seed ~num_inputs ~num_outputs ~num_gates ~key_size =
  let nl =
    span "bench.benchgen" (fun () ->
        Benchgen.generate { Benchgen.seed; num_inputs; num_outputs; num_gates })
  in
  (nl, span "bench.locking" (fun () -> Weighted.lock nl ~key_size ~ctrl_inputs:3))

let functional locked () = Oracle.functional locked

(** The tasks of one workload.  Their circuits and keys are fixed; the run's
    seed goes to the attacks (see [attack_once]). *)
let setup kind =
  match kind with
  | Proof ->
    (* fixed fixtures: the final proof's cost varies ±40% from circuit to
       circuit, so a seed-chosen circuit would swamp any real change *)
    List.concat_map
      (fun fx ->
        let _, locked =
          weighted ~seed:fx ~num_inputs:48 ~num_outputs:36 ~num_gates:500
            ~key_size:32
        in
        List.map
          (fun attack ->
            { label = Printf.sprintf "%s/fixture%d" (slug attack) fx; attack;
              locked; oracle = functional locked; expect = Recovered })
          [ Sat; Appsat; Ddip ])
      [ 1; 2; 3 ]
  | Dip_loop ->
    let nl =
      span "bench.benchgen" (fun () ->
          Benchgen.generate
            { Benchgen.seed = 1; num_inputs = 32; num_outputs = 24;
              num_gates = 300 })
    in
    let t label attack locked oracle expect =
      { label; attack; locked; oracle; expect }
    in
    (* the lockers' default keys: SAT on SARLock takes 255 DIPs for every
       key, but their cost varies by a quarter from key to key *)
    let sarlock =
      span "bench.locking" (fun () -> Orap_locking.Sarlock.lock nl ~key_size:8)
    in
    let antisat =
      span "bench.locking" (fun () -> Orap_locking.Antisat.lock nl ~key_size:8)
    in
    let on name locked attack expect =
      t (slug attack ^ "/" ^ name) attack locked (functional locked) expect
    in
    let _, locked =
      weighted ~seed:1 ~num_inputs:48 ~num_outputs:36 ~num_gates:500
        ~key_size:32
    in
    let design =
      span "bench.protect" (fun () ->
          Orap.protect
            ~config:
              { (Orap.default_config ~kind:Orap.Basic ~num_ffs:18 ()) with
                Orap.seed = 1 }
            locked)
    in
    let chip =
      span "bench.unlock" (fun () ->
          let chip = Chip.create design in
          Chip.unlock chip;
          chip)
    in
    let scan = Oracle.scan_chip chip in
    [
      on "sarlock" sarlock Sat Recovered;
      on "sarlock" sarlock Appsat Approximate;
      on "sarlock" sarlock Ddip Capped;
      on "antisat" antisat Sat Recovered;
      on "antisat" antisat Appsat Recovered_or_approximate;
      on "antisat" antisat Ddip Recovered;
      t "hill/orap" Hill locked (fun () -> scan) Wrong_key;
      t "sens/orap" Sens locked (fun () -> scan) Wrong_key;
    ]

(* --- one pass --- *)

(** Bench-side latency of the oracle's query closure. *)
type oracle_clock = { mutable queries : int; mutable busy_s : float }

let timed (clock : oracle_clock) (o : Oracle.t) =
  {
    o with
    Oracle.query =
      (fun x ->
        let y, dt = Measure.time (fun () -> o.Oracle.query x) in
        clock.queries <- clock.queries + 1;
        clock.busy_s <- clock.busy_s +. dt;
        y);
  }

(* (outcome, iterations, queries).  [seed] drives AppSAT's random probes
   and the random queries that audit SAT's proof. *)
let attack_once ~seed task oracle =
  let locked = task.locked in
  match task.attack with
  | Sat ->
    let r = A.Sat_attack.run ~validate:32 ~validation_seed:seed locked oracle in
    (r.A.Sat_attack.outcome, r.A.Sat_attack.iterations, r.A.Sat_attack.queries)
  | Appsat ->
    let r = A.Appsat.run ~seed locked oracle in
    (r.A.Appsat.outcome, r.A.Appsat.iterations, r.A.Appsat.queries)
  | Ddip ->
    let r = A.Double_dip.run locked oracle in
    (r.A.Double_dip.outcome, r.A.Double_dip.iterations, r.A.Double_dip.queries)
  (* hill climbing's cost doubles or halves with its restart seed, so it
     keeps its default seed; so does key sensitization *)
  | Hill ->
    let r = A.Hill_climb.run locked oracle in
    (r.A.Hill_climb.outcome, r.A.Hill_climb.flips, r.A.Hill_climb.queries)
  | Sens ->
    let r = A.Key_sensitization.run locked oracle in
    ( r.A.Key_sensitization.outcome,
      r.A.Key_sensitization.sensitized_bits,
      r.A.Key_sensitization.queries )

(* the counters [Budget.solve] keeps *)
type solver = { solves : int; conflicts : int; decisions : int; propagations : int }

let read_solver () =
  let v c = Metrics.value (Metrics.counter ("solver." ^ c)) in
  { solves = v "solves"; conflicts = v "conflicts"; decisions = v "decisions";
    propagations = v "propagations" }

(* Miter size of the workload's first circuit: the initial miter, and the
   variables one DIP's IO constraint adds. *)
let miter_vars locked =
  let st = A.Sat_attack.make_state locked in
  let v0 = Solver.num_vars st.A.Sat_attack.solver in
  let dip = Array.make locked.Locked.num_regular_inputs false in
  let y = Locked.eval locked ~key:locked.Locked.correct_key ~inputs:dip in
  A.Sat_attack.add_io_constraint st dip y;
  (v0, Solver.num_vars st.A.Sat_attack.solver - v0)

type pass = {
  wall_s : float;  (** sum of the tasks' times to key *)
  sample : Measure.sample;
  solver : solver;  (** counter deltas over the pass *)
  iterations : int;
  queries : int;
  clock : oracle_clock;
  failed : int;
  miter : int * int;
}

let pass ~seed tasks =
  let clock = { queries = 0; busy_s = 0.0 } in
  let solver0 = read_solver () in
  let results, sample =
    Measure.run (fun () ->
        List.map
          (fun task ->
            (* each attack starts from a compacted heap, as in a fresh
               process, so the peak does not depend on its predecessors'
               garbage *)
            Gc.compact ();
            let oracle = timed clock (task.oracle ()) in
            let r, dt =
              Measure.time (fun () ->
                  span ("bench.attack." ^ slug task.attack) (fun () ->
                      try Ok (attack_once ~seed task oracle) with e -> Error e))
            in
            (task, r, dt))
          tasks)
  in
  let solver1 = read_solver () in
  let solver =
    { solves = solver1.solves - solver0.solves;
      conflicts = solver1.conflicts - solver0.conflicts;
      decisions = solver1.decisions - solver0.decisions;
      propagations = solver1.propagations - solver0.propagations }
  in
  let failed, iterations, queries =
    List.fold_left
      (fun (f, it, q) (task, r, _) ->
        match r with
        | Ok (outcome, i, n) ->
          if holds task.expect task.locked outcome then (f, it + i, q + n)
          else begin
            Printf.eprintf "%s: unexpected verdict %s (%s)\n%!" task.label
              (A.Budget.outcome_to_string outcome)
              (A.Evaluate.to_string (A.Evaluate.of_outcome task.locked outcome));
            (f + 1, it + i, q + n)
          end
        | Error e ->
          Printf.eprintf "%s: raised %s\n%!" task.label (Printexc.to_string e);
          (f + 1, it, q))
      (0, 0, 0) results
  in
  {
    wall_s = List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0.0 results;
    sample;
    solver;
    iterations;
    queries;
    clock;
    failed;
    miter = miter_vars (List.hd tasks).locked;
  }

(* Counts that must repeat from pass to pass of one run, each with the
   relative difference it may show.  Allocation is not exact: the latency
   histogram behind [Oracle.query] boxes a float whenever a query is the
   slowest so far, and the first pass also pays one-time costs. *)
let fingerprint ~alloc p =
  [
    ("solver.conflicts", float_of_int p.solver.conflicts, 0.0);
    ("solver.propagations", float_of_int p.solver.propagations, 0.0);
    ("attack.iterations", float_of_int p.iterations, 0.0);
    ("miter.vars_per_dip", float_of_int (snd p.miter), 0.0);
  ]
  @ if alloc then [ ("alloc_mwords", p.sample.Measure.minor_words /. 1e6, 1e-3) ]
    else []

(** Differences from the first pass; [alloc] is false when tracing, which
    allocates, was on in some of the passes. *)
let nondeterministic ~alloc passes =
  match passes with
  | [] -> 0
  | p0 :: rest ->
    List.fold_left
      (fun acc p ->
        List.fold_left2
          (fun acc (n, a, tol) (_, b, _) ->
            if Float.abs (a -. b) <= tol *. Float.abs a then acc
            else begin
              Printf.eprintf "nondeterminism: %s was %.17g, then %.17g\n%!" n a b;
              acc + 1
            end)
          acc (fingerprint ~alloc p0) (fingerprint ~alloc p))
      0 rest

(* --- runs --- *)

let run kind ~seed ~seconds ~trace : Catalogue.result =
  let tasks, setup_s = Measure.repeat_median (fun () -> setup kind) in
  (* passes start from the same heap, whatever set-up left behind *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let first = pass ~seed tasks in
  let ntasks = List.length tasks in
  if not trace then begin
    let rec more acc =
      if Unix.gettimeofday () -. t0 >= seconds then
        List.rev acc
      else more (pass ~seed tasks :: acc)
    in
    let passes = more [ first ] in
    let peak_rss_mb = Measure.peak_rss_mb () in
    let med f = Measure.median (List.map f passes) in
    {
      Catalogue.attempted = ntasks * List.length passes;
      failed =
        List.fold_left (fun acc p -> acc + p.failed) 0 passes
        + nondeterministic ~alloc:true passes;
      metrics =
        [
          ("setup_s", setup_s);
          ("wall_s", med (fun p -> p.wall_s));
          ("cpu_s", med (fun p -> p.sample.Measure.cpu_s));
          ("alloc_mwords", med (fun p -> p.sample.Measure.minor_words /. 1e6));
          ("peak_rss_mb", peak_rss_mb);
        ];
    }
  end
  else begin
    let sink, events = Telemetry.memory () in
    Telemetry.install sink;
    let traced_tasks = setup kind in
    let traced = pass ~seed traced_tasks in
    let spans = Spans.of_events (events ()) in
    Telemetry.shutdown ();
    let s name = Spans.sum_s (Spans.named name) spans in
    let solve_s = s "solver.solve" in
    let sv = traced.solver in
    let program_attack_span sp =
      let n = sp.Spans.name in
      (not (String.starts_with ~prefix:"bench." n))
      && (String.ends_with ~suffix:".iteration" n
         || String.ends_with ~suffix:".run" n)
    in
    let failed =
      first.failed + traced.failed
      + nondeterministic ~alloc:false [ first; traced ]
    in
    let attempted = 2 * ntasks in
    {
      Catalogue.attempted;
      failed;
      metrics =
        List.map
          (fun a -> ("attack." ^ slug a ^ "_s", s ("bench.attack." ^ slug a)))
          [ Sat; Appsat; Ddip; Hill; Sens ]
        @ [
            ("gc.minor_collections", float_of_int first.sample.Measure.minor_gcs);
            ("gc.major_collections", float_of_int first.sample.Measure.major_gcs);
            ("benchgen.s", s "bench.benchgen");
            ("locking.s", s "bench.locking");
            ("core.protect_s", s "bench.protect");
            ("attack.iterations", float_of_int traced.iterations);
            ("attack.queries", float_of_int traced.queries);
            ("attack.encode_s", Spans.self_s program_attack_span spans);
            ("solver.solves", float_of_int sv.solves);
            ("solver.conflicts", float_of_int sv.conflicts);
            ("solver.decisions", float_of_int sv.decisions);
            ("solver.propagations", float_of_int sv.propagations);
            ("solver.solve_s", solve_s);
            ("solver.solve_max_s", Spans.max_s (Spans.named "solver.solve") spans);
            ( "solver.props_per_s",
              Measure.ratio (float_of_int sv.propagations) solve_s );
            ( "solver.conflicts_per_s",
              Measure.ratio (float_of_int sv.conflicts) solve_s );
            ("miter.vars_initial", float_of_int (fst traced.miter));
            ("miter.vars_per_dip", float_of_int (snd traced.miter));
            ("oracle.queries", float_of_int traced.clock.queries);
            ( "oracle.us_per_query",
              Measure.ratio (traced.clock.busy_s *. 1e6)
                (float_of_int traced.clock.queries) );
            ( "telemetry.overhead_pct",
              100.0 *. Measure.ratio (traced.wall_s -. first.wall_s) first.wall_s );
            ( "trace.unattributed_frac",
              Spans.unattributed_frac
                (fun sp -> String.starts_with ~prefix:"bench.attack." sp.Spans.name)
                spans );
            ( "fail_frac",
              Measure.ratio (float_of_int failed) (float_of_int attempted) );
          ];
    }
  end
