(** What the benchmark measures: its workloads and metrics, with the units
    and bounds that [BENCHMARK.json] states.  [main.exe --manifest] prints
    that file from these tables, so the two cannot disagree. *)

type workload = { name : string; why : string }

let workloads =
  [
    { name = "table1";
      why =
        "Table I grid at scale 32, seed-derived cells, jobs=2: synth refactor \
         is most of the cell time and the b19 cell sets the wall; it never \
         reaches SAT, attacks or ATPG" };
    { name = "table2";
      why =
        "Table II grid at scale 32, jobs=2: PODEM on the faults that survive \
         random patterns is most of the work and synth and SAT do none, so \
         it bypasses their changes" };
    { name = "attack-proof";
      why =
        "SAT, AppSAT and DDIP on the fixed 500-gate, 32-bit weighted \
         fixtures 1-3, functional oracle: 1-3 DIPs each, so the final UNSAT \
         miter proof is nearly the whole run" };
    { name = "dip-loop";
      why =
        "SAT/AppSAT/DDIP on SARLock and Anti-SAT (8-bit) plus hill and sens \
         via the OraP scan oracle: hundreds of short incremental solves, \
         per-DIP encoding and the chip oracle" };
  ]

type metric = {
  name : string;
  unit : string;
  higher_is_better : bool;
  bound : float;  (** allowed relative regression; end-to-end metrics only *)
}

let m ?(bound = 0.0) ?(higher = false) name unit =
  { name; unit; higher_is_better = higher; bound }

(* Measured with tracing off; every workload reports all of them. *)
let end_to_end =
  [
    m "setup_s" "s" ~bound:0.25;
    m "wall_s" "s" ~bound:0.25;
    m "cpu_s" "s" ~bound:0.25;
    m "alloc_mwords" "Mwords" ~bound:0.1;
    m "peak_rss_mb" "MB" ~bound:0.25;
  ]

(* From the traced run; a workload that does not reach a layer reports 0
   for it.  perfbench/README.md maps each to the end-to-end metric it
   should move. *)
let per_layer =
  [
    m "runner.busy_s" "s";
    m "runner.cell_max_s" "s";
    m "runner.parallel_eff" "ratio" ~higher:true;
    m "gc.minor_collections" "count";
    m "gc.major_collections" "count";
    m "benchgen.s" "s";
    m "locking.s" "s";
    m "core.protect_s" "s";
    m "hd.s" "s";
    m "hd.mpatterns_per_s" "Mpatterns/s" ~higher:true;
    m "synth.evaluate_s" "s";
    m "synth.refactor_s" "s";
    m "synth.rewrite_s" "s";
    m "synth.balance_s" "s";
    m "synth.us_per_and" "us";
    m "synth.alloc_words_per_and" "words";
    m "atpg.run_s" "s";
    m "atpg.patterns" "count";
    m "faultsim.random_s" "s";
    m "faultsim.mpatterns_per_s" "Mpatterns/s" ~higher:true;
    m "podem.calls" "count";
    m "podem.ms_per_call" "ms";
    m "podem.aborted_frac" "ratio";
    m "attack.sat_s" "s";
    m "attack.appsat_s" "s";
    m "attack.ddip_s" "s";
    m "attack.hill_s" "s";
    m "attack.sens_s" "s";
    m "attack.iterations" "count";
    m "attack.queries" "count";
    m "attack.encode_s" "s";
    m "solver.solves" "count";
    m "solver.conflicts" "count";
    m "solver.decisions" "count";
    m "solver.propagations" "count";
    m "solver.solve_s" "s";
    m "solver.solve_max_s" "s";
    m "solver.props_per_s" "1/s" ~higher:true;
    m "solver.conflicts_per_s" "1/s" ~higher:true;
    m "miter.vars_initial" "count";
    m "miter.vars_per_dip" "count";
    m "oracle.queries" "count";
    m "oracle.us_per_query" "us";
    m "telemetry.overhead_pct" "%";
    m "trace.unattributed_frac" "ratio";
    m "fail_frac" "ratio";
  ]

(** What one run of a workload reports: tasks (grid cells or attacks)
    checked, those that failed, and metric values by name. *)
type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let run_seconds = 10

let manifest () =
  let q s = "\"" ^ String.escaped s ^ "\"" in
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let list f xs = add (String.concat ",\n" (List.map f xs)) in
  let metric ~bound x =
    Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s%s}"
      (q x.name) (q x.unit)
      (q (if x.higher_is_better then "higher" else "lower"))
      (if bound then Printf.sprintf ", \"bound\": %g" x.bound else "")
  in
  add "{\n  \"command\": [\"bash\", \"perfbench/run.sh\"],\n";
  add "  \"paths\": [\"perfbench\"],\n";
  add (Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds);
  add "  \"workloads\": [\n";
  list
    (fun (w : workload) ->
      Printf.sprintf "    {\"name\": %s, \"why\": %s}" (q w.name) (q w.why))
    workloads;
  add "\n  ],\n  \"end_to_end\": [\n";
  list (metric ~bound:true) end_to_end;
  add "\n  ],\n  \"per_layer\": [\n";
  list (metric ~bound:false) per_layer;
  add "\n  ]\n}\n";
  Buffer.contents b
