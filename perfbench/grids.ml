(** The [table1] and [table2] workloads: one pass is one [Table1.run] or
    [Table2.run] grid at scale 32 on two domains, exactly as
    [orap table1 --scale 32 -j 2] computes it.

    Rows are checked against [perfbench/expected/<grid>.tsv], recorded at
    this commit for a set of root seeds; for any other seed the reference is
    a one-domain run of the same grid.  The traced run replays every cell
    from the layer entry points that [run_profile] calls, with a span around
    each, and checks that the replayed row equals the untraced one. *)

module E = Orap_experiments
module Runner = Orap_runner.Runner
module Task = Orap_runner.Task
module Telemetry = Orap_telemetry.Telemetry
module N = Orap_netlist.Netlist
module Benchgen = Orap_benchgen.Benchgen
module Weighted = Orap_locking.Weighted
module Locked = Orap_locking.Locked
module Orap = Orap_core.Orap
module Abc = Orap_synth.Abc_script
module Aig = Orap_synth.Aig
module Prng = Orap_sim.Prng
module Atpg = Orap_atpg.Atpg
module Fault = Orap_faultsim.Fault
module Fsim = Orap_faultsim.Fsim

type kind = Table1 | Table2

let name = function Table1 -> "table1" | Table2 -> "table2"
let scale = 32
let jobs = 2
let table1_params seed = { E.Table1.default_params with E.Table1.scale; seed }
let table2_params seed = { E.Table2.default_params with E.Table2.scale; seed }

(** One grid pass; rows in the program's own journal encoding. *)
let rows kind ~seed ~jobs =
  let options = { Runner.default_options with Runner.jobs } in
  match kind with
  | Table1 ->
    List.map E.Table1.row_codec.Runner.encode
      (E.Table1.run ~params:(table1_params seed) ~options ())
  | Table2 ->
    List.map E.Table2.row_codec.Runner.encode
      (E.Table2.run ~params:(table2_params seed) ~options ())

(* --- expected rows: one "<root seed>\t<encoded row>" line per cell --- *)

let expected_path kind = Filename.concat "perfbench/expected" (name kind ^ ".tsv")

let load_expected kind ~seed =
  let path = expected_path kind in
  if not (Sys.file_exists path) then None
  else
    let prefix = string_of_int seed ^ "\t" in
    let n = String.length prefix in
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           if String.length line > n && String.sub line 0 n = prefix then
             Some (String.sub line n (String.length line - n))
           else None)
    |> function [] -> None | rows -> Some rows

(** The rows a correct program gives for [seed]. *)
let reference kind ~seed =
  match load_expected kind ~seed with
  | Some rows -> rows
  | None ->
    Printf.eprintf "%s: no recorded rows for seed %d; checking against a 1-domain run\n%!"
      (name kind) seed;
    rows kind ~seed ~jobs:1

(** Record [seed]'s rows from a one-domain run; every benchmark run then
    checks its two-domain rows against them. *)
let record kind ~seed =
  if load_expected kind ~seed <> None then
    Printf.eprintf "%s: seed %d already recorded\n%!" (name kind) seed
  else
    let one = rows kind ~seed ~jobs:1 in
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
      (expected_path kind) (fun oc ->
        List.iter (fun r -> Printf.fprintf oc "%d\t%s\n" seed r) one)

let mismatches ~what expected got =
  let rec go i acc = function
    | e :: es, g :: gs ->
      if e <> g then
        Printf.eprintf "%s: cell %d\n  expected %s\n  got      %s\n%!" what i e g;
      go (i + 1) (if e = g then acc else acc + 1) (es, gs)
    | es, gs -> acc + List.length es + List.length gs
  in
  go 0 0 (expected, got)

(* --- set-up: the grid's netlists, which the traced replay reuses --- *)

type cell = {
  profile : Benchgen.profile;  (** unscaled: the cell id hashes this one *)
  nl : N.t;
  locked : Locked.t;
}

let setup () =
  List.map
    (fun profile ->
      let scaled = Benchgen.scale ~factor:scale profile in
      let nl =
        Telemetry.span "bench.benchgen" (fun () -> Benchgen.of_profile scaled)
      in
      let locked =
        Telemetry.span "bench.locking" (fun () ->
            Weighted.lock nl ~key_size:scaled.Benchgen.lfsr_size
              ~ctrl_inputs:scaled.Benchgen.ctrl_inputs)
      in
      { profile; nl; locked })
    Benchgen.table1_profiles

(* --- traced replay of single cells --- *)

type counts = {
  mutable hd_patterns : float;
  mutable synth_words : float;
  mutable random_patterns : float;
  mutable podem_calls : int;
  mutable aborted : int;
  mutable patterns : int;
}

let span = Telemetry.span

let replay_table1 ~root_seed counts c =
  let p = table1_params root_seed in
  let seed = Task.derive_seed ~root_seed ~id:(E.Table1.cell_id p c.profile) in
  let nl = c.nl and locked = c.locked in
  let evaluate nl =
    let w0 = Gc.minor_words () in
    let m =
      span "bench.synth.evaluate" (fun () ->
          Abc.evaluate ~effort:p.E.Table1.synth_effort nl)
    in
    counts.synth_words <- counts.synth_words +. (Gc.minor_words () -. w0);
    m
  in
  span "bench.cell" @@ fun () ->
  let design =
    span "bench.protect" (fun () ->
        Orap.protect
          ~config:
            {
              (Orap.default_config ~kind:Orap.Basic
                 ~num_ffs:(min 32 (N.num_outputs nl / 2)) ())
              with
              Orap.seed = seed;
            }
          locked)
  in
  let hd =
    span "bench.hd" (fun () ->
        let rng = Prng.create (seed + 3) in
        let sum = ref 0.0 in
        for k = 1 to p.E.Table1.hd_keys do
          let key = Prng.bool_array rng (Locked.key_size locked) in
          sum :=
            !sum
            +. Locked.hamming_vs_original ~seed:(seed + k)
                 ~words:p.E.Table1.hd_words locked key
        done;
        !sum /. float_of_int p.E.Table1.hd_keys)
  in
  counts.hd_patterns <-
    counts.hd_patterns
    +. float_of_int (p.E.Table1.hd_keys * p.E.Table1.hd_words * 64);
  let mo = evaluate nl in
  let mp = evaluate locked.Locked.netlist in
  let orap_ands = Orap.hardware_and_nodes (Orap.hardware design) in
  let pct num den = 100.0 *. float_of_int num /. float_of_int den in
  let scaled = Benchgen.scale ~factor:scale c.profile in
  E.Table1.row_codec.Runner.encode
    {
      E.Table1.name = scaled.Benchgen.name;
      gates = N.gate_count nl;
      outputs = N.num_outputs nl;
      lfsr_size = scaled.Benchgen.lfsr_size;
      ctrl_inputs = scaled.Benchgen.ctrl_inputs;
      hd_pct = hd;
      area_pct = pct (mp.Abc.ands + orap_ands - mo.Abc.ands) mo.Abc.ands;
      delay_pct =
        (if mo.Abc.levels = 0 then 0.0
         else pct (max 0 (mp.Abc.levels - mo.Abc.levels)) mo.Abc.levels);
    }

let replay_table2 ~root_seed counts c =
  let p = table2_params root_seed in
  let seed = Task.derive_seed ~root_seed ~id:(E.Table2.cell_id p c.profile) in
  let words = p.E.Table2.random_words in
  let side nl =
    (* the random-pattern phase on its own, as Atpg.run starts *)
    span "bench.faultsim" (fun () ->
        let faults = Fault.collapsed_list nl in
        let remaining = Array.make (Array.length faults) true in
        ignore (Fsim.random_simulate ~seed ~words nl faults remaining));
    counts.random_patterns <- counts.random_patterns +. float_of_int (words * 64);
    let r =
      span "bench.atpg" (fun () ->
          Atpg.run ~seed ~random_words:words
            ~backtrack_limit:p.E.Table2.backtrack_limit nl)
    in
    let patterns = List.length r.Atpg.patterns in
    counts.patterns <- counts.patterns + patterns;
    counts.podem_calls <-
      counts.podem_calls + patterns + r.Atpg.redundant + r.Atpg.aborted;
    counts.aborted <- counts.aborted + r.Atpg.aborted;
    {
      E.Table2.fc_pct = Atpg.coverage r;
      redundant_aborted = Atpg.redundant_plus_aborted r;
      total_faults = r.Atpg.total_faults;
    }
  in
  span "bench.cell" @@ fun () ->
  let original = side c.nl in
  let protected_ = side c.locked.Locked.netlist in
  E.Table2.row_codec.Runner.encode
    {
      E.Table2.name = (Benchgen.scale ~factor:scale c.profile).Benchgen.name;
      original;
      protected_;
    }

(* --- runs --- *)

(** One grid pass, measured; a pass that raises yields no rows. *)
let pass kind ~seed =
  Measure.run (fun () ->
      try rows kind ~seed ~jobs
      with e ->
        Printf.eprintf "%s: pass raised %s\n%!" (name kind) (Printexc.to_string e);
        [])

let cells = List.length Benchgen.table1_profiles

let run kind ~seed ~seconds ~trace : Catalogue.result =
  let fixture, setup_s = Measure.repeat_median setup in
  (* passes start from the same heap, whatever set-up left behind *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let first = pass kind ~seed in
  if not trace then begin
    let rec more acc =
      if Unix.gettimeofday () -. t0 >= seconds then
        List.rev acc
      else more (pass kind ~seed :: acc)
    in
    let passes = more [ first ] in
    let peak_rss_mb = Measure.peak_rss_mb () in
    let expected = reference kind ~seed in
    let failed =
      List.fold_left
        (fun acc (rows, _) -> acc + mismatches ~what:(name kind) expected rows)
        0 passes
    in
    let med f = Measure.median (List.map (fun (_, s) -> f s) passes) in
    {
      Catalogue.attempted = cells * List.length passes;
      failed;
      metrics =
        [
          ("setup_s", setup_s);
          ("wall_s", med (fun s -> s.Measure.wall_s));
          ("cpu_s", med (fun s -> s.Measure.cpu_s));
          ("alloc_mwords", med (fun s -> s.Measure.minor_words /. 1e6));
          ("peak_rss_mb", peak_rss_mb);
        ];
    }
  end
  else begin
    let untraced_rows, untraced = first in
    (* the program's spans of a grid pass, then the replay's on their own *)
    let sink, events = Telemetry.memory () in
    Telemetry.install sink;
    let traced_rows, traced = pass kind ~seed in
    let grid_spans = Spans.of_events (events ()) in
    let sink, events = Telemetry.memory () in
    Telemetry.install sink;
    let counts =
      { hd_patterns = 0.0; synth_words = 0.0;
        random_patterns = 0.0; podem_calls = 0; aborted = 0; patterns = 0 }
    in
    let replayed =
      List.map
        (fun c ->
          match kind with
          | Table1 -> replay_table1 ~root_seed:seed counts c
          | Table2 -> replay_table2 ~root_seed:seed counts c)
        fixture
    in
    (* the set-up once more, traced, for the benchgen and locking spans *)
    ignore (setup ());
    let spans = Spans.of_events (events ()) in
    Telemetry.shutdown ();
    let expected = reference kind ~seed in
    let failed =
      mismatches ~what:(name kind ^ " untraced") expected untraced_rows
      + mismatches ~what:(name kind ^ " traced") expected traced_rows
      + mismatches ~what:(name kind ^ " replay") untraced_rows replayed
    in
    let s name = Spans.sum_s (Spans.named name) spans in
    let busy = Spans.sum_s (Spans.named "runner.cell") grid_spans in
    let synth = s "bench.synth.evaluate" in
    let atpg = s "bench.atpg" and random = s "bench.faultsim" in
    let podem = float_of_int counts.podem_calls in
    (* AND nodes the replay's synth calls start from *)
    let synth_ands =
      match kind with
      | Table2 -> 0.0
      | Table1 ->
        let ands nl = float_of_int (Aig.num_live_ands (Aig.of_netlist nl)) in
        List.fold_left
          (fun acc c -> acc +. ands c.nl +. ands c.locked.Locked.netlist)
          0.0 fixture
    in
    let attempted = 3 * cells in
    {
      Catalogue.attempted;
      failed;
      metrics =
        [
          ("runner.busy_s", busy);
          ( "runner.cell_max_s",
            Spans.max_s (Spans.named "runner.cell") grid_spans );
          ( "runner.parallel_eff",
            Measure.ratio busy (float_of_int jobs *. traced.Measure.wall_s) );
          ("gc.minor_collections", float_of_int untraced.Measure.minor_gcs);
          ("gc.major_collections", float_of_int untraced.Measure.major_gcs);
          ("benchgen.s", s "bench.benchgen");
          ("locking.s", s "bench.locking");
          ("core.protect_s", s "bench.protect");
          ("hd.s", s "bench.hd");
          ( "hd.mpatterns_per_s",
            Measure.ratio (counts.hd_patterns /. 1e6) (s "bench.hd") );
          ("synth.evaluate_s", synth);
          ("synth.refactor_s", s "synth.refactor");
          ("synth.rewrite_s", s "synth.rewrite");
          ("synth.balance_s", s "synth.balance");
          ("synth.us_per_and", Measure.ratio (synth *. 1e6) synth_ands);
          ( "synth.alloc_words_per_and",
            Measure.ratio counts.synth_words synth_ands );
          ("atpg.run_s", atpg);
          ("atpg.patterns", float_of_int counts.patterns);
          ("faultsim.random_s", random);
          ( "faultsim.mpatterns_per_s",
            Measure.ratio (counts.random_patterns /. 1e6) random );
          ("podem.calls", podem);
          ("podem.ms_per_call", Measure.ratio ((atpg -. random) *. 1e3) podem);
          ("podem.aborted_frac", Measure.ratio (float_of_int counts.aborted) podem);
          ( "telemetry.overhead_pct",
            100.0
            *. Measure.ratio
                 (traced.Measure.wall_s -. untraced.Measure.wall_s)
                 untraced.Measure.wall_s );
          ( "trace.unattributed_frac",
            Spans.unattributed_frac (Spans.named "bench.cell") spans );
          ("fail_frac", Measure.ratio (float_of_int failed) (float_of_int attempted));
        ];
    }
  end
