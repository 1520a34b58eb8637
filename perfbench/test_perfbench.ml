(* Checks on the benchmark's own measurement code. *)

open Perfbench
module E = Orap_experiments
module Runner = Orap_runner.Runner
module T = Orap_telemetry.Telemetry

(* alloc_mwords must count what Runner's worker domains allocate: the same
   grid allocates about as much on two domains as on one. *)
let alloc_counts_worker_domains () =
  let profiles =
    List.filter
      (fun p -> List.mem p.Orap_benchgen.Benchgen.name [ "s38417"; "s38584"; "b20"; "b21" ])
      Orap_benchgen.Benchgen.table1_profiles
  in
  let words jobs =
    let _, s =
      Measure.run (fun () ->
          E.Table1.run ~params:(Grids.table1_params 2020)
            ~options:{ Runner.default_options with Runner.jobs } ~profiles ())
    in
    s.Measure.minor_words
  in
  let one = words 1 and two = words 2 in
  Printf.printf "4-cell table1 grid: %.1f M words on 1 domain, %.1f M on 2\n"
    (one /. 1e6) (two /. 1e6);
  assert (Float.abs (two -. one) < 0.02 *. one)

let self_times () =
  let ev name ts dur tid =
    { T.phase = T.Complete; name; ts_us = ts; dur_us = dur; tid; args = [] }
  in
  (* root [0,100) holds a [10,40) and b [50,60); c [20,30) is in a; another
     domain's span overlaps in time but is nobody's child *)
  let spans =
    Spans.of_events
      [ ev "c" 20. 10. 0; ev "a" 10. 30. 0; ev "b" 50. 10. 0;
        ev "root" 0. 100. 0; ev "other" 5. 50. 1 ]
  in
  let near x y = Float.abs (x -. y) < 1e-9 in
  let self name = Spans.self_s (Spans.named name) spans *. 1e6 in
  assert (near (self "root") 60.0);
  assert (near (self "a") 20.0);
  assert (near (self "c") 10.0);
  assert (near (self "other") 50.0);
  assert (near (Spans.unattributed_frac (Spans.named "root") spans) 0.6)

let () =
  self_times ();
  alloc_counts_worker_domains ()
