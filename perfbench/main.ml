(* The benchmark's command line.

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
     bash perfbench/run.sh --manifest          (prints BENCHMARK.json)
     bash perfbench/run.sh --record --workload table1|table2 --seed N

   A run prints one JSON object as its last line of output: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  It exits
   1 when any output fails its check. *)

open Perfbench

let usage =
  "main.exe --workload table1|table2|attack-proof|dip-loop --seed N \
   --seconds S --trace 0|1 | --manifest | --record --workload table1|table2 \
   --seed N"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and manifest = ref false and record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " seconds of timed passes");
      ("--trace", Arg.Set_int trace, " 1 = report per-layer metrics");
      ("--manifest", Arg.Set manifest, " print BENCHMARK.json");
      ("--record", Arg.Set record, " record a grid's expected rows for --seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let grid = function
    | "table1" -> Some Grids.Table1
    | "table2" -> Some Grids.Table2
    | _ -> None
  in
  let attack = function
    | "attack-proof" -> Some Attacks.Proof
    | "dip-loop" -> Some Attacks.Dip_loop
    | _ -> None
  in
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  if !manifest then print_string (Catalogue.manifest ())
  else if !record then
    match grid !workload with
    | Some g -> Grids.record g ~seed
    | None -> raise (Arg.Bad "--record takes --workload table1 or table2")
  else begin
    Printf.eprintf "%s seed %d: %d cores, OCaml %s\n%!" !workload seed
      (Domain.recommended_domain_count ())
      Sys.ocaml_version;
    let r =
      match (grid !workload, attack !workload) with
      | Some g, _ -> Grids.run g ~seed ~seconds ~trace
      | None, Some a -> Attacks.run a ~seed ~seconds ~trace
      | None, None ->
        prerr_endline usage;
        exit 2
    in
    let defs = if trace then Catalogue.per_layer else Catalogue.end_to_end in
    let metric (d : Catalogue.metric) =
      let v = Option.value ~default:0.0 (List.assoc_opt d.name r.metrics) in
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" d.name v d.unit
    in
    let correct = r.failed = 0 in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      correct r.attempted r.failed
      (String.concat ", " (List.map metric defs));
    exit (if correct then 0 else 1)
  end
