(** Golden results of the oracle-guided attacks at fixed seeds: SAT (with
    and without its proof audit), AppSAT and Double DIP on small weighted,
    SARLock and Anti-SAT circuits behind functional, noisy and rate-limited
    oracles; the rendered S1 attack matrix; and the robustness grid's
    canonical rows for all five attacks.  The digests pin every outcome,
    key bit, iteration, query and conflict count, so any change to the
    attacks' solver calls, DIP order or dispatch shows up here. *)

open Util
module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Faulty = Orap_core.Faulty_oracle
module Budget = Orap_attacks.Budget
module Sat_attack = Orap_attacks.Sat_attack
module Appsat = Orap_attacks.Appsat
module Double_dip = Orap_attacks.Double_dip
module E = Orap_experiments

let md5 s = Digest.to_hex (Digest.string s)

let bits key =
  String.init (Array.length key) (fun i -> if key.(i) then '1' else '0')

(* outcome tag, key bits and the approximate claim's own statistics *)
let outcome_repr (o : bool array Budget.outcome) =
  let key = match Budget.recovered o with Some k -> bits k | None -> "-" in
  let stats =
    match o with
    | Budget.Approximate (_, s) ->
      Printf.sprintf " it=%d q=%d err=%.6f" s.Budget.iterations s.Budget.queries
        s.Budget.estimated_error
    | _ -> ""
  in
  Printf.sprintf "%s key=%s%s" (Budget.outcome_to_string o) key stats

let line label o ~iterations ~queries ~conflicts =
  Printf.sprintf "%s: %s iters=%d queries=%d conflicts=%d\n" label
    (outcome_repr o) iterations queries conflicts

let small = random_netlist ~inputs:14 ~outputs:10 ~gates:120 7

let circuits =
  [
    ("weighted", Orap_locking.Weighted.lock small ~key_size:12 ~ctrl_inputs:3);
    ("sarlock", Orap_locking.Sarlock.lock small ~key_size:6);
    ("antisat", Orap_locking.Antisat.lock small ~key_size:6);
    ("random", Orap_locking.Random_ll.lock small ~key_size:16);
  ]

let oracles : (string * (Locked.t -> Oracle.t)) list =
  [
    ("functional", Oracle.functional);
    ("noisy", fun lk -> Faulty.bit_flip ~seed:3 ~p:0.05 (Oracle.functional lk));
    ("limited", fun lk -> Faulty.query_budget ~limit:20 (Oracle.functional lk));
  ]

let attack_lines () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (cname, lk) ->
      List.iter
        (fun (oname, mk) ->
          let label a = Printf.sprintf "%s/%s/%s" a cname oname in
          List.iter
            (fun validate ->
              let r = Sat_attack.run ~validate lk (mk lk) in
              Buffer.add_string buf
                (line
                   (label (Printf.sprintf "sat%d" validate))
                   r.Sat_attack.outcome ~iterations:r.Sat_attack.iterations
                   ~queries:r.Sat_attack.queries
                   ~conflicts:r.Sat_attack.conflicts))
            [ 0; 32 ];
          List.iter
            (fun (probe_every, seed) ->
              let r = Appsat.run ~probe_every ~seed lk (mk lk) in
              Buffer.add_string buf
                (line
                   (label (Printf.sprintf "appsat%d/%d" probe_every seed))
                   r.Appsat.outcome ~iterations:r.Appsat.iterations
                   ~queries:r.Appsat.queries ~conflicts:r.Appsat.conflicts))
            [ (8, 4242); (2, 1) ];
          let r = Double_dip.run lk (mk lk) in
          Buffer.add_string buf
            (line (label "ddip") r.Double_dip.outcome
               ~iterations:r.Double_dip.iterations ~queries:r.Double_dip.queries
               ~conflicts:r.Double_dip.conflicts))
        oracles)
    circuits;
  Buffer.contents buf

let test_attack_digest () =
  let s = attack_lines () in
  print_string s;
  check Alcotest.string "SAT/AppSAT/DDIP digest"
    "9a2a0ea434ba77829bbff49877c2753f" (md5 s)

let fixture = E.Security.make_fixture ~num_gates:120 ~key_size:12 ()

let test_matrix_report () =
  let s =
    E.Report.render (E.Security.attack_report (E.Security.attack_matrix fixture))
  in
  print_string s;
  check Alcotest.string "S1 attack matrix digest"
    "782270f2f7cd8c3009400cb6c6c3ebdf" (md5 s)

let robustness_rows oracle noise_levels =
  let params =
    {
      E.Robustness.default_params with
      E.Robustness.num_gates = 120;
      key_size = 12;
      oracle;
      noise_levels;
      query_budgets = [ 0; 40 ];
      trials = 2;
      wall_clock_s = 120.0;
    }
  in
  String.concat "\n"
    (List.map E.Robustness.canonical (E.Robustness.run ~params ()))

let test_robustness_rows () =
  let f = robustness_rows E.Robustness.Functional [ 0.0; 0.05 ] in
  let o = robustness_rows E.Robustness.Orap_scan [ 0.0 ] in
  print_endline f;
  print_endline o;
  check Alcotest.string "functional grid digest"
    "8752f0774e2d0ed3c166b3f5637fac32" (md5 f);
  check Alcotest.string "OraP grid digest"
    "dfa81a8d8d9315b5fc5fc5c9086b1010" (md5 o)

let suite =
  ( "attack-golden",
    [
      tc "SAT/AppSAT/DDIP outcomes" `Quick test_attack_digest;
      tc "S1 attack matrix" `Quick test_matrix_report;
      tc "robustness rows, all attacks" `Quick test_robustness_rows;
    ] )
