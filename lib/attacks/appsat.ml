(** AppSAT [11]: approximate SAT attack.  The DIP loop is augmented with
    periodic random-query probes; when the candidate key's error rate on
    random patterns drops below a threshold, the attack settles for an
    approximate key instead of waiting for full miter exhaustion (which
    point-function defences like SARLock push to 2^k iterations). *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle
module Prng = Orap_sim.Prng

type result = Dip_loop.result = {
  outcome : bool array Budget.outcome;
  iterations : int;
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;  (** solver conflicts spent by this run *)
  elapsed_s : float;
}

(* random queries per probe *)
let probe_size = 32

(* Before every [probe_every]-th DIP, probe the current constraint-consistent
   key on random queries: settle for it when it errs on at most
   [error_threshold] of them, otherwise add the failing probes as IO
   constraints, as in AppSAT, and go on. *)
let probe ~probe_every ~error_threshold ~seed locked oracle =
  let rng = Prng.create seed in
  fun (r : Dip_loop.run) iters ->
    if iters = 0 || iters mod probe_every <> 0 then None
    else
      match Dip_loop.consistent_key r with
      | Error outcome -> Some outcome
      | Ok key -> (
        match Dip_loop.sample locked oracle rng probe_size key with
        | Error reason -> Some (Budget.Oracle_refused reason)
        | Ok samples ->
          let failing = List.filter (fun (_, y, y') -> y' <> y) samples in
          let err =
            float_of_int (List.length failing) /. float_of_int probe_size
          in
          if err <= error_threshold then
            Some
              (Budget.Approximate
                 ( key,
                   Budget.stats_of r.Dip_loop.clock ~iterations:iters
                     ~queries:(r.Dip_loop.queries ()) ~estimated_error:err () ))
          else begin
            (* latest failure first, which fixes the solver's clause order *)
            List.iter
              (fun (x, y, _) -> r.Dip_loop.miter.Dip_loop.constrain x y)
              (List.rev failing);
            None
          end)

let run ?budget ?max_iterations ?(probe_every = 8) ?(error_threshold = 0.01)
    ?(seed = 4242) (locked : Locked.t) (oracle : Oracle.t) : result =
  Dip_loop.run ~name:"appsat" ?budget ?max_iterations
    ~probe:(probe ~probe_every ~error_threshold ~seed locked oracle)
    (fun () -> Sat_attack.make_state locked)
    oracle
