(** The oracle-guided key-recovery attacks of the paper's S1/S3 matrix, in
    the order it lists them.  The CLI, the robustness grid and the attack
    matrix all iterate {!all}; none of them names an attack module. *)

module Locked = Orap_locking.Locked
module Oracle = Orap_core.Oracle

type report = Dip_loop.result = {
  outcome : bool array Budget.outcome;
  iterations : int;
  queries : int;  (** oracle queries made by THIS run (delta, not lifetime) *)
  conflicts : int;  (** solver conflicts spent by this run *)
  elapsed_s : float;
}

type t = {
  slug : string;  (** CLI and grid-cell name *)
  name : string;  (** report label *)
  run : budget:Budget.t -> validate:int -> Locked.t -> Oracle.t -> report;
      (** [validate] is the SAT attack's proof audit; the others ignore it *)
}

(* hill climbing and key sensitization keep their own result records; their
   report counts flips or sensitized bits as iterations, and no conflicts *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let outcome, iterations, queries = f () in
  { outcome; iterations; queries; conflicts = 0;
    elapsed_s = Unix.gettimeofday () -. t0 }

let sat =
  { slug = "sat"; name = "SAT attack";
    run =
      (fun ~budget ~validate locked oracle ->
        Sat_attack.run ~budget ~validate locked oracle);
  }

let appsat =
  { slug = "appsat"; name = "AppSAT";
    run =
      (fun ~budget ~validate:_ locked oracle -> Appsat.run ~budget locked oracle);
  }

let ddip =
  { slug = "ddip"; name = "Double DIP";
    run =
      (fun ~budget ~validate:_ locked oracle ->
        Double_dip.run ~budget locked oracle);
  }

let hill =
  { slug = "hill"; name = "Hill climbing";
    run =
      (fun ~budget ~validate:_ locked oracle ->
        timed (fun () ->
            let r = Hill_climb.run ~budget locked oracle in
            (r.Hill_climb.outcome, r.Hill_climb.flips, r.Hill_climb.queries)));
  }

let sens =
  { slug = "sens"; name = "Key sensitization";
    run =
      (fun ~budget ~validate:_ locked oracle ->
        timed (fun () ->
            let r = Key_sensitization.run ~budget locked oracle in
            ( r.Key_sensitization.outcome,
              r.Key_sensitization.sensitized_bits,
              r.Key_sensitization.queries )));
  }

let all = [ sat; appsat; ddip; hill; sens ]

let of_slug slug = List.find_opt (fun a -> a.slug = slug) all
