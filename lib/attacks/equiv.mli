(** Functional-equivalence oracle for combinational netlists.

    The SAT path builds a miter over shared primary inputs with
    {!Orap_sat.Tseitin.encode} and decides equality with the repo's own CDCL
    solver; the exhaustive path bit-parallel-simulates every input pattern.
    Having two independent deciders lets the checker itself be
    differentially tested (see the [prop_equiv] suite). *)

(** [Inequivalent cex] carries a distinguishing input assignment (indexed
    by input position). *)
type verdict = Equivalent | Inequivalent of bool array

(** Raised when the two netlists have different input or output counts. *)
exception Incomparable of string

(** Miter + SAT. *)
val sat_equiv : Orap_netlist.Netlist.t -> Orap_netlist.Netlist.t -> verdict

(** Inputs capped at {!max_exhaustive_inputs}; raises [Incomparable] above. *)
val exhaustive_equiv :
  Orap_netlist.Netlist.t -> Orap_netlist.Netlist.t -> verdict

val max_exhaustive_inputs : int

(** [`Auto] (default) simulates exhaustively up to 12 inputs and falls back
    to the miter above. *)
val check :
  ?method_:[ `Sat | `Exhaustive | `Auto ] ->
  Orap_netlist.Netlist.t ->
  Orap_netlist.Netlist.t ->
  verdict

val equivalent : Orap_netlist.Netlist.t -> Orap_netlist.Netlist.t -> bool

(** Does [cex] really distinguish the two netlists? (Used to validate
    counterexamples produced by either decider.) *)
val counterexample_valid :
  Orap_netlist.Netlist.t -> Orap_netlist.Netlist.t -> bool array -> bool

(** [with_fixed_inputs nl assignments] specialises the inputs at the given
    positions to constants; the result's inputs are the remaining positions
    in order.  Fixing a locked netlist's key inputs to a key yields a
    circuit directly comparable to the original. *)
val with_fixed_inputs :
  Orap_netlist.Netlist.t -> (int * bool) list -> Orap_netlist.Netlist.t

(** [widen original nl]: [original] with unread inputs appended until it
    has as many as [nl], to face a repaired netlist that still carries its
    leftover key inputs after the original ones.  Raises [Incomparable] if
    [nl] has fewer inputs. *)
val widen : Orap_netlist.Netlist.t -> Orap_netlist.Netlist.t -> Orap_netlist.Netlist.t

(** [agrees_on_random original nl]: do the two agree on 128 random
    patterns?  [nl] may carry extra trailing inputs (see {!widen}); they
    are driven randomly too.  Cheap, and blind to point-function
    differences: {!sat_equiv} decides. *)
val agrees_on_random : Orap_netlist.Netlist.t -> Orap_netlist.Netlist.t -> bool
