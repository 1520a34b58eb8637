(** Cycle-accurate behavioural model of a fabricated OraP-protected chip,
    exposing exactly the attacker/tester interface: primary I/O pins,
    functional clock, [scan_enable] and the scan ports.  Trojan hooks model
    the Section-III scenarios. *)

(** Foundry-inserted deviations (all-false = honest chip). *)
type trojan = {
  suppress_cell_reset : int -> bool;  (** scenario (a), per LFSR cell *)
  exclude_lfsr_from_scan : bool;  (** scenario (b) *)
  shadow_register : bool;  (** scenario (c) *)
  xor_tree_key : bool;  (** scenario (d) *)
  freeze_ffs_during_unlock : bool;  (** scenario (e) *)
}

val no_trojan : trojan

type t = {
  design : Orap.t;
  trojan : trojan;
  lfsr : Orap_lfsr.Lfsr.t;
  pulse_gens : Orap_dft.Pulse_gen.t array;
  mutable ffs : bool array;
  mutable scan_enable : bool;
  mutable unlocked : bool;
  mutable shadow : bool array option;
}

val create : ?trojan:trojan -> Orap.t -> t

(** {1 Observation} *)

val scan_enable : t -> bool
val key_register : t -> bool array
val ff_state : t -> bool array
val is_unlocked : t -> bool

(** The key value the combinational logic actually sees (Trojans (c)/(d)
    substitute their stolen copy). *)
val effective_key : t -> bool array

(** {1 Pins and clocking} *)

(** Drive the [scan_enable] pin; on a rising edge every pulse generator
    fires and clears its LFSR cell unless a Trojan suppresses it. *)
val set_scan_enable : t -> bool -> unit

(** Combinational outputs at the pins for the current state. *)
val comb_outputs : t -> ext_inputs:bool array -> bool array

(** One functional clock cycle (functional mode only): returns the external
    outputs and updates the state flip-flops. *)
val functional_cycle : ?freeze_override:bool -> t -> ext_inputs:bool array -> bool array

(** Run the on-chip unlock controller: pulse [scan_enable] to clear the key
    register, then feed the secret schedule. *)
val unlock : t -> unit

(** {1 Scan operations (scan mode only)} *)

(** Cells of the chain as this chip exposes them (Trojan (b) hides the key
    cells). *)
val chain_cells : t -> Orap_dft.Scan.cell array

val scan_shift : t -> scan_in:bool -> bool

(** Capture cycle: the state FFs load their functional inputs; the key
    register holds. *)
val capture : t -> ext_inputs:bool array -> bool array

(** Full test access: load a state (and optionally the key register — its
    cells are scannable), capture under [ext_inputs], unload.  Returns
    (external outputs at capture, captured FF vector). *)
val scan_test :
  ?key:bool array ->
  t ->
  state:bool array ->
  ext_inputs:bool array ->
  bool array * bool array

(** Shift the raw chain out without capturing (scenario (a)'s key theft). *)
val scan_dump : t -> (Orap_dft.Scan.cell * bool) array
