(** The OraP oracle-protection scheme (Sections II and III of the paper):
    construction of protected designs around an already locked circuit.

    See the implementation header for the basic (Fig. 1) / modified (Fig. 3)
    variants and the two-phase realisation of the modified unlock schedule. *)

type kind = Basic | Modified

type config = {
  kind : kind;
  taps_stride : int;
  num_seeds : int;
  max_free_run : int;
  chain_style : Orap_dft.Scan.style;
  num_ffs : int;
  phase_a_cycles : int;
  seed : int;
}

val default_config : ?kind:kind -> num_ffs:int -> unit -> config

type modified_schedule = {
  phase_a : bool array list;
  phase_b : bool array list;
}

type schedule =
  | Basic_schedule of Orap_lfsr.Keyseq.t
  | Modified_schedule of modified_schedule

type t = {
  locked : Orap_locking.Locked.t;
  config : config;
  lfsr : Orap_lfsr.Lfsr.t;
  chain : Orap_dft.Scan.t;
  schedule : schedule;
  memory_points : int array;
  response_points : int array;
  response_sources : int array;
}

exception Construction_failure of string

(** Build a protected design; the locked circuit's correct key becomes the
    target of the (solved) unlock schedule. *)
val protect : ?config:config -> Orap_locking.Locked.t -> t

val key_size : t -> int
val num_ffs : t -> int
val num_ext_inputs : t -> int
val unlock_cycles : t -> int

(** Combinational evaluation of the locked core at a given key. *)
val comb_eval : t -> key:bool array -> ext:bool array -> ffs:bool array -> bool array

(** Split a full output vector into (external outputs, next-state values). *)
val split_outputs : t -> bool array -> bool array * bool array

(** {1 Hardware accounting (Table I)} *)

type hardware = { pulse_gen_gates : int; reseed_xors : int; tap_xors : int }

val hardware : t -> hardware
val hardware_gate_count : hardware -> int

(** The same hardware in AIG AND-node units (XOR = 3 ANDs). *)
val hardware_and_nodes : hardware -> int
