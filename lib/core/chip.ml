(** Cycle-accurate behavioural model of a fabricated OraP-protected chip.

    The model exposes exactly the interface an attacker (or tester) has:
    primary input pins, primary output pins, clock (functional cycles),
    [scan_enable] and the scan-chain ports.  Trojan hooks model the
    Section-III attack scenarios: a fabricated chip may deviate from the
    design in the specific, payload-costed ways the paper analyses. *)

module N = Orap_netlist.Netlist
module Locked = Orap_locking.Locked
module Lfsr = Orap_lfsr.Lfsr
module Keyseq = Orap_lfsr.Keyseq
module Scan = Orap_dft.Scan
module Pulse_gen = Orap_dft.Pulse_gen

(** Foundry-inserted deviations (all [false]/constant-false = honest chip). *)
type trojan = {
  suppress_cell_reset : int -> bool;
      (** scenario (a): per-cell pulse-generator sabotage *)
  exclude_lfsr_from_scan : bool;
      (** scenario (b): key cells bypassed in the chains and their reset
          suppressed at the scan-enable stem *)
  shadow_register : bool;
      (** scenario (c): a shadow copy of the key drives the key gates
          whenever the LFSR no longer holds it *)
  xor_tree_key : bool;
      (** scenario (d): seed registers + XOR trees recompute the key *)
  freeze_ffs_during_unlock : bool;
      (** scenario (e): state FFs hold their values while unlocking *)
}

let no_trojan =
  {
    suppress_cell_reset = (fun _ -> false);
    exclude_lfsr_from_scan = false;
    shadow_register = false;
    xor_tree_key = false;
    freeze_ffs_during_unlock = false;
  }

type t = {
  design : Orap.t;
  trojan : trojan;
  lfsr : Lfsr.t;  (** runtime key register *)
  pulse_gens : Pulse_gen.t array;
  mutable ffs : bool array;
  mutable scan_enable : bool;
  mutable unlocked : bool;  (** unlock sequence has completed *)
  mutable shadow : bool array option;  (** scenario (c)/(d) stolen key *)
}

let create ?(trojan = no_trojan) (design : Orap.t) : t =
  let n = Orap.key_size design in
  {
    design;
    trojan;
    lfsr =
      Lfsr.create
        ~taps:(Lfsr.taps_of design.Orap.lfsr)
        ~reseed_points:(Lfsr.reseed_points_of design.Orap.lfsr)
        ~size:n ();
    pulse_gens = Array.init n (fun _ -> Pulse_gen.create ());
    ffs = Array.make (Orap.num_ffs design) false;
    scan_enable = false;
    unlocked = false;
    shadow = None;
  }

let scan_enable t = t.scan_enable
let key_register t = Lfsr.state t.lfsr
let ff_state t = Array.copy t.ffs
let is_unlocked t = t.unlocked

(** The key value the combinational logic actually sees. *)
let effective_key t =
  match t.shadow with
  | Some stolen when t.trojan.shadow_register || t.trojan.xor_tree_key -> stolen
  | Some _ | None -> Lfsr.state t.lfsr

(** Drive the [scan_enable] pin.  On a rising edge every pulse generator
    fires and clears its LFSR cell — unless a Trojan suppresses it. *)
let set_scan_enable t v =
  t.scan_enable <- v;
  let stem_suppressed = t.trojan.exclude_lfsr_from_scan in
  Array.iteri
    (fun i gen ->
      let fires = Pulse_gen.observe gen ~scan_enable:v in
      if fires && (not stem_suppressed) && not (t.trojan.suppress_cell_reset i)
      then begin
        let s = Lfsr.state t.lfsr in
        s.(i) <- false;
        Lfsr.set_state t.lfsr s
      end)
    t.pulse_gens

(* combinational evaluation at the pins *)
let comb_outputs t ~(ext_inputs : bool array) : bool array =
  Orap.comb_eval t.design ~key:(effective_key t) ~ext:ext_inputs ~ffs:t.ffs

(** One functional clock cycle: returns the external outputs and updates the
    state flip-flops.  Must be in functional mode. *)
let functional_cycle ?(freeze_override = false) t ~(ext_inputs : bool array) :
    bool array =
  if t.scan_enable then invalid_arg "Chip.functional_cycle: scan mode";
  let outs = comb_outputs t ~ext_inputs in
  let ext_outs, next_ffs = Orap.split_outputs t.design outs in
  if not freeze_override then t.ffs <- next_ffs;
  ext_outs

(* --- unlock controller (logic-locking control logic) --- *)

let unlock_cycle t ~memory_bits ~response_active ~freeze =
  let d = t.design in
  let width = Lfsr.num_reseed_points t.lfsr in
  let inj = Array.make width false in
  Array.iteri (fun k p -> inj.(p) <- memory_bits.(k)) d.Orap.memory_points;
  if response_active then
    Array.iteri
      (fun k p -> inj.(p) <- t.ffs.(d.Orap.response_sources.(k)))
      d.Orap.response_points;
  Lfsr.step ~injection:inj t.lfsr;
  (* clock the circuit: PIs held at zero by the controller *)
  let ext = Array.make (Orap.num_ext_inputs d) false in
  let outs = comb_outputs t ~ext_inputs:ext in
  let _, next_ffs = Orap.split_outputs d outs in
  if not freeze then t.ffs <- next_ffs

(** Run the whole unlock sequence, as the on-chip controller does at the
    beginning of normal operation: pulse [scan_enable] to clear the key
    register, then feed the key sequence from the tamper-proof memory. *)
let unlock t =
  set_scan_enable t true;
  set_scan_enable t false;
  let freeze = t.trojan.freeze_ffs_during_unlock in
  (match t.design.Orap.schedule with
  | Orap.Basic_schedule ks ->
    List.iter
      (fun e ->
        unlock_cycle t ~memory_bits:e.Keyseq.seed ~response_active:false
          ~freeze;
        for _ = 1 to e.Keyseq.free_run do
          unlock_cycle t
            ~memory_bits:(Array.make (Array.length e.Keyseq.seed) false)
            ~response_active:false ~freeze
        done)
      (Keyseq.entries ks)
  | Orap.Modified_schedule m ->
    List.iter
      (fun bits -> unlock_cycle t ~memory_bits:bits ~response_active:true ~freeze)
      m.Orap.phase_a;
    List.iter
      (fun bits -> unlock_cycle t ~memory_bits:bits ~response_active:false ~freeze)
      m.Orap.phase_b);
  t.unlocked <- true;
  (* Trojans (c)/(d) steal the key the moment it is formed *)
  if t.trojan.shadow_register || t.trojan.xor_tree_key then
    t.shadow <- Some (Lfsr.state t.lfsr)

(* --- scan operations --- *)

let chain_cells t =
  if t.trojan.exclude_lfsr_from_scan then
    Array.of_list
      (List.filter
         (fun c -> match c with Scan.State _ -> true | Scan.Key _ -> false)
         (Array.to_list (Scan.order t.design.Orap.chain)))
  else Scan.order t.design.Orap.chain

let read_cell t = function
  | Scan.Key i -> (Lfsr.state t.lfsr).(i)
  | Scan.State j -> t.ffs.(j)

let write_cell t cell v =
  match cell with
  | Scan.Key i ->
    let s = Lfsr.state t.lfsr in
    s.(i) <- v;
    Lfsr.set_state t.lfsr s
  | Scan.State j -> t.ffs.(j) <- v

(** One scan shift; requires scan mode. *)
let scan_shift t ~scan_in : bool =
  if not t.scan_enable then invalid_arg "Chip.scan_shift: not in scan mode";
  let cells = chain_cells t in
  let n = Array.length cells in
  let out = read_cell t cells.(n - 1) in
  for i = n - 1 downto 1 do
    write_cell t cells.(i) (read_cell t cells.(i - 1))
  done;
  write_cell t cells.(0) scan_in;
  out

(** Capture cycle in scan mode: the state FFs load their functional inputs
    (computed under the currently effective key); the key register holds. *)
let capture t ~(ext_inputs : bool array) : bool array =
  if not t.scan_enable then invalid_arg "Chip.capture: not in scan mode";
  let outs = comb_outputs t ~ext_inputs in
  let ext_outs, next_ffs = Orap.split_outputs t.design outs in
  t.ffs <- next_ffs;
  ext_outs

(** Full scan-based test access: load a state (and optionally the key
    register — its cells are in the chains, which is what gives the
    tester full controllability), capture under [ext_inputs], unload the
    captured state.  Returns (external outputs at capture, captured FF
    vector). *)
let scan_test ?key t ~(state : bool array) ~(ext_inputs : bool array) :
    bool array * bool array =
  set_scan_enable t true;
  let cells = chain_cells t in
  let n = Array.length cells in
  (* place [state] (and [key]) into the cells by shifting a full image *)
  let key_bit i = match key with None -> false | Some k -> k.(i) in
  let image =
    Array.map
      (fun c ->
        match c with Scan.Key i -> key_bit i | Scan.State j -> state.(j))
      cells
  in
  (* shift in reversed so that image.(i) lands in cell i *)
  for i = n - 1 downto 0 do
    ignore (scan_shift t ~scan_in:image.(i))
  done;
  let ext_outs = capture t ~ext_inputs in
  (* unload: read back the chain while shifting zeros *)
  let out_bits = Array.init n (fun _ -> scan_shift t ~scan_in:false) in
  (* out_bits.(0) is the last cell's content, i.e. chain order reversed *)
  let captured = Array.make (Array.length state) false in
  Array.iteri
    (fun i c ->
      match c with
      | Scan.State j -> captured.(j) <- out_bits.(n - 1 - i)
      | Scan.Key _ -> ())
    cells;
  set_scan_enable t false;
  (ext_outs, captured)

(** Scan the raw chain out (no capture): what scenario (a) uses to steal the
    key register contents. *)
let scan_dump t : (Scan.cell * bool) array =
  set_scan_enable t true;
  let cells = chain_cells t in
  let n = Array.length cells in
  let bits = Array.init n (fun _ -> scan_shift t ~scan_in:false) in
  set_scan_enable t false;
  Array.init n (fun i -> (cells.(i), bits.(n - 1 - i)))
