(** Per-layer figures from an in-memory trace.

    A span's self time is its duration minus the time its direct children
    cover.  Spans nest by containment within one domain ([tid]): every sink
    emits a span when it ends, so children are recovered from timestamps,
    not from emission order. *)

module T = Orap_telemetry.Telemetry

type span = {
  name : string;
  start_us : float;
  dur_us : float;
  mutable child_us : float;
  mutable root : bool;
}

(* a child may end a rounding error after its parent *)
let slack_us = 1.0

let of_events (events : T.event list) : span list =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : T.event) ->
      if e.T.phase = T.Complete then
        let s =
          { name = e.T.name; start_us = e.T.ts_us; dur_us = e.T.dur_us;
            child_us = 0.0; root = true }
        in
        Hashtbl.replace by_tid e.T.tid
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid e.T.tid)))
    events;
  Hashtbl.fold
    (fun _ spans acc ->
      let spans =
        List.sort
          (fun a b ->
            match compare a.start_us b.start_us with
            | 0 -> compare b.dur_us a.dur_us
            | c -> c)
          spans
      in
      let stack = ref [] in
      List.iter
        (fun s ->
          let ends p = p.start_us +. p.dur_us in
          let rec pop () =
            match !stack with
            | p :: rest when ends p +. slack_us < ends s ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | p :: _ ->
            p.child_us <- p.child_us +. s.dur_us;
            s.root <- false
          | [] -> ());
          stack := s :: !stack)
        spans;
      spans @ acc)
    by_tid []

let self_us s = Float.max 0.0 (s.dur_us -. s.child_us)
let named name s = s.name = name

(** Total duration, in seconds, of the spans that satisfy [p]. *)
let sum_s p spans =
  List.fold_left (fun acc s -> if p s then acc +. s.dur_us else acc) 0.0 spans
  *. 1e-6

let max_s p spans =
  List.fold_left (fun acc s -> if p s then Float.max acc s.dur_us else acc) 0.0
    spans
  *. 1e-6

let self_s p spans =
  List.fold_left (fun acc s -> if p s then acc +. self_us s else acc) 0.0 spans
  *. 1e-6

(** Share of the time of the root spans that satisfy [p] that no child
    span accounts for. *)
let unattributed_frac p spans =
  let roots = List.filter (fun s -> s.root && p s) spans in
  Measure.ratio
    (List.fold_left (fun acc s -> acc +. self_us s) 0.0 roots)
    (List.fold_left (fun acc s -> acc +. s.dur_us) 0.0 roots)
