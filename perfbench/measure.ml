(** Whole-process counters read around one timed region. *)

type sample = {
  wall_s : float;
  cpu_s : float;  (** user + system time of every domain *)
  minor_words : float;  (** minor-heap words allocated by every domain *)
  minor_gcs : int;
  major_gcs : int;
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [Gc.quick_stat] sums the counters of all domains, including worker
   domains that have already terminated: [Runner] joins its workers before
   [map_grid] returns, so their allocation is counted here. *)
let run f =
  let g0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let c1 = cpu_s () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      wall_s = t1 -. t0;
      cpu_s = c1 -. c0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(** Wall-clock seconds of [f ()], with its result. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Run [f] at least three times and until a second has gone, at most 50
    times; the first result and the median time.  Set-up is cheap on some
    workloads, so one sample would be mostly noise. *)
let repeat_median f =
  let t0 = Unix.gettimeofday () in
  let rec go n acc =
    if n >= 50 || (n >= 3 && Unix.gettimeofday () -. t0 >= 1.0) then List.rev acc
    else go (n + 1) (time f :: acc)
  in
  let runs = go 0 [] in
  (fst (List.hd runs), median (List.map snd runs))

(** Peak resident set of this process so far, in MB (Linux [VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(** [x /. y], or 0 when nothing was measured. *)
let ratio x y = if y = 0.0 then 0.0 else x /. y
