(** Irredundant sum-of-products via the Minato–Morreale procedure.

    [compute lower upper] returns a cube cover [c] with
    [lower <= cover c <= upper]; with [lower = upper = f] it yields an
    irredundant SOP of [f].  Cubes are (positive-literal mask,
    negative-literal mask) pairs over the truth-table variables. *)

type cube = { pos : int; neg : int }

let cube_literals c =
  let rec pc x = if x = 0 then 0 else (x land 1) + pc (x lsr 1) in
  pc c.pos + pc c.neg

let cube_truth nvars c =
  let t = ref (Truth.ones nvars) in
  for i = 0 to nvars - 1 do
    if (c.pos lsr i) land 1 = 1 then t := Truth.logand !t (Truth.var nvars i);
    if (c.neg lsr i) land 1 = 1 then
      t := Truth.logand !t (Truth.lognot (Truth.var nvars i))
  done;
  !t

let cover_truth nvars cubes =
  List.fold_left
    (fun acc c -> Truth.logor acc (cube_truth nvars c))
    (Truth.zero nvars) cubes

(* The recursion runs on tables that shrink with each split.  A call at
   width [w] gets [lower] and [upper] as tables over variables [0..w-1]
   (neither depends on any higher one), splits on the highest variable [x]
   either depends on, and recurses at width [x]: the cofactors on [x] of a
   table that ignores every variable above [x] are just the low and high
   halves of its first [2^(x+1)] bits.  Cubes are pushed onto [acc] in the
   order [c0 @ c1 @ c2] of the textbook recursion, each carrying the
   literals [pos]/[neg] of the splits above it.  Every call returns its
   cover at its own width. *)

let emit acc pos neg = acc := { pos; neg } :: !acc

(* [c], a table of width [a], repeated out to width [b] (both <= 5) *)
let rec widen c a b = if a >= b then c else widen (c lor (c lsl (1 lsl a))) (a + 1) b

let rec top_var_word lower upper i =
  if i < 0 || Truth.word_depends lower i || Truth.word_depends upper i then i
  else top_var_word lower upper (i - 1)

(* width [w <= 5]: tables are single words and nothing but cubes is
   allocated *)
let rec isop_word acc lower upper w pos neg =
  let full = Truth.mask w in
  if lower = 0 then 0
  else if lower = full then (emit acc pos neg; full)
  else begin
    let x = top_var_word lower upper (w - 1) in
    if x < 0 then (emit acc pos neg; full)
    else begin
      let h = 1 lsl x and m = Truth.mask x and bit = 1 lsl x in
      let l0 = lower land m and l1 = (lower lsr h) land m in
      let u0 = upper land m and u1 = (upper lsr h) land m in
      let cov0 = isop_word acc (l0 land lnot u1) u0 x pos (neg lor bit) in
      let cov1 = isop_word acc (l1 land lnot u0) u1 x (pos lor bit) neg in
      let lnew = (l0 land lnot cov0) lor (l1 land lnot cov1) in
      let cov2 = isop_word acc lnew (u0 land u1) x pos neg in
      widen ((cov0 lor cov2) lor ((cov1 lor cov2) lsl h)) (x + 1) w
    end
  end

let rec slice_is a off n v = n = 0 || (a.(off) = v && slice_is a (off + 1) (n - 1) v)

let rec top_var_slice la lo ua uo w i =
  if i < 0 || Truth.slice_depends la lo w i || Truth.slice_depends ua uo w i then i
  else top_var_slice la lo ua uo w (i - 1)

(* width [w >= 5]: [lower] is the [2^(w-5)] words at [la.(lo)], [upper]
   those at [ua.(uo)]; the cover is written to [ca.(co)].  [scratch.(x)]
   holds the five width-[x] tables of the call that splits on [x]: the
   lower argument of each child, the upper argument of the third child,
   and the three child covers.  Calls on the stack split on distinct
   variables, so each scratch table has one owner at a time. *)
let rec isop_slice acc scratch la lo ua uo w pos neg ca co =
  let n = 1 lsl (w - 5) in
  if slice_is la lo n 0 then Array.fill ca co n 0
  else if slice_is la lo n Truth.full_word then begin
    emit acc pos neg;
    Array.fill ca co n Truth.full_word
  end
  else begin
    let x = top_var_slice la lo ua uo w (w - 1) in
    if x < 5 then
      (* every word is the same width-5 table *)
      Array.fill ca co n (isop_word acc la.(lo) ua.(uo) 5 pos neg)
    else begin
      let h = 1 lsl (x - 5) and bit = 1 lsl x in
      let s = scratch.(x) in
      let d = h and c0 = 2 * h and c1 = 3 * h and c2 = 4 * h in
      for k = 0 to h - 1 do
        s.(k) <- la.(lo + k) land lnot ua.(uo + h + k)
      done;
      isop_slice acc scratch s 0 ua uo x pos (neg lor bit) s c0;
      for k = 0 to h - 1 do
        s.(k) <- la.(lo + h + k) land lnot ua.(uo + k)
      done;
      isop_slice acc scratch s 0 ua (uo + h) x (pos lor bit) neg s c1;
      for k = 0 to h - 1 do
        s.(k) <-
          (la.(lo + k) land lnot s.(c0 + k))
          lor (la.(lo + h + k) land lnot s.(c1 + k));
        s.(d + k) <- ua.(uo + k) land ua.(uo + h + k)
      done;
      isop_slice acc scratch s 0 s d x pos neg s c2;
      for k = 0 to h - 1 do
        ca.(co + k) <- s.(c0 + k) lor s.(c2 + k);
        ca.(co + h + k) <- s.(c1 + k) lor s.(c2 + k)
      done;
      (* the width-[x+1] cover, repeated out to width [w] *)
      for k = 2 * h to n - 1 do
        ca.(co + k) <- ca.(co + (k land ((2 * h) - 1)))
      done
    end
  end

(** SOP of [f] (irredundant w.r.t. cube containment). *)
let compute (f : Truth.t) : cube list =
  let acc = ref [] and w = f.Truth.nvars and t = f.Truth.words in
  if w <= 5 then assert (isop_word acc t.(0) t.(0) w 0 0 = t.(0))
  else begin
    let scratch =
      Array.init w (fun x -> if x >= 5 then Array.make (5 lsl (x - 5)) 0 else [||])
    in
    let cover = Array.make (Array.length t) 0 in
    isop_slice acc scratch t 0 t 0 w 0 0 cover 0;
    assert (cover = t)
  end;
  List.rev !acc

(** Structural cost of a cover when built as a 2-input AND/OR network:
    [sum (lits_i - 1)] AND nodes per cube plus [cubes - 1] OR nodes. *)
let cost cubes =
  match cubes with
  | [] -> 0
  | _ ->
    List.fold_left (fun acc c -> acc + max 0 (cube_literals c - 1)) 0 cubes
    + (List.length cubes - 1)

(** Build the cover inside an AIG over the given leaf literals. *)
let to_aig (aig : Aig.t) (leaves : int array) cubes : int =
  let cube_lit c =
    let lits = ref [] in
    Array.iteri
      (fun i l ->
        if (c.pos lsr i) land 1 = 1 then lits := l :: !lits;
        if (c.neg lsr i) land 1 = 1 then lits := Aig.compl_lit l :: !lits)
      leaves;
    Aig.and_list aig !lits
  in
  Aig.or_list aig (List.map cube_lit cubes)
