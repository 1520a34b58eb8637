(** CDCL SAT solver: two-watched-literal propagation, first-UIP clause
    learning, VSIDS branching with phase saving, Luby restarts, activity-based
    learnt-clause reduction, and assumption-based incremental solving.

    The design follows Minisat; the implementation is self-contained (the
    container ships no SAT tooling, and the SAT attack of the paper needs an
    incremental solver). *)

type result = Sat | Unsat | Unknown

type clause = {
  lits : int array;  (* watched literals are lits.(0) and lits.(1) *)
  learnt : bool;
  mutable activity : float;
  mutable deleted : bool;
}

type t = {
  mutable clauses : clause array;  (* arena; index = clause id *)
  mutable num_clauses : int;
  mutable learnts : Vec.t;  (* ids of learnt clauses *)
  mutable watches : Vec.t array;  (* per literal *)
  mutable assign : int array;  (* per var: 0 undef, 1 true, -1 false *)
  mutable level : int array;  (* per var *)
  mutable reason : int array;  (* per var: clause id or -1 *)
  mutable activity : float array;  (* per var *)
  mutable polarity : bool array;  (* saved phase per var *)
  mutable seen : bool array;  (* scratch for analyze *)
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  mutable nvars : int;
  mutable ok : bool;  (* false once a top-level conflict is derived *)
  mutable var_inc : float;
  mutable cla_inc : float;
  (* branching heap *)
  heap : Vec.t;
  mutable heap_pos : int array;  (* per var: position in heap or -1 *)
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable max_learnts : float;
}

let create () =
  {
    clauses = Array.make 16 { lits = [||]; learnt = false; activity = 0.; deleted = true };
    num_clauses = 0;
    learnts = Vec.create ();
    watches = Array.init 2 (fun _ -> Vec.create ());
    assign = Array.make 1 0;
    level = Array.make 1 0;
    reason = Array.make 1 (-1);
    activity = Array.make 1 0.;
    polarity = Array.make 1 false;
    seen = Array.make 1 false;
    trail = Vec.create ~capacity:64 ();
    trail_lim = Vec.create ();
    qhead = 0;
    nvars = 0;
    ok = true;
    var_inc = 1.0;
    cla_inc = 1.0;
    heap = Vec.create ();
    heap_pos = Array.make 1 (-1);
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    max_learnts = 0.;
  }

let num_vars s = s.nvars
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations

let value_lit s l =
  let a = s.assign.(Lit.var l) in
  if Lit.is_neg l then -a else a

(* ---- branching heap (max-heap on var activity) ---- *)

let heap_lt s v w = s.activity.(v) > s.activity.(w)

let rec percolate_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let v = Vec.get s.heap i and pv = Vec.get s.heap p in
    if heap_lt s v pv then begin
      Vec.set s.heap i pv;
      Vec.set s.heap p v;
      s.heap_pos.(pv) <- i;
      s.heap_pos.(v) <- p;
      percolate_up s p
    end
  end

let rec percolate_down s i =
  let n = Vec.length s.heap in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < n && heap_lt s (Vec.get s.heap l) (Vec.get s.heap !best) then best := l;
  if r < n && heap_lt s (Vec.get s.heap r) (Vec.get s.heap !best) then best := r;
  if !best <> i then begin
    let a = Vec.get s.heap i and b = Vec.get s.heap !best in
    Vec.set s.heap i b;
    Vec.set s.heap !best a;
    s.heap_pos.(b) <- i;
    s.heap_pos.(a) <- !best;
    percolate_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    Vec.push s.heap v;
    s.heap_pos.(v) <- Vec.length s.heap - 1;
    percolate_up s (Vec.length s.heap - 1)
  end

let heap_pop s =
  let top = Vec.get s.heap 0 in
  let last = Vec.pop s.heap in
  s.heap_pos.(top) <- -1;
  if Vec.length s.heap > 0 then begin
    Vec.set s.heap 0 last;
    s.heap_pos.(last) <- 0;
    percolate_down s 0
  end;
  top

(* ---- variables ---- *)

let grow_arrays s n =
  let old = Array.length s.assign in
  if n > old then begin
    let m = max n (2 * old) in
    let copy_int a def = let b = Array.make m def in Array.blit a 0 b 0 old; b in
    let copy_f a = let b = Array.make m 0. in Array.blit a 0 b 0 old; b in
    let copy_b a = let b = Array.make m false in Array.blit a 0 b 0 old; b in
    s.assign <- copy_int s.assign 0;
    s.level <- copy_int s.level 0;
    s.reason <- copy_int s.reason (-1);
    s.heap_pos <- copy_int s.heap_pos (-1);
    s.activity <- copy_f s.activity;
    s.polarity <- copy_b s.polarity;
    s.seen <- copy_b s.seen;
    let w = Array.make (2 * m) (Vec.create ()) in
    Array.blit s.watches 0 w 0 (2 * old);
    for i = 2 * old to (2 * m) - 1 do
      w.(i) <- Vec.create ~capacity:2 ()
    done;
    s.watches <- w
  end

let new_var s =
  let v = s.nvars in
  grow_arrays s (v + 1);
  s.assign.(v) <- 0;
  s.reason.(v) <- -1;
  s.heap_pos.(v) <- -1;
  s.activity.(v) <- 0.;
  s.polarity.(v) <- false;
  s.nvars <- v + 1;
  heap_insert s v;
  v

let new_vars s n = Array.init n (fun _ -> new_var s)

(* ---- activity ---- *)

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then percolate_up s s.heap_pos.(v)

let cla_bump s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun id -> s.clauses.(id).activity <- s.clauses.(id).activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* ---- trail ---- *)

let decision_level s = Vec.length s.trail_lim

let enqueue s l reason =
  let v = Lit.var l in
  s.assign.(v) <- (if Lit.is_neg l then -1 else 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let new_decision_level s = Vec.push s.trail_lim (Vec.length s.trail)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.length s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      s.polarity.(v) <- not (Lit.is_neg l);
      s.assign.(v) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.length s.trail
  end

(* ---- clauses ---- *)

let alloc_clause s lits learnt =
  if s.num_clauses = Array.length s.clauses then begin
    let a =
      Array.make (2 * s.num_clauses)
        { lits = [||]; learnt = false; activity = 0.; deleted = true }
    in
    Array.blit s.clauses 0 a 0 s.num_clauses;
    s.clauses <- a
  end;
  let id = s.num_clauses in
  s.clauses.(id) <- { lits; learnt; activity = 0.; deleted = false };
  s.num_clauses <- id + 1;
  Vec.push s.watches.(Lit.negate lits.(0)) id;
  Vec.push s.watches.(Lit.negate lits.(1)) id;
  if learnt then Vec.push s.learnts id;
  id

(** Add a problem clause.  Must be called at decision level 0 (the solver
    backtracks there between [solve] calls).  Returns [false] if the clause
    set became trivially unsatisfiable. *)
let add_clause s (lits : Lit.t list) =
  if s.ok then begin
    (* adding clauses invalidates any retained model: return to the root *)
    cancel_until s 0;
    (* sort, dedup, drop clauses with x and ~x or with a true literal *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (Lit.negate l) lits) lits
      || List.exists (fun l -> value_lit s l > 0) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> value_lit s l = 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] -> enqueue s l (-1)
      | _ -> ignore (alloc_clause s (Array.of_list lits) false)
    end
  end;
  s.ok

(* ---- propagation ---- *)

let propagate s : int =
  (* returns conflicting clause id or -1 *)
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < Vec.length s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* clauses watching literal L are filed under key ~L, so the clauses
       whose watch was falsified by p (i.e. watching ~p) are in watches.(p) *)
    let false_lit = Lit.negate p in
    let ws = s.watches.(p) in
    let n = Vec.length ws in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < n do
      let id = Vec.get ws !i in
      incr i;
      let c = s.clauses.(id) in
      if c.deleted then () (* drop stale watch *)
      else begin
        let lits = c.lits in
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        if value_lit s lits.(0) > 0 then begin
          (* clause satisfied; keep watching *)
          Vec.set ws !keep id;
          incr keep
        end
        else begin
          (* look for a new literal to watch *)
          let len = Array.length lits in
          let rec find k = if k >= len then -1 else if value_lit s lits.(k) >= 0 then k else find (k + 1) in
          let k = find 2 in
          if k >= 0 then begin
            lits.(1) <- lits.(k);
            lits.(k) <- false_lit;
            Vec.push s.watches.(Lit.negate lits.(1)) id
          end
          else if value_lit s lits.(0) < 0 then begin
            (* conflict: keep remaining watches *)
            conflict := id;
            Vec.set ws !keep id;
            incr keep;
            while !i < n do
              Vec.set ws !keep (Vec.get ws !i);
              incr keep;
              incr i
            done;
            s.qhead <- Vec.length s.trail
          end
          else begin
            (* unit *)
            Vec.set ws !keep id;
            incr keep;
            enqueue s lits.(0) id
          end
        end
      end
    done;
    Vec.shrink ws !keep
  done;
  !conflict

(* ---- conflict analysis (first UIP) ---- *)

let analyze s conflict_id =
  let learnt = ref [] in
  let bt_level = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref conflict_id in
  let index = ref (Vec.length s.trail - 1) in
  let continue = ref true in
  while !continue do
    let c = s.clauses.(!confl) in
    if c.learnt then cla_bump s c;
    let lits = c.lits in
    let start = if !p = -1 then 0 else 1 in
    (* when resolving on p, lits.(0) is p (asserted lit of the reason) *)
    for j = start to Array.length lits - 1 do
      let q = lits.(j) in
      let v = Lit.var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else begin
          learnt := q :: !learnt;
          if s.level.(v) > !bt_level then bt_level := s.level.(v)
        end
      end
    done;
    (* next clause to resolve: walk trail backwards to a seen var *)
    while not s.seen.(Lit.var (Vec.get s.trail !index)) do
      decr index
    done;
    p := Vec.get s.trail !index;
    decr index;
    let v = Lit.var !p in
    s.seen.(v) <- false;
    decr counter;
    if !counter = 0 then continue := false else confl := s.reason.(v)
  done;
  let learnt_lits = Array.of_list (Lit.negate !p :: !learnt) in
  (* cleanup seen for the literals kept in the learnt clause *)
  Array.iter (fun l -> s.seen.(Lit.var l) <- false) learnt_lits;
  (learnt_lits, !bt_level)

let record_learnt s lits =
  if Array.length lits = 1 then enqueue s lits.(0) (-1)
  else begin
    (* watch a literal of the backtrack level in position 1 *)
    let max_i = ref 1 in
    for j = 2 to Array.length lits - 1 do
      if s.level.(Lit.var lits.(j)) > s.level.(Lit.var lits.(!max_i)) then max_i := j
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!max_i);
    lits.(!max_i) <- tmp;
    let id = alloc_clause s lits true in
    cla_bump s s.clauses.(id);
    enqueue s lits.(0) id
  end

(* ---- learnt clause DB reduction ---- *)

let locked s c = Array.length c.lits > 0 && s.reason.(Lit.var c.lits.(0)) >= 0
  && s.clauses.(s.reason.(Lit.var c.lits.(0))) == c

let reduce_db s =
  let ids = Vec.to_list s.learnts in
  let ids = List.filter (fun id -> not s.clauses.(id).deleted) ids in
  let sorted =
    List.sort
      (fun a b -> compare s.clauses.(a).activity s.clauses.(b).activity)
      ids
  in
  let n = List.length sorted in
  let removed = ref 0 in
  List.iteri
    (fun i id ->
      let c = s.clauses.(id) in
      if i < n / 2 && Array.length c.lits > 2 && not (locked s c) then begin
        c.deleted <- true;
        incr removed
      end)
    sorted;
  Vec.clear s.learnts;
  List.iter (fun id -> if not s.clauses.(id).deleted then Vec.push s.learnts id) ids

(* ---- search ---- *)

(* Luby restart sequence, as in Minisat *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

exception Answered of result

let solve ?(assumptions : Lit.t array = [||]) ?(conflict_limit = max_int) s : result
    =
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    let restart_first = 100. in
    let restart_num = ref 0 in
    s.max_learnts <- float_of_int (max 1000 (s.num_clauses / 3));
    let result =
      try
        while true do
          let conflict_budget =
            restart_first *. luby 2.0 !restart_num |> int_of_float
          in
          incr restart_num;
          let conflicts_here = ref 0 in
          let continue_inner = ref true in
          while !continue_inner do
            let confl = propagate s in
            if confl >= 0 then begin
              s.conflicts <- s.conflicts + 1;
              incr conflicts_here;
              if decision_level s = 0 then begin
                s.ok <- false;
                raise (Answered Unsat)
              end;
              let learnt, bt = analyze s confl in
              cancel_until s bt;
              record_learnt s learnt;
              s.var_inc <- s.var_inc *. var_decay;
              s.cla_inc <- s.cla_inc *. cla_decay;
              if s.conflicts >= conflict_limit then raise (Answered Unknown)
            end
            else begin
              if !conflicts_here >= conflict_budget then begin
                cancel_until s 0;
                continue_inner := false
              end
              else begin
                if
                  float_of_int (Vec.length s.learnts)
                  >= s.max_learnts +. float_of_int (Vec.length s.trail)
                then begin
                  reduce_db s;
                  s.max_learnts <- s.max_learnts *. 1.1
                end;
                (* decide: assumptions first *)
                let decided = ref false in
                while (not !decided) && decision_level s < Array.length assumptions do
                  let p = assumptions.(decision_level s) in
                  let v = value_lit s p in
                  if v > 0 then new_decision_level s (* already true: dummy level *)
                  else if v < 0 then raise (Answered Unsat)
                  else begin
                    new_decision_level s;
                    s.decisions <- s.decisions + 1;
                    enqueue s p (-1);
                    decided := true
                  end
                done;
                if not !decided then begin
                  (* pick a branching variable *)
                  let rec pick () =
                    if Vec.length s.heap = 0 then -1
                    else
                      let v = heap_pop s in
                      if s.assign.(v) = 0 then v else pick ()
                  in
                  let v = pick () in
                  if v < 0 then raise (Answered Sat)
                  else begin
                    s.decisions <- s.decisions + 1;
                    new_decision_level s;
                    enqueue s (Lit.of_var ~negated:(not s.polarity.(v)) v) (-1)
                  end
                end
              end
            end
          done
        done;
        assert false
      with Answered r -> r
    in
    (match result with
    | Sat -> () (* model read before next cancel *)
    | Unsat | Unknown -> cancel_until s 0);
    result
  end

(** Model value of a variable after a [Sat] answer: [true]/[false]; unassigned
    pure variables default to [false]. *)
let model_value s v = s.assign.(v) > 0

let model_lit s l = value_lit s l > 0

(** Reset the trail to level 0 (e.g. before adding clauses after a Sat). *)
let backtrack_to_root s = cancel_until s 0
