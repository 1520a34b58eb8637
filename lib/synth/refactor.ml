(** Cut-based AIG refactoring (the ABC [refactor]/[rewrite] family).

    For every live AND node, a reconvergence-driven cut of at most [cut_size]
    leaves is grown, the cone's truth table is computed, and an ISOP rebuild
    is costed against the cone's maximum fanout-free region.  Beneficial
    replacements are recorded and a fresh structurally hashed AIG is rebuilt
    from the outputs, realising the gains (plus any sharing strash finds). *)

type replacement = { leaves : int array (* node ids *); cubes : Isop.cube list }

(* Per-pass scratch indexed by node id.  A mark array holds the id of the
   root whose cut (or cone, memo, ref count) last touched the node, so
   nothing is cleared between roots. *)
type scratch = {
  leaves : int array;  (** the current cut, in insertion order *)
  leaf_mark : int array;
  cone_mark : int array;
  memo_mark : int array;
  memo : int array;  (** offset of the node's truth table in [tables] *)
  mutable tables : int array;  (** the current cone's truth tables *)
  ref_mark : int array;
  local_refs : int array;
  vars : Truth.t array array;  (** [vars.(n).(i)] = [Truth.var n i] *)
}

let scratch (aig : Aig.t) ~cut_size =
  let n = Aig.num_nodes aig and max_leaves = max 2 cut_size in
  {
    leaves = Array.make max_leaves 0;
    leaf_mark = Array.make n 0;
    cone_mark = Array.make n 0;
    memo_mark = Array.make n 0;
    memo = Array.make n 0;
    tables = [||];
    ref_mark = Array.make n 0;
    local_refs = Array.make n 0;
    vars = Array.init (max_leaves + 1) (fun k -> Array.init k (Truth.var k));
  }

(* Grows [root]'s cut into [sc.leaves] and returns its size.  Expansion
   replaces an AND leaf by its fanins; the candidate adding the fewest new
   leaves wins (reconvergence first), ties going to the newest leaf.  Leaf
   order is the truth-table variable order. *)
let grow_cut (aig : Aig.t) sc root ~cut_size =
  let leaves = sc.leaves and mark = sc.leaf_mark in
  let n = ref 0 in
  let add l =
    if mark.(l) <> root then begin
      mark.(l) <- root;
      leaves.(!n) <- l;
      incr n
    end
  in
  let fanin0 l = Aig.node_of_lit (Aig.fanin0 aig l)
  and fanin1 l = Aig.node_of_lit (Aig.fanin1 aig l) in
  add (fanin0 root);
  add (fanin1 root);
  let expansions = ref 0 in
  let continue_ = ref true in
  while !continue_ && !expansions < 200 do
    let best = ref (-1) and best_added = ref max_int in
    for j = !n - 1 downto 0 do
      let l = leaves.(j) in
      if Aig.is_and aig l then begin
        let f0 = fanin0 l and f1 = fanin1 l in
        let added =
          (if mark.(f0) = root then 0 else 1)
          + if mark.(f1) = root || f1 = f0 then 0 else 1
        in
        if !n - 1 + added <= cut_size && added < !best_added then begin
          best := j;
          best_added := added
        end
      end
    done;
    if !best < 0 then continue_ := false
    else begin
      incr expansions;
      let l = leaves.(!best) in
      mark.(l) <- 0;
      Array.blit leaves (!best + 1) leaves !best (!n - !best - 1);
      decr n;
      add (fanin0 l);
      add (fanin1 l)
    end
  done;
  !n

(* marks the AND nodes strictly inside the cone (root included, leaves
   excluded) and returns their number *)
let cone_size (aig : Aig.t) sc root =
  let count = ref 0 in
  let rec visit n =
    if sc.cone_mark.(n) <> root && sc.leaf_mark.(n) <> root && Aig.is_and aig n
    then begin
      sc.cone_mark.(n) <- root;
      incr count;
      visit (Aig.node_of_lit (Aig.fanin0 aig n));
      visit (Aig.node_of_lit (Aig.fanin1 aig n))
    end
  in
  visit root;
  !count

(* truth table of [root] over the [nvars] leaves of its cut, whose cone
   holds [cone] AND nodes; every table is built in place in [sc.tables] *)
let cone_truth (aig : Aig.t) sc root ~cone nvars =
  let w = Truth.num_words nvars and m = Truth.last_mask nvars in
  if Array.length sc.tables < (cone + nvars) * w then
    sc.tables <- Array.make ((cone + nvars) * w) 0;
  let t = sc.tables and top = ref 0 in
  let fresh () =
    let o = !top in
    top := o + w;
    o
  in
  for i = 0 to nvars - 1 do
    let l = sc.leaves.(i) and o = fresh () in
    Array.blit sc.vars.(nvars).(i).Truth.words 0 t o w;
    sc.memo_mark.(l) <- root;
    sc.memo.(l) <- o
  done;
  (* below the root every node is a leaf or an AND of the cone, since a
     cut only ever expands AND leaves *)
  let rec eval n =
    if sc.memo_mark.(n) = root then sc.memo.(n)
    else begin
      let l0 = Aig.fanin0 aig n and l1 = Aig.fanin1 aig n in
      let o0 = eval (Aig.node_of_lit l0) and o1 = eval (Aig.node_of_lit l1) in
      let c0 = if Aig.is_compl l0 then m else 0
      and c1 = if Aig.is_compl l1 then m else 0 in
      let o = fresh () in
      for k = 0 to w - 1 do
        t.(o + k) <- (t.(o0 + k) lxor c0) land (t.(o1 + k) lxor c1)
      done;
      sc.memo_mark.(n) <- root;
      sc.memo.(n) <- o;
      o
    end
  in
  { Truth.nvars; words = Array.sub t (eval root) w }

(* nodes of the cone freed if the root is re-expressed over the leaves:
   ref-count decrement simulation confined to the cone *)
let freed_nodes (aig : Aig.t) sc refs root =
  let count = ref 0 in
  let rec deref n =
    incr count;
    deref_fanin (Aig.fanin0 aig n);
    deref_fanin (Aig.fanin1 aig n)
  and deref_fanin l =
    let c = Aig.node_of_lit l in
    if Aig.is_and aig c && sc.cone_mark.(c) = root then begin
      let v = (if sc.ref_mark.(c) = root then sc.local_refs.(c) else refs.(c)) - 1 in
      sc.ref_mark.(c) <- root;
      sc.local_refs.(c) <- v;
      if v = 0 then deref c
    end
  in
  deref root;
  !count

(** One refactoring pass.  Returns the rebuilt AIG. *)
let run ?(cut_size = 10) ?(min_cone = 2) (aig : Aig.t) : Aig.t =
  let refs = Aig.ref_counts aig in
  let sc = scratch aig ~cut_size in
  let replacements : (int, replacement) Hashtbl.t = Hashtbl.create 64 in
  for root = Aig.num_pis aig + 1 to Aig.num_nodes aig - 1 do
    if refs.(root) > 0 then begin
      let nleaves = grow_cut aig sc root ~cut_size in
      if nleaves >= 2 && nleaves <= cut_size then begin
        let cone = cone_size aig sc root in
        if cone >= min_cone then begin
          let cubes = Isop.compute (cone_truth aig sc root ~cone nleaves) in
          if Isop.cost cubes < freed_nodes aig sc refs root then
            Hashtbl.replace replacements root
              { leaves = Array.sub sc.leaves 0 nleaves; cubes }
        end
      end
    end
  done;
  (* rebuild demand-driven from the outputs *)
  let fresh = Aig.create ~num_pis:(Aig.num_pis aig) in
  let memo = Array.make (Aig.num_nodes aig) (-1) in
  let rec lit_image l =
    let n = Aig.node_of_lit l in
    let plain = node_image n in
    if Aig.is_compl l then Aig.compl_lit plain else plain
  and node_image n =
    if memo.(n) >= 0 then memo.(n)
    else begin
      let lit =
        if Aig.is_const n then Aig.false_lit
        else if Aig.is_pi aig n then Aig.pi_lit fresh (n - 1)
        else
          match Hashtbl.find_opt replacements n with
          | Some { leaves; cubes } ->
            let leaf_lits = Array.map (fun l -> node_image l) leaves in
            Isop.to_aig fresh leaf_lits cubes
          | None ->
            Aig.and_lit fresh
              (lit_image (Aig.fanin0 aig n))
              (lit_image (Aig.fanin1 aig n))
      in
      memo.(n) <- lit;
      lit
    end
  in
  Aig.set_outputs fresh (Array.map lit_image (Aig.outputs aig));
  fresh
