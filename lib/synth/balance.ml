(** Delay-oriented AND-tree balancing (the ABC [balance] pass).

    Multi-input conjunctions are collected by flattening non-complemented
    AND edges into single-fanout children, then rebuilt as trees that pair
    shallow operands first, minimising the resulting level. *)

let run (aig : Aig.t) : Aig.t =
  let refs = Aig.ref_counts aig in
  let fresh = Aig.create ~num_pis:(Aig.num_pis aig) in
  let memo = Array.make (Aig.num_nodes aig) (-1) in
  (* levels of the fresh AIG, maintained incrementally as nodes appear;
     0 for const and PIs, and for AND nodes not yet given one *)
  let lev = ref (Array.make (Aig.num_nodes aig) 0) in
  let level_of l =
    let n = Aig.node_of_lit l in
    if n < Array.length !lev then !lev.(n) else 0
  in
  let mk_and a b =
    let l = Aig.and_lit fresh a b in
    let n = Aig.node_of_lit l in
    if Aig.is_and fresh n && level_of l = 0 then begin
      if n >= Array.length !lev then begin
        let grown = Array.make (2 * (n + 1)) 0 in
        Array.blit !lev 0 grown 0 (Array.length !lev);
        lev := grown
      end;
      !lev.(n) <- 1 + max (level_of a) (level_of b)
    end;
    l
  in
  let rec lit_image l =
    let plain = node_image (Aig.node_of_lit l) in
    if Aig.is_compl l then Aig.compl_lit plain else plain
  and node_image n =
    if memo.(n) >= 0 then memo.(n)
    else begin
      let lit =
        if Aig.is_const n then Aig.false_lit
        else if Aig.is_pi aig n then Aig.pi_lit fresh (n - 1)
        else begin
          (* collect the flattened conjunction rooted at n *)
          let operands = ref [] in
          let rec collect l =
            let c = Aig.node_of_lit l in
            if
              (not (Aig.is_compl l))
              && Aig.is_and aig c
              && (refs.(c) <= 1 || c = n)
            then begin
              collect (Aig.fanin0 aig c);
              collect (Aig.fanin1 aig c)
            end
            else operands := l :: !operands
          in
          collect (Aig.fanin0 aig n);
          collect (Aig.fanin1 aig n);
          let imgs = List.map lit_image !operands in
          (* repeatedly combine the two shallowest operands *)
          let rec build xs =
            match List.sort (fun a b -> compare (level_of a) (level_of b)) xs with
            | [] -> Aig.true_lit
            | [ x ] -> x
            | a :: b :: rest -> build (mk_and a b :: rest)
          in
          build imgs
        end
      in
      memo.(n) <- lit;
      lit
    end
  in
  Aig.set_outputs fresh (Array.map lit_image (Aig.outputs aig));
  fresh
