(** Truth tables over up to [max_vars] = 16 variables, packed 32 bits per
    native [int] word, so no word is ever boxed.  Bit [p] of the table is
    the function value on the input pattern whose variable [i] equals bit
    [i] of [p]; it lives in bit [p land 31] of word [p lsr 5].  Tables of
    at most 5 variables fit in one word, whose bits above [2^nvars] are 0. *)

type t = { nvars : int; words : int array }

let max_vars = 16

let num_words nvars = if nvars <= 5 then 1 else 1 lsl (nvars - 5)

(** The low [2^w] bits of a word, for [w <= 5]. *)
let mask w = (1 lsl (1 lsl w)) - 1

let full_word = mask 5

(* the classic within-word variable masks *)
let var_masks = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

(** [lo_masks.(i)]: the bit positions whose variable [i] is 0. *)
let lo_masks = Array.map (fun m -> m lxor full_word) var_masks

let last_mask nvars = if nvars < 5 then mask nvars else full_word

let make nvars fill =
  if nvars < 0 || nvars > max_vars then invalid_arg "Truth.make";
  { nvars; words = Array.make (num_words nvars) (fill land last_mask nvars) }

let zero nvars = make nvars 0
let ones nvars = make nvars full_word

(** The table whose 64-bit words (word [k] holding patterns [64k..64k+63])
    are [w]; bits beyond [2^nvars] are dropped. *)
let of_int64_words nvars (w : int64 array) =
  let t = zero nvars in
  Array.iteri
    (fun k _ ->
      let x = w.(k lsr 1) in
      let x = if k land 1 = 0 then x else Int64.shift_right_logical x 32 in
      t.words.(k) <- Int64.to_int x land last_mask nvars)
    t.words;
  t

(** Truth table of variable [i]. *)
let var nvars i =
  if i < 0 || i >= nvars then invalid_arg "Truth.var";
  if i < 5 then make nvars var_masks.(i)
  else begin
    let t = zero nvars in
    let stride = 1 lsl (i - 5) in
    Array.iteri
      (fun k _ -> if k land stride <> 0 then t.words.(k) <- full_word)
      t.words;
    t
  end

let map2 f a b =
  if a.nvars <> b.nvars then invalid_arg "Truth.map2";
  { nvars = a.nvars; words = Array.map2 f a.words b.words }

let logand = map2 ( land )
let logor = map2 ( lor )
let logxor = map2 ( lxor )

let lognot a =
  let m = last_mask a.nvars in
  { nvars = a.nvars; words = Array.map (fun w -> w lxor m) a.words }

let equal a b = a.nvars = b.nvars && a.words = b.words
let is_zero a = Array.for_all (fun w -> w = 0) a.words
let is_ones a = Array.for_all (fun w -> w = last_mask a.nvars) a.words

(* [cofactor a i ~hi]: variable [i] forced to [hi], over the same variables *)
let cofactor a i ~hi =
  if i < 5 then begin
    let sh = 1 lsl i in
    let keep w = if hi then (w lsr sh) land lo_masks.(i) else w land lo_masks.(i) in
    { a with words = Array.map (fun w -> let c = keep w in c lor (c lsl sh)) a.words }
  end
  else begin
    let stride = 1 lsl (i - 5) in
    let src k = if hi then k lor stride else k land lnot stride in
    { a with words = Array.init (Array.length a.words) (fun k -> a.words.(src k)) }
  end

(** Positive cofactor: the function with variable [i] forced to 1, expressed
    over the same variable set (result no longer depends on [i]). *)
let cofactor1 a i = cofactor a i ~hi:true

(** Negative cofactor: variable [i] forced to 0. *)
let cofactor0 a i = cofactor a i ~hi:false

(** Does [w], a table of width at least [i + 1] in one word, depend on
    variable [i < 5]? *)
let word_depends w i = (w lxor (w lsr (1 lsl i))) land lo_masks.(i) <> 0

let rec any_word_depends a off n i k =
  k < n && (word_depends a.(off + k) i || any_word_depends a off n i (k + 1))

(* do the [stride]-word blocks at [k] and [k + stride] differ, for any [k]
   below [n] whose [stride] bit is clear? *)
let rec blocks_differ a off n stride k =
  k < n
  && (a.(off + k) <> a.(off + k + stride)
     || blocks_differ a off n stride
          (if (k + 1) land stride = 0 then k + 1 else k + 1 + stride))

(** Does the [2^(w-5)]-word table of width [w >= 5] stored at [a.(off)]
    depend on variable [i]?  Compared in place, allocating nothing. *)
let slice_depends (a : int array) off w i =
  let n = 1 lsl (w - 5) in
  if i < 5 then any_word_depends a off n i 0
  else blocks_differ a off n (1 lsl (i - 5)) 0

(** Does the function depend on variable [i]? *)
let depends_on a i =
  if i < 0 then invalid_arg "Truth.depends_on";
  i < a.nvars
  && if a.nvars <= 5 then word_depends a.words.(0) i
     else slice_depends a.words 0 a.nvars i

let popcount a =
  let pc x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0F0F0F0F in
    ((x * 0x01010101) lsr 24) land 0xFF
  in
  Array.fold_left (fun acc w -> acc + pc w) 0 a.words

let get a p = (a.words.(p lsr 5) lsr (p land 31)) land 1 = 1
