type t = { len : int; words : int array }

let bits_per_word = Sys.int_size

let words_for len = (len + bits_per_word - 1) / bits_per_word

(* Almost every set a compile makes (a procedure's vregs, blocks or call
   sites) fits one or two words.  Those are built as array literals, which
   the compiler allocates inline on the minor heap; [Array.make] and
   [Array.copy] are C calls that cost more than the whole small set. *)
let create len =
  if len < 0 then invalid_arg "Bitset.create";
  if len <= bits_per_word then { len; words = [| 0 |] }
  else if len <= 2 * bits_per_word then { len; words = [| 0; 0 |] }
  else { len; words = Array.make (words_for len) 0 }

let copy s =
  let w = s.words in
  match Array.length w with
  | 1 -> { len = s.len; words = [| Array.unsafe_get w 0 |] }
  | 2 ->
      {
        len = s.len;
        words = [| Array.unsafe_get w 0; Array.unsafe_get w 1 |];
      }
  | _ -> { len = s.len; words = Array.copy w }

let check s i =
  if i < 0 || i >= s.len then invalid_arg "Bitset: index out of range"

let set s i =
  check s i;
  s.words.(i / bits_per_word) <-
    s.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let clear s i =
  check s i;
  s.words.(i / bits_per_word) <-
    s.words.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let mem s i =
  check s i;
  s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

(* the whole-set operations below are plain loops over closed top-level
   functions: without flambda an [Array.iteri]/[for_all] argument, or a
   local function capturing the words, is a closure allocated per call *)

let rec zero_from w i = i >= Array.length w || (w.(i) = 0 && zero_from w (i + 1))
let is_empty s = zero_from s.words 0

let rec equal_from x y i =
  i >= Array.length x || (x.(i) = y.(i) && equal_from x y (i + 1))

let equal a b = a.len = b.len && equal_from a.words b.words 0

(* branch-free SWAR popcount, split into 32-bit halves so every mask fits
   OCaml's 63-bit immediate integers *)
let popcount32 w =
  let w = w - ((w lsr 1) land 0x55555555) in
  let w = (w land 0x33333333) + ((w lsr 2) land 0x33333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F in
  (* the multiply carries byte sums past bit 31 in 63-bit arithmetic, so
     mask the result down to the one byte that holds the total *)
  ((w * 0x01010101) lsr 24) land 0xFF

let popcount w = popcount32 (w land 0xFFFFFFFF) + popcount32 (w lsr 32)

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let same_len a b =
  if a.len <> b.len then invalid_arg "Bitset: capacity mismatch"

let union_into dst src =
  same_len dst src;
  let d = dst.words and s = src.words in
  for i = 0 to Array.length s - 1 do
    d.(i) <- d.(i) lor s.(i)
  done

let inter_into dst src =
  same_len dst src;
  let d = dst.words and s = src.words in
  for i = 0 to Array.length s - 1 do
    d.(i) <- d.(i) land s.(i)
  done

let diff_into dst src =
  same_len dst src;
  let d = dst.words and s = src.words in
  for i = 0 to Array.length s - 1 do
    d.(i) <- d.(i) land lnot s.(i)
  done

let diff a b = let r = copy a in diff_into r b; r

(* a loop, not [Array.blit]: the liveness solver assigns several sets per
   block visit, and a C call costs more than copying one or two words *)
let assign dst src =
  same_len dst src;
  let d = dst.words and s = src.words in
  for i = 0 to Array.length s - 1 do
    d.(i) <- s.(i)
  done

let clear_all s = Array.fill s.words 0 (Array.length s.words) 0

let set_all s =
  let full = s.len / bits_per_word in
  let rest = s.len mod bits_per_word in
  Array.fill s.words 0 full (-1);
  if rest > 0 then s.words.(full) <- s.words.(full) lor ((1 lsl rest) - 1)

let subset a b =
  same_len a b;
  let n = Array.length a.words in
  let rec go i =
    i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

(* number of trailing zeros of a one-bit word *)
let ntz_pow2 b = popcount (b - 1)

let iter f s =
  for wi = 0 to Array.length s.words - 1 do
    let w = ref s.words.(wi) in
    if !w <> 0 then begin
      let base = wi * bits_per_word in
      while !w <> 0 do
        let b = !w land - !w in
        f (base + ntz_pow2 b);
        w := !w land (!w - 1)
      done
    end
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list len xs =
  let s = create len in
  List.iter (set s) xs;
  s
