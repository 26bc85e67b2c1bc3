(* RFC 6962 hash tree. The tree retains only the 32-byte leaf hashes
   (proofs recompute interior nodes on demand) plus a mountain range of
   perfect-subtree peaks so [append]/[root] never rescan the leaves. *)

let empty_root = Crypto.Sha256.digest ""
let leaf_hash data = Crypto.Sha256.digest ("\x00" ^ data)
let node_hash l r = Crypto.Sha256.digest ("\x01" ^ l ^ r)

type t = {
  mutable leaves : string array; (* leaf hashes, [0, n) *)
  mutable n : int;
  mutable peaks : (int * string) list;
      (* perfect-subtree peaks, rightmost (smallest) first; sizes are
         the strictly increasing powers of two of n's binary form *)
  mutable hashes : int; (* SHA-256 invocations, for the bench *)
}

let create () = { leaves = Array.make 16 ""; n = 0; peaks = []; hashes = 0 }

let hash_count t = t.hashes

let counted_leaf t data =
  t.hashes <- t.hashes + 1;
  leaf_hash data

let counted_node t l r =
  t.hashes <- t.hashes + 1;
  node_hash l r

let append t data =
  if t.n = Array.length t.leaves then begin
    let bigger = Array.make (2 * t.n) "" in
    Array.blit t.leaves 0 bigger 0 t.n;
    t.leaves <- bigger
  end;
  let h = counted_leaf t data in
  t.leaves.(t.n) <- h;
  let idx = t.n in
  t.n <- t.n + 1;
  (* Fold equal-sized peaks: the older peak is the left child. *)
  let rec fold = function
    | (s1, h1) :: (s2, h2) :: rest when s1 = s2 -> fold ((s1 + s2, counted_node t h2 h1) :: rest)
    | peaks -> peaks
  in
  t.peaks <- fold ((1, h) :: t.peaks);
  idx

let root t =
  match t.peaks with
  | [] -> empty_root
  | (_, h) :: rest ->
      (* Bag the peaks right to left; matches MTH's largest-power-of-two
         split because n's binary decomposition is exactly the peaks. *)
      List.fold_left (fun acc (_, p) -> counted_node t p acc) h rest

(* Largest power of two strictly below n (n >= 2). *)
let split_point n =
  let rec go k = if 2 * k < n then go (2 * k) else k in
  go 1

(* MTH over leaves [lo, lo+n). *)
let rec mth t lo n =
  if n = 1 then t.leaves.(lo)
  else
    let k = split_point n in
    counted_node t (mth t lo k) (mth t (lo + k) (n - k))

let root_at t ~size =
  if size < 0 || size > t.n then invalid_arg "Merkle.root_at: size out of range";
  if size = 0 then empty_root else mth t 0 size

let inclusion_proof t ~index ~size =
  if size <= 0 || size > t.n then invalid_arg "Merkle.inclusion_proof: size out of range";
  if index < 0 || index >= size then invalid_arg "Merkle.inclusion_proof: index out of range";
  let rec path lo m n =
    if n = 1 then []
    else
      let k = split_point n in
      if m < k then path lo m k @ [ mth t (lo + k) (n - k) ]
      else path (lo + k) (m - k) (n - k) @ [ mth t lo k ]
  in
  path 0 index size

(* Verification is standalone (RFC 9162, section 2.1.3.2): walk the
   audit path with two cursors, the leaf index and the last index of
   the tree, combining left or right by the cursor's parity. *)
let verify_inclusion ~root ~size ~index ~leaf ~proof =
  if index < 0 || index >= size then false
  else begin
    let fn = ref index and sn = ref (size - 1) in
    let r = ref (leaf_hash leaf) in
    let ok = ref true in
    List.iter
      (fun p ->
        if !sn = 0 then ok := false
        else begin
          if !fn land 1 = 1 || !fn = !sn then begin
            r := node_hash p !r;
            if !fn land 1 = 0 then
              while !fn land 1 = 0 && !fn <> 0 do
                fn := !fn lsr 1;
                sn := !sn lsr 1
              done
          end
          else r := node_hash !r p;
          fn := !fn lsr 1;
          sn := !sn lsr 1
        end)
      proof;
    !ok && !sn = 0 && String.equal !r root
  end

let consistency_proof t ~old_size ~size =
  if size <= 0 || size > t.n then invalid_arg "Merkle.consistency_proof: size out of range";
  if old_size <= 0 || old_size > size then
    invalid_arg "Merkle.consistency_proof: old_size out of range";
  (* RFC 6962 SUBPROOF(m, D[n], b): b marks that the m-leaf subtree is a
     complete node of the old tree already known to the verifier. *)
  let rec subproof lo m n b =
    if m = n then if b then [] else [ mth t lo n ]
    else
      let k = split_point n in
      if m <= k then subproof lo m k b @ [ mth t (lo + k) (n - k) ]
      else subproof (lo + k) (m - k) (n - k) false @ [ mth t lo k ]
  in
  if old_size = size then [] else subproof 0 old_size size true

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* RFC 9162, section 2.1.4.2. *)
let verify_consistency ~old_root ~old_size ~root ~size ~proof =
  if old_size <= 0 || old_size > size then false
  else if old_size = size then proof = [] && String.equal old_root root
  else
    let proof = if is_pow2 old_size then old_root :: proof else proof in
    match proof with
    | [] -> false
    | first :: rest ->
        let fn = ref (old_size - 1) and sn = ref (size - 1) in
        while !fn land 1 = 1 do
          fn := !fn lsr 1;
          sn := !sn lsr 1
        done;
        let fr = ref first and sr = ref first in
        let ok = ref true in
        List.iter
          (fun c ->
            if !sn = 0 then ok := false
            else begin
              if !fn land 1 = 1 || !fn = !sn then begin
                fr := node_hash c !fr;
                sr := node_hash c !sr;
                if !fn land 1 = 0 then
                  while !fn land 1 = 0 && !fn <> 0 do
                    fn := !fn lsr 1;
                    sn := !sn lsr 1
                  done
              end
              else sr := node_hash !sr c;
              fn := !fn lsr 1;
              sn := !sn lsr 1
            end)
          rest;
        !ok && !sn = 0 && String.equal !fr old_root && String.equal !sr root
