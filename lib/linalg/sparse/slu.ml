(* Left-looking sparse LU with threshold partial pivoting
   (Gilbert-Peierls; the organization and the pivot rule follow
   CSparse's cs_lu).

   L is built column by column with *original* row indices and a unit
   diagonal stored explicitly as each column's first entry; pinv maps a
   (permuted) row to its pivot step (-1 while not yet pivotal).  Solving
   L x = A(:,k) only touches the entries reachable from A(:,k)'s pattern
   in L's graph, found by DFS in topological order.

   The numeric core works on a column-major view obtained by
   transposing the (symmetrically permuted) CSR input — an O(nnz)
   counting pass, cheap next to the factorization itself.  Failures are
   typed: a zero pivot (or the armed ["sparse.singular_pivot"] fault
   site) comes back as [Mfti_error.Numerical_breakdown]. *)

open Linalg

exception Singular of int

(* Threshold pivoting with diagonal preference: step k keeps the
   ordered diagonal row k when it is not yet pivotal and
   |x_k| >= pivot_tol * max |x_i| over the non-pivotal rows; otherwise
   it takes the largest modulus.  1e-3 is UMFPACK's default symmetric
   pivot tolerance; 1 would be strict partial pivoting.  Larger values
   let the near-zero branch-current diagonals of RL pencils at low
   frequency swap rows out of the fill-reducing order (0.1 still
   fills a 20x20 RL plane 54x at 1 MHz, against 3x here). *)
let pivot_tol = 1e-3
let pivot_tol2 = pivot_tol *. pivot_tol

(* growable parallel arrays for the factors *)
type growbuf = {
  mutable idx : int array;
  mutable re : float array;
  mutable im : float array;
  mutable len : int;
}

let growbuf_make n =
  { idx = Array.make (Stdlib.max n 16) 0;
    re = Array.make (Stdlib.max n 16) 0.;
    im = Array.make (Stdlib.max n 16) 0.;
    len = 0 }

let growbuf_push g i vre vim =
  if g.len = Array.length g.idx then begin
    let cap = 2 * g.len in
    let idx = Array.make cap 0 in
    let re = Array.make cap 0. and im = Array.make cap 0. in
    Array.blit g.idx 0 idx 0 g.len;
    Array.blit g.re 0 re 0 g.len;
    Array.blit g.im 0 im 0 g.len;
    g.idx <- idx;
    g.re <- re;
    g.im <- im
  end;
  g.idx.(g.len) <- i;
  g.re.(g.len) <- vre;
  g.im.(g.len) <- vim;
  g.len <- g.len + 1

type ordering = [ `Natural | `Rcm | `Amd ]

type factor = {
  n : int;
  lp : int array;       (* n+1 column pointers into l *)
  l : growbuf;          (* row indices in PIVOT order after finalization *)
  up : int array;
  u : growbuf;          (* row indices are pivot steps, as emitted *)
  pinv : int array;     (* (permuted) row -> pivot step *)
  sym_perm : int array option;  (* new_position -> original index *)
}

(* [acolptr/arowind/are/aim] is a column-major (CSC) view of the
   already-permuted matrix *)
let factorize_core n acolptr arowind are aim =
  let l = growbuf_make (4 * acolptr.(n)) in
  let u = growbuf_make (4 * acolptr.(n)) in
  let lp = Array.make (n + 1) 0 in
  let up = Array.make (n + 1) 0 in
  let pinv = Array.make n (-1) in
  let xre = Array.make n 0. and xim = Array.make n 0. in
  let marked = Array.make n false in
  let xi = Array.make n 0 in         (* reach, xi[top..n-1] in toporder *)
  let stack = Array.make n 0 in
  let pstack = Array.make n 0 in
  for k = 0 to n - 1 do
    lp.(k) <- l.len;
    up.(k) <- u.len;
    (* --- symbolic: reach of A(:,k) through L --- *)
    let top = ref n in
    let dfs start =
      let head = ref 0 in
      stack.(0) <- start;
      while !head >= 0 do
        let j = stack.(!head) in
        let jnew = pinv.(j) in
        if not marked.(j) then begin
          marked.(j) <- true;
          (* skip the unit diagonal (first entry of column jnew) *)
          pstack.(!head) <- (if jnew < 0 then 0 else lp.(jnew) + 1)
        end;
        let p_end = if jnew < 0 then 0 else lp.(jnew + 1) in
        let advanced = ref false in
        let p = ref pstack.(!head) in
        while (not !advanced) && !p < p_end do
          let i = l.idx.(!p) in
          incr p;
          if not marked.(i) then begin
            pstack.(!head) <- !p;
            incr head;
            stack.(!head) <- i;
            advanced := true
          end
        done;
        if not !advanced then begin
          (* postorder: all descendants done *)
          decr head;
          decr top;
          xi.(!top) <- j
        end
      done
    in
    for p = acolptr.(k) to acolptr.(k + 1) - 1 do
      let i = arowind.(p) in
      if not marked.(i) then dfs i
    done;
    (* --- numeric: x = L \ A(:,k) on the reach --- *)
    for p = !top to n - 1 do
      xre.(xi.(p)) <- 0.;
      xim.(xi.(p)) <- 0.
    done;
    for p = acolptr.(k) to acolptr.(k + 1) - 1 do
      xre.(arowind.(p)) <- are.(p);
      xim.(arowind.(p)) <- aim.(p)
    done;
    for px = !top to n - 1 do
      let j = xi.(px) in
      let jnew = pinv.(j) in
      if jnew >= 0 then begin
        (* unit diagonal: x[j] is final; eliminate below *)
        let xjr = xre.(j) and xji = xim.(j) in
        if xjr <> 0. || xji <> 0. then
          for p = lp.(jnew) + 1 to lp.(jnew + 1) - 1 do
            let i = l.idx.(p) in
            let lr = l.re.(p) and li = l.im.(p) in
            xre.(i) <- xre.(i) -. (lr *. xjr) +. (li *. xji);
            xim.(i) <- xim.(i) -. (lr *. xji) -. (li *. xjr)
          done
      end
    done;
    (* --- pivot: largest modulus among non-pivotal rows, unless the
       diagonal clears the threshold (squared moduli throughout) --- *)
    let ipiv = ref (-1) and best = ref 0. in
    for p = !top to n - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 then begin
        let mag = (xre.(i) *. xre.(i)) +. (xim.(i) *. xim.(i)) in
        if mag > !best then begin
          best := mag;
          ipiv := i
        end
      end
      else
        (* finished U entry for pivotal row *)
        growbuf_push u pinv.(i) xre.(i) xim.(i)
    done;
    if !ipiv < 0 || !best = 0. then raise (Singular k);
    let ipiv =
      if pinv.(k) < 0
         && (xre.(k) *. xre.(k)) +. (xim.(k) *. xim.(k)) >= pivot_tol2 *. !best
      then k
      else !ipiv
    in
    pinv.(ipiv) <- k;
    (* pivot onto U's diagonal *)
    growbuf_push u k xre.(ipiv) xim.(ipiv);
    let pr = xre.(ipiv) and pi = xim.(ipiv) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    (* L column: unit diagonal first, then scaled subdiagonal entries *)
    growbuf_push l ipiv 1. 0.;
    for p = !top to n - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 && (xre.(i) <> 0. || xim.(i) <> 0.) then begin
        (* x_i / pivot *)
        let vr = ((xre.(i) *. pr) +. (xim.(i) *. pi)) /. pmag in
        let vi = ((xim.(i) *. pr) -. (xre.(i) *. pi)) /. pmag in
        growbuf_push l i vr vi
      end
    done;
    (* clear marks and x *)
    for p = !top to n - 1 do
      marked.(xi.(p)) <- false;
      xre.(xi.(p)) <- 0.;
      xim.(xi.(p)) <- 0.
    done
  done;
  lp.(n) <- l.len;
  up.(n) <- u.len;
  (* convert L's row indices to pivot order *)
  for p = 0 to l.len - 1 do
    l.idx.(p) <- pinv.(l.idx.(p))
  done;
  (lp, l, up, u, pinv)

let singular ?(injected = false) k =
  Mfti_error.Numerical_breakdown
    { context = "sparse.lu";
      message =
        Printf.sprintf "%szero pivot at elimination step %d"
          (if injected then "injected " else "")
          k;
      condition = None }

let bad_perm msg =
  Mfti_error.Validation { context = "sparse.lu"; message = msg }

let factorize ?(ordering = `Amd) ?perm (a : Scsr.t) =
  let n, n' = Scsr.dims a in
  if n <> n' then Error (bad_perm "matrix not square")
  else if Fault.armed "sparse.singular_pivot" then
    Error (singular ~injected:true 0)
  else begin
    let perm_ok =
      match perm with
      | Some p ->
        if Array.length p <> n then Error (bad_perm "bad permutation length")
        else begin
          let seen = Array.make n false in
          let ok = ref true in
          Array.iter
            (fun old ->
              if old < 0 || old >= n || seen.(old) then ok := false
              else seen.(old) <- true)
            p;
          if !ok then Ok (Some p) else Error (bad_perm "not a permutation")
        end
      | None ->
        Ok
          (match ordering with
           | `Natural -> None
           | `Rcm -> Some (Ordering.rcm a)
           | `Amd -> Some (Ordering.amd a))
    in
    match perm_ok with
    | Error e -> Error e
    | Ok perm ->
      let ap = match perm with None -> a | Some p -> Scsr.permute a ~perm:p in
      let at = Scsr.transpose ap in
      (match
         factorize_core n at.Scsr.rowptr at.Scsr.colind at.Scsr.re at.Scsr.im
       with
       | exception Singular k -> Error (singular k)
       | lp, l, up, u, pinv -> Ok { n; lp; l; up; u; pinv; sym_perm = perm })
  end

let factorize_exn ?ordering ?perm a =
  match factorize ?ordering ?perm a with
  | Ok f -> f
  | Error e -> Mfti_error.raise_error e

let solve f b =
  if Cmat.rows b <> f.n then invalid_arg "Slu.solve: dimension mismatch";
  let nrhs = Cmat.cols b in
  (* with a symmetric ordering, solve A' x' = b' where b'_i = b_{perm i}
     and x_{perm i} = x'_i *)
  let b =
    match f.sym_perm with
    | None -> b
    | Some perm -> Cmat.select_rows b perm
  in
  let x = Cmat.zeros f.n nrhs in
  let xr = Cmat.unsafe_re x and xi_ = Cmat.unsafe_im x in
  let br = Cmat.unsafe_re b and bi = Cmat.unsafe_im b in
  for jcol = 0 to nrhs - 1 do
    let off = jcol * f.n in
    (* permute: y = P b (row i of b goes to position pinv[i]) *)
    for i = 0 to f.n - 1 do
      xr.(off + f.pinv.(i)) <- br.(off + i);
      xi_.(off + f.pinv.(i)) <- bi.(off + i)
    done;
    (* forward: L y = Pb, unit diagonal; columns in pivot order *)
    for k = 0 to f.n - 1 do
      let yr = xr.(off + k) and yi = xi_.(off + k) in
      if yr <> 0. || yi <> 0. then
        for p = f.lp.(k) + 1 to f.lp.(k + 1) - 1 do
          let i = f.l.idx.(p) in
          let lr = f.l.re.(p) and li = f.l.im.(p) in
          xr.(off + i) <- xr.(off + i) -. (lr *. yr) +. (li *. yi);
          xi_.(off + i) <- xi_.(off + i) -. (lr *. yi) -. (li *. yr)
        done
    done;
    (* backward: U x = y; column k of U ends with its diagonal *)
    for k = f.n - 1 downto 0 do
      let dpos = f.up.(k + 1) - 1 in
      let ur = f.u.re.(dpos) and ui = f.u.im.(dpos) in
      let umag = (ur *. ur) +. (ui *. ui) in
      let yr = xr.(off + k) and yi = xi_.(off + k) in
      let sr = ((yr *. ur) +. (yi *. ui)) /. umag in
      let si = ((yi *. ur) -. (yr *. ui)) /. umag in
      xr.(off + k) <- sr;
      xi_.(off + k) <- si;
      if sr <> 0. || si <> 0. then
        for p = f.up.(k) to dpos - 1 do
          let i = f.u.idx.(p) in
          let ar = f.u.re.(p) and ai = f.u.im.(p) in
          xr.(off + i) <- xr.(off + i) -. (ar *. sr) +. (ai *. si);
          xi_.(off + i) <- xi_.(off + i) -. (ar *. si) -. (ai *. sr)
        done
    done
  done;
  match f.sym_perm with
  | None -> x
  | Some perm ->
    let out = Cmat.zeros f.n nrhs in
    let outr = Cmat.unsafe_re out and outi = Cmat.unsafe_im out in
    for jcol = 0 to nrhs - 1 do
      let off = jcol * f.n in
      for i = 0 to f.n - 1 do
        outr.(off + perm.(i)) <- xr.(off + i);
        outi.(off + perm.(i)) <- xi_.(off + i)
      done
    done;
    out

let fill f = f.l.len + f.u.len
let order f = f.sym_perm
let size f = f.n
