(** Sparse LU with threshold partial pivoting and fill-reducing
    ordering.

    A left-looking Gilbert–Peierls factorization of a square complex
    CSR matrix.  A symmetric fill-reducing permutation is applied
    first — approximate minimum degree by default.  Pivoting is the
    threshold rule with diagonal preference of CSparse's [cs_lu] and
    UMFPACK's symmetric strategy: step [k] keeps the ordered diagonal
    row [k] when it is not yet pivotal and
    [|x_k| >= 1e-3 * max |x_i|] over the non-pivotal rows, and
    otherwise takes the largest modulus (a zero diagonal always falls
    through).  The tolerance is UMFPACK's default and fixed; a
    tolerance of 1 would be strict partial pivoting, which on RL
    pencils at low frequency swaps the near-zero branch-current rows
    out of the AMD order: the 20x20 RL plane (1164 states) filled 51x
    its nnz at 1e5 Hz under it, against 2.9x under the threshold rule,
    and the 40x40 plane (4724 states) factors in 0.02 s at 3.6x
    instead of 12–14 s at 282x.

    Failures are typed through {!Linalg.Mfti_error}: a zero pivot (or
    the armed ["sparse.singular_pivot"] fault site) is
    [Numerical_breakdown]; a malformed permutation is [Validation].
    An AMD-internal failure never fails the factorization — it
    degrades to the natural order and records
    ["sparse.ordering_degrade"] in {!Linalg.Diag}. *)

type ordering = [ `Natural | `Rcm | `Amd ]

type factor

(** [factorize ?ordering ?perm a] factors square [a].  [perm]
    short-circuits the ordering computation with a precomputed
    symmetric permutation ([perm.(new) = old]) — pass the
    {!Ordering.amd} of the pattern once and reuse it across a
    frequency sweep, since [Scsr.scale_add] keeps the pattern stable.
    Default [ordering] is [`Amd]. *)
val factorize :
  ?ordering:ordering -> ?perm:int array -> Scsr.t ->
  (factor, Linalg.Mfti_error.t) result

(** Raising form: wraps the error in {!Linalg.Mfti_error.Error}. *)
val factorize_exn : ?ordering:ordering -> ?perm:int array -> Scsr.t -> factor

(** [solve f b] solves [a x = b] for one or more dense right-hand-side
    columns. *)
val solve : factor -> Linalg.Cmat.t -> Linalg.Cmat.t

(** Stored entries in [L] plus [U] — the fill the ordering is trying
    to keep down. *)
val fill : factor -> int

(** The symmetric permutation that was applied, if any. *)
val order : factor -> int array option

val size : factor -> int
