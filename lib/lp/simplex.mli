(** Two-phase bounded-variable revised primal simplex, with a dual
    simplex for warm restarts after right-hand-side changes.

    The basis is held LU-factorized ([Sparse.Basis]) and advanced by
    product-form eta updates; this is the only LP engine in production
    (the frozen dense-inverse solver [Simplex_dense] is a test and
    [flexile doctor] oracle).  It produces dual
    certificates: row duals, reduced costs, and a parametric lower
    bound usable as a Benders cut when only the RHS varies (the
    reformulation (17)–(18) of the paper).

    Numerical health: every refactorization and every extraction feeds
    the [Health] observatory (residuals, condition estimate, stall
    detection — DESIGN.md section 15); [solve_doctor] and
    [diagnose_basis] run the same machinery with the in-memory timeline
    captured for [flexile doctor]. *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  obj : float;  (** objective value; meaningful when [status = Optimal] *)
  x : float array;  (** primal values of the structural variables *)
  row_duals : float array;
      (** y with [obj = y.b + bound_term] at optimality; the marginal
          change of the optimum per unit of RHS on each row *)
  reduced_costs : float array;  (** structural reduced costs *)
  bound_term : float;
      (** sum over nonbasic variables of (reduced cost * bound value);
          constant part of the dual objective *)
  iterations : int;
}

val dual_bound : solution -> rhs:float array -> float
(** [dual_bound sol ~rhs] is a valid lower bound on the optimal value of
    the same LP with its right-hand side replaced by [rhs] (weak duality:
    the recorded dual solution stays feasible when only the RHS moves).
    Exact when [rhs] is the original RHS. *)

(** {1 One-shot interface} *)

val solve : ?iter_limit:int -> Lp_model.t -> solution
(** Solve from a cold (slack) basis.  [iter_limit] defaults to
    [50_000 + 50 * (nvars + nrows)]. *)

(** {1 Warm-restart interface}

    A [t] captures the model structure (columns, bounds, costs) at
    creation time; [resolve_rhs] then re-optimizes for a new RHS with
    the dual simplex starting from the previous optimal basis, and
    [extend] keeps the basis when rows are appended.  {!Row_gen}'s
    cutting-plane loop is the production caller; scenario LPs are
    always cold-solved with {!solve}, which measured far faster here
    than dual restarts between dissimilar scenarios. *)

type t

val make : ?eta_limit:int -> Lp_model.t -> t
(** [eta_limit] caps the eta file between refactorizations (default:
    the [Sparse.Basis] cap); tests use a short file to force frequent
    refactorization.  {!extend} keeps the cap. *)

val solve_warm : ?iter_limit:int -> t -> solution
(** First solve (cold).  Subsequent calls re-solve for the model's
    current RHS reusing the last basis. *)

val resolve_rhs : ?iter_limit:int -> t -> float array -> solution
(** [resolve_rhs t rhs] re-optimizes with row right-hand sides [rhs]
    (length [nrows]), starting the dual simplex from the last optimal
    basis.  Falls back to a cold primal solve if the basis is unusable. *)

val extend : t -> Lp_model.t -> t
(** [extend t model] builds a new solver state for [model], which must
    be the same model [t] was created from with extra rows appended
    (same variables).  The previous optimal basis is reused with the
    new rows' slacks basic — a dual-feasible starting point, so the
    next [solve_warm]/[resolve_rhs] continues with the dual simplex
    instead of solving from scratch (the classic cutting-plane warm
    start). *)

(** {1 Health observatory}

    Phase tags in health samples and stall notes: 0 setup, 1 phase-1
    primal, 2 phase-2 primal, 3 dual (warm restart). *)

val solve_doctor :
  ?iter_limit:int ->
  ?eta_limit:int ->
  ?thresholds:Health.thresholds ->
  Lp_model.t ->
  solution * Health.state
(** Cold-solve [model] with the health timeline captured in memory
    (every refactorization, stall and loop sampled) — the elevated
    instrumentation [flexile doctor] replays under.  [eta_limit]
    overrides the default eta-file cap and is recorded in any health
    dump, letting a replay reproduce the original refactorization
    cadence. *)

val diagnose_basis :
  ?eta_limit:int ->
  ?thresholds:Health.thresholds ->
  ?phase:int ->
  ?iteration:int ->
  Lp_model.t ->
  bas:int array ->
  vstat:int array ->
  Health.state
(** Factorize and measure one recorded basis of [model] (as captured in
    a health dump: [bas] is the basic variable per position, [vstat]
    the per-variable status codes over structural+slack+artificial
    columns) without running any pivots.  The returned state holds one
    sample describing that basis. *)
