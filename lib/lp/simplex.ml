(* Two-phase bounded-variable revised primal simplex + dual simplex.

   Computational form: the model's rows are turned into equalities
   [A x + s = b] by adding one slack per row (coefficient +1) whose
   bounds encode the row sense:
     Le -> s in [0, +inf)    Ge -> s in (-inf, 0]    Eq -> s in [0, 0]
   One artificial column per row (also coefficient +1, so the basis
   matrix is unchanged when an artificial replaces its slack) supports
   the phase-1 start; artificials are fixed to [0,0] in phase 2.

   Variable layout: [0, n) structural, [n, n+m) slacks,
   [n+m, n+2m) artificials.

   The basis is held LU-factorized ([Sparse.Basis]: Markowitz-ordered
   factorization, threshold partial pivoting) and advanced by
   product-form eta updates per pivot; FTRAN/BTRAN run through the
   factors, and refactorization is triggered by the eta-file length or
   a too-small eta pivot.  Pricing is devex with partial pricing over
   static candidate sections, falling back to Bland's rule under
   degeneracy.  The frozen pre-sparse solver survives as
   [Simplex_dense], a cold-solve oracle the differential tests and
   [flexile doctor] compare this module against. *)

let feas_tol = 1e-7
let opt_tol = 1e-7
let pivot_tol = 1e-9
let degen_threshold = 120
let src = Logs.Src.create "flexile.lp" ~doc:"LP solver"

module Log = (val Logs.src_log src : Logs.LOG)
module Trace = Flexile_util.Trace
module Basis = Sparse.Basis
module Svec = Sparse.Svec

(* [Flexile_util.nonzero], inlinable.  The dev profile
   compiles every module [-opaque], so a call into another module boxes
   each float argument; the pivot path keeps its zero tests local
   (DESIGN.md section 11). *)
let[@inline] nonzero x = not (Float.equal x 0.)

(* Probes are per-solve or per-refactorization, never per-pivot: with
   tracing disabled each costs one branch, with it enabled one
   domain-local array write. *)
let c_cold_solves = Trace.counter "simplex.cold_solves"
let sp_solve = Trace.span "simplex.solve"
let sp_resolve = Trace.span "simplex.resolve_rhs"
let c_iterations = Trace.counter "simplex.iterations"
let c_refactorizations = Trace.counter "simplex.refactorizations"
let c_warm_attempts = Trace.counter "simplex.warm_attempts"
let c_warm_hits = Trace.counter "simplex.warm_hits"
let c_warm_fallbacks = Trace.counter "simplex.warm_fallbacks"
let h_iterations = Trace.hist "simplex.iterations_per_solve"
let t_factor = Trace.timer "simplex.factor"
let c_eta_updates = Trace.counter "simplex.eta_updates"
let c_basis_repairs = Trace.counter "simplex.basis_repairs"
let h_eta_at_refactor = Trace.hist "simplex.eta_len_at_refactor"

(* Phase tags reported to the health observatory (Health.sample.s_phase
   and the stall notes).  Integers, not a variant, because they cross
   the Health interface and land in JSON reports. *)
let phase_setup = 0
let phase_primal1 = 1
let phase_primal2 = 2
let phase_dual = 3

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  obj : float;
  x : float array;
  row_duals : float array;
  reduced_costs : float array;
  bound_term : float;
  iterations : int;
}

let dual_bound sol ~rhs =
  let s = ref sol.bound_term in
  Array.iteri (fun i y -> s := !s +. (y *. rhs.(i))) sol.row_duals;
  !s

(* Nonbasic-at-lower / -at-upper / basic / nonbasic-free (value 0). *)
let at_lower = 0
let at_upper = 1
let basic = 2
let free = 3

type t = {
  n : int;
  m : int;
  ntot : int;
  model : Lp_model.t; (* kept for health snapshots, never re-read *)
  eta_limit : int option; (* explicit eta-file cap, recorded in dumps *)
  csc : Lp_model.csc;
  lo : float array;
  up : float array;
  cost : float array; (* phase-2 costs over ntot *)
  b : float array; (* current rhs *)
  vstat : int array;
  bas : int array; (* length m *)
  basis : Basis.t;
  (* the basis columns collected for [Basis.factor], CSC by position;
     the entry arrays start at nnz(A) + m, enough for any basis of
     distinct columns, and grow only for a basis that repeats one *)
  bcol_start : int array; (* length m+1 *)
  mutable bcol_idx : int array;
  mutable bcol_val : float array;
  xb : float array;
  xn : float array; (* bound value of each nonbasic variable *)
  mutable last_status : status option;
  (* persistent workspaces: the pivot loops allocate nothing *)
  w : float array; (* FTRAN column, length m *)
  rho : float array; (* BTRAN row of B^-1, length m *)
  y : float array; (* row duals, length m *)
  bt : float array; (* recompute_xb scratch, length m *)
  (* CSR mirror of the structural columns, for pivot-row products *)
  row_start : int array; (* length m+1 *)
  row_col : int array;
  row_val : float array;
  asv : Sparse.Svec.t; (* alpha = A^T rho scatter, dimension ntot *)
  d : float array; (* reduced costs over ntot *)
  mutable d_valid : bool;
      (* [d] holds phase-2 reduced costs of the current basis, kept
         exact by the optimality confirmation and maintained by the
         dual pivots — lets a warm [resolve_rhs] skip the full rebuild *)
  gamma : float array; (* devex reference weights over ntot *)
  sec_size : int; (* partial-pricing section length *)
  nsec : int;
  mutable psec : int; (* cyclic pricing cursor *)
  (* pivot choice written by the pricing and ratio-test kernels; the
     floats sit in a preallocated array, not in mutable float fields,
     so the stores never box *)
  mutable enter : int; (* entering column, -1 = none *)
  mutable leave : int; (* leaving basis position, -1 = none *)
  mutable leave_to_up : bool; (* the leaving variable goes to its upper bound *)
  pick : float array;
      (* 0: entering direction (primal) or pivot-row entry (dual);
         1: pricing score, then step length (primal) or dual ratio *)
  (* numerical health observatory (DESIGN.md section 15) *)
  health : Health.state;
  mutable hphase : int; (* phase_setup/_primal1/_primal2/_dual *)
  mutable hiter : int; (* iteration count at the last loop step *)
}

let slack_bounds sense =
  match sense with
  | Lp_model.Le -> (0., infinity)
  | Lp_model.Ge -> (neg_infinity, 0.)
  | Lp_model.Eq -> (0., 0.)

let create ?eta_limit ?thresholds model =
  let n = Lp_model.nvars model and m = Lp_model.nrows model in
  let ntot = n + (2 * m) in
  let lo = Array.make ntot 0. and up = Array.make ntot 0. in
  let cost = Array.make ntot 0. in
  for j = 0 to n - 1 do
    lo.(j) <- Lp_model.lb model j;
    up.(j) <- Lp_model.ub model j;
    cost.(j) <- Lp_model.obj_coef model j
  done;
  let b = Array.make m 0. in
  for i = 0 to m - 1 do
    let slo, sup = slack_bounds (Lp_model.row_sense model i) in
    lo.(n + i) <- slo;
    up.(n + i) <- sup;
    (* artificial bounds adjusted during phase-1 setup *)
    lo.(n + m + i) <- 0.;
    up.(n + m + i) <- 0.;
    b.(i) <- Lp_model.rhs model i
  done;
  let sec_size = max 256 ((ntot + 7) / 8) in
  let nsec = max 1 ((ntot + sec_size - 1) / sec_size) in
  (* transpose the CSC structural columns into CSR once *)
  let csc = Lp_model.csc model in
  let nnz = csc.Lp_model.col_start.(n) in
  let row_start = Array.make (m + 1) 0 in
  let row_col = Array.make (max 1 nnz) 0 in
  let row_val = Array.make (max 1 nnz) 0. in
  for k = 0 to nnz - 1 do
    let i = csc.Lp_model.row_idx.(k) in
    row_start.(i + 1) <- row_start.(i + 1) + 1
  done;
  for i = 0 to m - 1 do
    row_start.(i + 1) <- row_start.(i + 1) + row_start.(i)
  done;
  let fill = Array.copy row_start in
  for j = 0 to n - 1 do
    for k = csc.Lp_model.col_start.(j) to csc.Lp_model.col_start.(j + 1) - 1 do
      let i = csc.Lp_model.row_idx.(k) in
      row_col.(fill.(i)) <- j;
      row_val.(fill.(i)) <- csc.Lp_model.values.(k);
      fill.(i) <- fill.(i) + 1
    done
  done;
  {
    n;
    m;
    ntot;
    model;
    eta_limit;
    csc = Lp_model.csc model;
    lo;
    up;
    cost;
    b;
    vstat = Array.make ntot at_lower;
    bas = Array.make m 0;
    basis = Basis.create ?eta_limit m;
    bcol_start = Array.make (m + 1) 0;
    bcol_idx = Array.make (nnz + m + 1) 0;
    bcol_val = Array.make (nnz + m + 1) 0.;
    xb = Array.make m 0.;
    xn = Array.make ntot 0.;
    last_status = None;
    w = Array.make m 0.;
    rho = Array.make m 0.;
    y = Array.make m 0.;
    bt = Array.make m 0.;
    row_start;
    row_col;
    row_val;
    asv = Sparse.Svec.create ntot;
    d = Array.make ntot 0.;
    d_valid = false;
    gamma = Array.make ntot 1.;
    sec_size;
    nsec;
    psec = 0;
    enter = -1;
    leave = -1;
    leave_to_up = false;
    pick = Array.make 2 0.;
    health = Health.make ?thresholds m;
    hphase = phase_setup;
    hiter = 0;
  }

(* Threshold trip -> reproducible snapshot (model + basis + variable
   statuses + trip metadata), so the failing LP can be replayed by
   [flexile doctor --from-dump].  Gated on FLEXILE_HEALTH_DUMP inside
   [Health.write_dump]; the copies happen only on a trip. *)
let dump_on_trip st reasons =
  match Health.dump_dir () with
  | None -> ()
  | Some _ ->
      ignore
        (Health.write_dump
           {
             Health.d_reasons = reasons;
             d_phase = st.hphase;
             d_iteration = st.hiter;
             d_eta_limit = st.eta_limit;
             d_model = st.model;
             d_basis = Array.copy st.bas;
             d_vstat = Array.copy st.vstat;
           })

let create ?eta_limit ?thresholds model =
  let st = create ?eta_limit ?thresholds model in
  Health.set_on_trip st.health (dump_on_trip st);
  st

let make ?eta_limit model = create ?eta_limit model

(* Row of the unit column [j >= n] (a slack or an artificial). *)
let unit_row st j = if j < st.n + st.m then j - st.n else j - st.n - st.m

(* Iterate over the (row, coefficient) entries of column [j]. *)
let col_iter st j f =
  if j < st.n then begin
    let c = st.csc in
    for k = c.Lp_model.col_start.(j) to c.Lp_model.col_start.(j + 1) - 1 do
      f c.Lp_model.row_idx.(k) c.Lp_model.values.(k)
    done
  end
  else f (unit_row st j) 1.0

(* The column kernels below walk the CSC arrays directly instead of
   going through [col_iter], whose callback boxes every float it is
   handed.  Each keeps [col_iter]'s arithmetic exactly, down to the
   [0. +. y_i *. 1.0] of a unit column in [col_dot] (which maps -0. to
   +0.). *)

(* Dot of a dense m-vector with column j. *)
let col_dot st y j =
  if j < st.n then begin
    let c = st.csc in
    let s = ref 0. in
    for k = c.Lp_model.col_start.(j) to c.Lp_model.col_start.(j + 1) - 1 do
      s := !s +. (y.(c.Lp_model.row_idx.(k)) *. c.Lp_model.values.(k))
    done;
    !s
  end
  else 0. +. (y.(unit_row st j) *. 1.0)

(* w := B^-1 A_j (FTRAN through the factors + eta file). *)
let ftran st j w =
  Array.fill w 0 st.m 0.;
  (if j < st.n then begin
     let c = st.csc in
     for k = c.Lp_model.col_start.(j) to c.Lp_model.col_start.(j + 1) - 1 do
       let r = c.Lp_model.row_idx.(k) in
       w.(r) <- w.(r) +. c.Lp_model.values.(k)
     done
   end
   else
     let r = unit_row st j in
     w.(r) <- w.(r) +. 1.0);
  Basis.ftran st.basis w

(* y := costs_B B^-1 (BTRAN). *)
let[@lint.noalloc] btran st costs y =
  for k = 0 to st.m - 1 do
    y.(k) <- costs.(st.bas.(k))
  done;
  Basis.btran st.basis y

(* asv := A^T rho over every column (structural via the CSR mirror,
   slack and artificial unit columns directly), visiting only the rows
   where [rho] is nonzero.  This is the pivot-row product the pricing
   updates and the dual ratio test need; iterating its pattern instead
   of all [ntot] columns is what makes a pivot cost proportional to
   the pivot row's fill. *)
let[@lint.noalloc] scatter_alpha st rho =
  Svec.scatter_rows st.asv rho ~n:st.n ~m:st.m ~row_start:st.row_start
    ~row_col:st.row_col ~row_val:st.row_val

(* bt := b - sum_{nonbasic j} A_j xn_j, the row-space right-hand side
   the basic values solve against. *)
let nonbasic_rhs st =
  let bt = st.bt in
  Array.blit st.b 0 bt 0 st.m;
  for j = 0 to st.ntot - 1 do
    let xj = st.xn.(j) in
    if st.vstat.(j) <> basic && nonzero xj then
      if j < st.n then begin
        let c = st.csc in
        for k = c.Lp_model.col_start.(j) to c.Lp_model.col_start.(j + 1) - 1 do
          let i = c.Lp_model.row_idx.(k) in
          bt.(i) <- bt.(i) -. (c.Lp_model.values.(k) *. xj)
        done
      end
      else
        let i = unit_row st j in
        bt.(i) <- bt.(i) -. (1.0 *. xj)
  done

(* Recompute basic values from scratch:
   xb = B^-1 (b - sum_{nonbasic j} A_j xn_j). *)
let recompute_xb st =
  nonbasic_rhs st;
  Basis.ftran st.basis st.bt;
  Array.blit st.bt 0 st.xb 0 st.m

(* ------------------------------------------------------------------ *)
(* Health sampling (DESIGN.md section 15): per-refactorization plus    *)
(* one sample at extraction, so the pivot loops stay noalloc and the   *)
(* answer basis is always measured even when no refactorization fired  *)
(* mid-solve (small LPs rarely exhaust the eta limit).                 *)
(* ------------------------------------------------------------------ *)

let health_active st = Trace.enabled () || Health.capture st.health

(* Eta-file epoch stats, read *before* [Basis.factor] resets them. *)
let eta_epoch_of st =
  let b = st.basis in
  {
    Health.ee_len = Basis.eta_count b;
    ee_nnz = Basis.eta_nnz b;
    ee_rejections = Basis.eta_rejections b;
    ee_growth = Basis.eta_growth b;
    ee_min_diag = Basis.eta_min_diag b;
  }

let health_sample st ~kind ~eta ~patched =
  if Health.sample_due st.health then begin
  (* row-space b~ = b - N x_N into the scratch [bt] (recompute_xb
     immediately FTRANs it away) *)
  nonbasic_rhs st;
  Health.sample st.health ~basis:st.basis ~kind ~phase:st.hphase
    ~iteration:st.hiter
    ~col:(fun pos f -> col_iter st st.bas.(pos) f)
    ~cb:(fun pos -> st.cost.(st.bas.(pos)))
    ~btilde:st.bt ~xb:st.xb ~eta ~patched
  end

(* Collect the columns of the recorded basis into [bcol_*]. *)
let collect_basis st =
  let c = st.csc in
  let len = ref 0 in
  for pos = 0 to st.m - 1 do
    st.bcol_start.(pos) <- !len;
    let j = st.bas.(pos) in
    let cnt =
      if j < st.n then c.Lp_model.col_start.(j + 1) - c.Lp_model.col_start.(j)
      else 1
    in
    if !len + cnt > Array.length st.bcol_idx then begin
      (* only a basis that repeats a column, e.g. a hand-edited dump *)
      let idx = Array.make (2 * (!len + cnt)) 0 in
      let vals = Array.make (2 * (!len + cnt)) 0. in
      Array.blit st.bcol_idx 0 idx 0 !len;
      Array.blit st.bcol_val 0 vals 0 !len;
      st.bcol_idx <- idx;
      st.bcol_val <- vals
    end;
    if j < st.n then begin
      let k0 = c.Lp_model.col_start.(j) in
      Array.blit c.Lp_model.row_idx k0 st.bcol_idx !len cnt;
      Array.blit c.Lp_model.values k0 st.bcol_val !len cnt
    end
    else begin
      st.bcol_idx.(!len) <- unit_row st j;
      st.bcol_val.(!len) <- 1.0
    end;
    len := !len + cnt
  done;
  st.bcol_start.(st.m) <- !len

(* Rebuild the LU factorization of the recorded basis.  A singular or
   numerically dependent basis is not an error: [Basis.factor] patches
   the dependent positions with slack unit columns and we repair the
   recorded basis to match (the evicted variable goes to a bound), then
   let the simplex iterate onward from the repaired point. *)
let refactorize st =
  Trace.incr c_refactorizations;
  Trace.observe h_eta_at_refactor (float_of_int (Basis.eta_count st.basis));
  let active = health_active st in
  let eta = if active then eta_epoch_of st else Health.empty_epoch in
  let patched =
    Trace.with_span t_factor @@ fun () ->
    collect_basis st;
    Basis.factor st.basis ~col_start:st.bcol_start ~row_idx:st.bcol_idx
      ~values:st.bcol_val
  in
  List.iter
    (fun (pos, row) ->
      Trace.incr c_basis_repairs;
      let q = st.bas.(pos) in
      if st.lo.(q) > neg_infinity then begin
        st.vstat.(q) <- at_lower;
        st.xn.(q) <- st.lo.(q)
      end
      else if st.up.(q) < infinity then begin
        st.vstat.(q) <- at_upper;
        st.xn.(q) <- st.up.(q)
      end
      else begin
        st.vstat.(q) <- free;
        st.xn.(q) <- 0.
      end;
      (* row was unpivoted, so its slack cannot currently be basic *)
      let s = st.n + row in
      st.bas.(pos) <- s;
      st.vstat.(s) <- basic)
    patched;
  recompute_xb st;
  if patched <> [] then st.d_valid <- false;
  if active then health_sample st ~kind:Health.Refactor ~eta ~patched;
  patched <> []

(* Append the pivot (entering column image [w], leaving position [r])
   to the eta file; on a numerically hopeless eta pivot rebuild the
   factorization of the already-updated recorded basis instead.
   Returns true when the basis was repaired (duals must be rebuilt). *)
let update_basis st r =
  if Basis.update st.basis ~r ~w:st.w then begin
    Trace.incr c_eta_updates;
    if Basis.needs_refactor st.basis then refactorize st else false
  end
  else refactorize st

(* ------------------------------------------------------------------ *)
(* Primal simplex iterations with cost vector [costs].                 *)
(* ------------------------------------------------------------------ *)

type primal_result = P_optimal | P_unbounded | P_iter_limit

(* Offer column [j] as the entering candidate, moving in direction
   [dir] with improvement rate [score]: Bland keeps the smallest
   improving index, devex the steepest [score^2 / gamma_j] (steepest
   reduced cost in the reference frame).  Inlined into [price_range],
   so its float arguments never box. *)
let[@inline] offer st ~bland j dir score =
  if score > opt_tol then
    if bland then begin
      if st.enter = -1 || j < st.enter then begin
        st.enter <- j;
        st.pick.(0) <- dir;
        st.pick.(1) <- score
      end
    end
    else begin
      let dscore = score *. score /. st.gamma.(j) in
      if dscore > st.pick.(1) then begin
        st.enter <- j;
        st.pick.(0) <- dir;
        st.pick.(1) <- dscore
      end
    end

(* Primal pricing over columns [lo .. hi] with the reduced costs in
   [st.d]: improves on the candidate in [st.enter] / [st.pick], which
   the caller resets before the first range of an iteration. *)
let[@lint.noalloc] price_range st ~bland lo hi =
  for j = lo to hi do
    let stt = st.vstat.(j) in
    if stt <> basic && st.lo.(j) < st.up.(j) then begin
      let dj = st.d.(j) in
      if stt = at_lower then offer st ~bland j 1. (-.dj)
      else if stt = at_upper then offer st ~bland j (-1.) dj
      else begin
        (* free: move in the improving direction *)
        offer st ~bland j 1. (-.dj);
        offer st ~bland j (-1.) dj
      end
    end
  done

(* Primal ratio test for the entering column image [st.w] moving in
   direction [st.pick.(0)]: sets [st.leave] (-1 = no basic variable
   blocks), [st.leave_to_up] and the step [st.pick.(1)].
   Basic value i changes at rate (-. s *. w.(i)) per unit step.  Ties
   are normally broken toward the largest pivot magnitude (stability);
   under the Bland fallback they must be broken by smallest leaving
   variable index instead — Bland's rule only guarantees termination
   when BOTH the entering and the leaving choice use the smallest-index
   rule. *)
let[@lint.noalloc] ratio_test st ~bland =
  let w = st.w and s = st.pick.(0) in
  let tmax = ref infinity in
  let leave = ref (-1) in
  let to_up = ref false in
  for i = 0 to st.m - 1 do
    let rate = -.s *. w.(i) in
    let up = rate > pivot_tol in
    let q = st.bas.(i) in
    if
      (rate < -.pivot_tol && st.lo.(q) > neg_infinity)
      || (up && st.up.(q) < infinity)
    then begin
      let ti =
        if up then (st.up.(q) -. st.xb.(i)) /. rate
        else (st.xb.(i) -. st.lo.(q)) /. -.rate
      in
      let ti = if ti < 0. then 0. else ti in
      if
        ti < !tmax -. 1e-12
        || ti < !tmax +. 1e-12
           && (!leave = -1
              ||
              if bland then q < st.bas.(!leave)
              else Float.abs w.(i) > Float.abs w.(!leave))
      then begin
        tmax := ti;
        leave := i;
        to_up := up
      end
    end
  done;
  st.leave <- !leave;
  st.leave_to_up <- !to_up;
  st.pick.(1) <- !tmax

let primal_loop st costs ~iter_limit iter_count =
  let m = st.m in
  let y = st.y and w = st.w and rho = st.rho in
  (* reduced costs, maintained incrementally (O(nnz) per pivot instead
     of a BTRAN per iteration) and recomputed periodically; devex
     weights reset whenever the reduced costs are rebuilt exactly *)
  let d = st.d and gamma = st.gamma in
  let recompute_d () =
    btran st costs y;
    for j = 0 to st.ntot - 1 do
      if st.vstat.(j) <> basic then d.(j) <- costs.(j) -. col_dot st y j
      else d.(j) <- 0.;
      gamma.(j) <- 1.
    done
  in
  st.d_valid <- false;
  recompute_d ();
  let degen = ref 0 in
  (* stall detection: longest run of zero-step ratio tests and the
     Bland dwell, one integer compare per iteration (DESIGN.md s15) *)
  let stall_lim = (Health.thresholds st.health).Health.stall_limit in
  let iters0 = !iter_count in
  let max_run = ref 0 and bland_iters = ref 0 in
  let result = ref None in
  while !result = None do
    if !iter_count >= iter_limit then result := Some P_iter_limit
    else begin
      incr iter_count;
      st.hiter <- !iter_count;
      if !iter_count mod 4096 = 0 then begin
        recompute_xb st;
        recompute_d ()
      end;
      let bland = !degen > degen_threshold in
      if bland then incr bland_iters;
      (* --- pricing: choose entering variable --- *)
      st.enter <- -1;
      st.pick.(0) <- 1.;
      st.pick.(1) <- 0.;
      if bland then price_range st ~bland 0 (st.ntot - 1)
      else begin
        (* partial pricing: cyclic scan of static sections, stopping at
           the first section that yields a candidate *)
        let scanned = ref 0 in
        while st.enter = -1 && !scanned < st.nsec do
          let s0 = (st.psec + !scanned) mod st.nsec in
          price_range st ~bland (s0 * st.sec_size)
            (min st.ntot ((s0 + 1) * st.sec_size) - 1);
          (* advance the cursor past the section that produced the
             candidate: sticking to a section while it keeps yielding
             (degenerate) candidates starves the rest of the matrix and
             stalls phase 1 on massively degenerate vertices *)
          if st.enter <> -1 then st.psec <- (s0 + 1) mod st.nsec;
          incr scanned
        done
      end;
      if st.enter = -1 then begin
        (* confirm with exact reduced costs before declaring optimal *)
        recompute_d ();
        let confirm = ref (-1) in
        for j = 0 to st.ntot - 1 do
          if !confirm = -1 && st.vstat.(j) <> basic && st.lo.(j) < st.up.(j)
          then begin
            let stt = st.vstat.(j) in
            if
              (stt = at_lower && d.(j) < -.opt_tol)
              || (stt = at_upper && d.(j) > opt_tol)
              || (stt = free && Float.abs d.(j) > opt_tol)
            then confirm := j
          end
        done;
        if !confirm = -1 then result := Some P_optimal
      end
      else begin
        let j = st.enter and s = st.pick.(0) in
        ftran st j w;
        ratio_test st ~bland;
        (* Bound-flip possibility for the entering variable itself. *)
        let range = st.up.(j) -. st.lo.(j) in
        if range < st.pick.(1) then begin
          (* flip: move to the opposite bound, no basis change *)
          let t = range in
          for i = 0 to m - 1 do
            st.xb.(i) <- st.xb.(i) -. (s *. w.(i) *. t)
          done;
          if s > 0. then begin
            st.vstat.(j) <- at_upper;
            st.xn.(j) <- st.up.(j)
          end
          else begin
            st.vstat.(j) <- at_lower;
            st.xn.(j) <- st.lo.(j)
          end;
          degen := 0
        end
        else if st.leave = -1 then result := Some P_unbounded
        else begin
          let r = st.leave and t = st.pick.(1) in
          if t <= 1e-10 then begin
            incr degen;
            if !degen > !max_run then max_run := !degen;
            if !degen = stall_lim then
              Health.note_stall st.health ~phase:st.hphase
                ~iteration:!iter_count ~run:!degen
          end
          else degen := 0;
          let entering_value = st.xn.(j) +. (s *. t) in
          for i = 0 to m - 1 do
            if i <> r then st.xb.(i) <- st.xb.(i) -. (s *. w.(i) *. t)
          done;
          let q = st.bas.(r) in
          st.vstat.(q) <- (if st.leave_to_up then at_upper else at_lower);
          st.xn.(q) <- (if st.leave_to_up then st.up.(q) else st.lo.(q));
          (* incremental dual/devex update with the pre-pivot row r of
             B^-1: d'_k = d_k - (d_j / w_r) (rho . A_k) and
             gamma'_k = max(gamma_k, (alpha_k / w_r)^2 gamma_j) *)
          Basis.btran_unit st.basis r rho;
          let alpha_j = w.(r) in
          let theta = d.(j) /. alpha_j in
          let gscale = gamma.(j) /. (alpha_j *. alpha_j) in
          st.bas.(r) <- j;
          st.vstat.(j) <- basic;
          st.xb.(r) <- entering_value;
          let repaired = update_basis st r in
          if repaired then begin
            recompute_xb st;
            recompute_d ()
          end
          else begin
            scatter_alpha st rho;
            (* walk the pivot-row pattern by index: a closure over it
               would box [theta], [gscale] and every entry *)
            let pat = Svec.pattern st.asv and alpha = Svec.values st.asv in
            for p = 0 to Svec.nnz st.asv - 1 do
              let k = pat.(p) in
              let alpha_k = alpha.(k) in
              if st.vstat.(k) <> basic && k <> q && nonzero alpha_k then begin
                if nonzero theta then d.(k) <- d.(k) -. (theta *. alpha_k);
                let cand = alpha_k *. alpha_k *. gscale in
                if cand > gamma.(k) then gamma.(k) <- cand
              end
            done;
            d.(q) <- -.theta;
            gamma.(q) <- Float.max gscale 1.;
            d.(j) <- 0.
          end
        end
      end
    end
  done;
  (* the optimal exit passed the exact confirmation, so for phase-2
     costs [d] is the exact reduced-cost vector of the final basis *)
  (match !result with
  | Some P_optimal when costs == st.cost -> st.d_valid <- true
  | _ -> ());
  Health.note_loop_end st.health ~phase:st.hphase
    ~iterations:(!iter_count - iters0) ~max_run:!max_run ~bland:!bland_iters;
  match !result with Some r -> r | None -> assert false

(* ------------------------------------------------------------------ *)
(* Cold start: phase 1 from the slack basis.                           *)
(* ------------------------------------------------------------------ *)

let setup_cold st =
  st.hphase <- phase_setup;
  st.hiter <- 0;
  let n = st.n and m = st.m in
  (* structural nonbasic at the bound closest to zero *)
  for j = 0 to n - 1 do
    if st.lo.(j) > neg_infinity then begin
      st.vstat.(j) <- at_lower;
      st.xn.(j) <- st.lo.(j)
    end
    else if st.up.(j) < infinity then begin
      st.vstat.(j) <- at_upper;
      st.xn.(j) <- st.up.(j)
    end
    else begin
      st.vstat.(j) <- free;
      st.xn.(j) <- 0.
    end
  done;
  (* slacks basic (identity basis, factored trivially with no
     patches); artificials fixed nonbasic *)
  for i = 0 to m - 1 do
    st.bas.(i) <- n + i;
    st.vstat.(n + i) <- basic;
    st.lo.(n + m + i) <- 0.;
    st.up.(n + m + i) <- 0.;
    st.vstat.(n + m + i) <- at_lower;
    st.xn.(n + m + i) <- 0.
  done;
  st.psec <- 0;
  ignore (refactorize st)

(* Phase 1: replace infeasible basic slacks by artificials; returns the
   phase-1 cost vector, or None if the start is already feasible.  The
   slack -> artificial swap keeps the basis matrix (and hence the LU
   factorization) unchanged: both are the unit column of their row. *)
let setup_phase1 st =
  let n = st.n and m = st.m in
  let costs = Array.make st.ntot 0. in
  let needed = ref false in
  for i = 0 to m - 1 do
    let sj = n + i in
    let v = st.xb.(i) in
    if v < st.lo.(sj) -. feas_tol || v > st.up.(sj) +. feas_tol then begin
      needed := true;
      let aj = n + m + i in
      (* slack leaves to its nearest bound; artificial absorbs residual *)
      let bound = if v > st.up.(sj) then st.up.(sj) else st.lo.(sj) in
      st.vstat.(sj) <- (if v > st.up.(sj) then at_upper else at_lower);
      st.xn.(sj) <- bound;
      let residual = v -. bound in
      if residual > 0. then begin
        st.lo.(aj) <- 0.;
        st.up.(aj) <- infinity;
        costs.(aj) <- 1.
      end
      else begin
        st.lo.(aj) <- neg_infinity;
        st.up.(aj) <- 0.;
        costs.(aj) <- -1.
      end;
      st.bas.(i) <- aj;
      st.vstat.(aj) <- basic;
      st.xb.(i) <- residual
    end
  done;
  if !needed then Some costs else None

let close_phase1 st =
  let n = st.n and m = st.m in
  for i = 0 to m - 1 do
    let aj = n + m + i in
    st.lo.(aj) <- 0.;
    st.up.(aj) <- 0.;
    if st.vstat.(aj) <> basic then begin
      st.vstat.(aj) <- at_lower;
      st.xn.(aj) <- 0.
    end
  done

let phase1_obj st costs =
  let s = ref 0. in
  for i = 0 to st.m - 1 do
    let c = costs.(st.bas.(i)) in
    if nonzero c then s := !s +. (c *. st.xb.(i))
  done;
  !s

let extract_solution st ~status ~iterations =
  let n = st.n and m = st.m in
  let x = Array.make n 0. in
  for j = 0 to n - 1 do
    x.(j) <- st.xn.(j)
  done;
  for i = 0 to m - 1 do
    if st.bas.(i) < n then x.(st.bas.(i)) <- st.xb.(i)
  done;
  let y = Array.make m 0. in
  btran st st.cost y;
  let reduced = Array.make n 0. in
  let bound_term = ref 0. in
  for j = 0 to n - 1 do
    let d = st.cost.(j) -. col_dot st y j in
    reduced.(j) <- d;
    if st.vstat.(j) <> basic && nonzero st.xn.(j) then
      bound_term := !bound_term +. (d *. st.xn.(j))
  done;
  let obj = ref 0. in
  for j = 0 to n - 1 do
    obj := !obj +. (st.cost.(j) *. x.(j))
  done;
  Trace.add c_iterations iterations;
  Trace.observe h_iterations (float_of_int iterations);
  st.last_status <- Some status;
  {
    status;
    obj = !obj;
    x;
    row_duals = y;
    reduced_costs = reduced;
    bound_term = !bound_term;
    iterations;
  }

(* Extraction with a final health sample: small LPs rarely exhaust the
   eta limit mid-solve, so without this the observatory would only ever
   see the trivial slack basis of [setup_cold].  The *answer* basis is
   the one whose residuals and conditioning decide whether the solution
   can be trusted. *)
let finish_solve st ~status ~iterations =
  if health_active st then
    health_sample st ~kind:Health.Final ~eta:(eta_epoch_of st) ~patched:[];
  extract_solution st ~status ~iterations

let default_iter_limit st = 50_000 + (50 * (st.n + st.m))

let cold_solve ?iter_limit st =
  Trace.incr c_cold_solves;
  let iter_limit =
    match iter_limit with Some l -> l | None -> default_iter_limit st
  in
  setup_cold st;
  let iters = ref 0 in
  let phase1_failed =
    match setup_phase1 st with
    | None -> false
    | Some p1costs -> (
        st.hphase <- phase_primal1;
        match primal_loop st p1costs ~iter_limit iters with
        | P_unbounded ->
            (* phase-1 objective is bounded below by 0; treat as numeric
               trouble and refactorize once *)
            ignore (refactorize st);
            phase1_obj st p1costs > feas_tol *. 10.
        | P_iter_limit -> true
        | P_optimal -> phase1_obj st p1costs > feas_tol *. 10.)
  in
  if phase1_failed then begin
    let status =
      if !iters >= iter_limit then Iteration_limit else Infeasible
    in
    finish_solve st ~status ~iterations:!iters
  end
  else begin
    close_phase1 st;
    recompute_xb st;
    st.hphase <- phase_primal2;
    match primal_loop st st.cost ~iter_limit iters with
    | P_optimal ->
        (* polish: guard against drift of the updated factors *)
        recompute_xb st;
        let bad = ref false in
        for i = 0 to st.m - 1 do
          let q = st.bas.(i) in
          if
            st.xb.(i) < st.lo.(q) -. (10. *. feas_tol)
            || st.xb.(i) > st.up.(q) +. (10. *. feas_tol)
          then bad := true
        done;
        if !bad then begin
          ignore (refactorize st);
          ignore (primal_loop st st.cost ~iter_limit iters)
        end;
        finish_solve st ~status:Optimal ~iterations:!iters
    | P_unbounded -> finish_solve st ~status:Unbounded ~iterations:!iters
    | P_iter_limit ->
        finish_solve st ~status:Iteration_limit ~iterations:!iters
  end

(* ------------------------------------------------------------------ *)
(* Dual simplex for RHS-only changes.                                  *)
(* ------------------------------------------------------------------ *)

type dual_result = D_optimal | D_infeasible | D_iter_limit

(* Dual ratio test over the pivot-row pattern in [st.asv] for a leaving
   variable that moves up to its lower bound ([above] false) or down to
   its upper bound: sets [st.enter] (-1 = the row proves primal
   infeasibility), the pivot-row entry [st.pick.(0)] and the ratio
   [st.pick.(1)]. *)
let[@lint.noalloc] dual_ratio_test st ~above ~bland =
  let d = st.d and pick = st.pick in
  let pat = Svec.pattern st.asv and av = Svec.values st.asv in
  st.enter <- -1;
  pick.(0) <- 0.;
  pick.(1) <- infinity;
  for p = 0 to Svec.nnz st.asv - 1 do
    let j = pat.(p) in
    let alpha = av.(j) in
    let stt = st.vstat.(j) in
    if stt <> basic && st.lo.(j) < st.up.(j) && Float.abs alpha > pivot_tol
    then begin
      let candidate =
        if above then
          (stt = at_lower && alpha > 0.)
          || (stt = at_upper && alpha < 0.)
          || stt = free
        else
          (stt = at_lower && alpha < 0.)
          || (stt = at_upper && alpha > 0.)
          || stt = free
      in
      if candidate then begin
        let ratio = Float.abs d.(j) /. Float.abs alpha in
        (* Bland anti-cycling still honors the dual ratio test: among
           (near-)minimal ratios take the smallest index, otherwise
           dual feasibility would be destroyed. *)
        if
          ratio < pick.(1) -. 1e-12
          || ratio < pick.(1) +. 1e-12
             &&
             if bland then st.enter = -1 || j < st.enter
             else Float.abs alpha > Float.abs pick.(0)
        then begin
          st.enter <- j;
          pick.(1) <- Float.min ratio pick.(1);
          pick.(0) <- alpha
        end
      end
    end
  done

let dual_loop st ~iter_limit iters =
  let m = st.m in
  let rho = st.rho and w = st.w and y = st.y in
  let d = st.d in
  let recompute_duals () =
    btran st st.cost y;
    for j = 0 to st.ntot - 1 do
      if st.vstat.(j) <> basic then d.(j) <- st.cost.(j) -. col_dot st y j
    done;
    st.d_valid <- true
  in
  (* a warm restart from an optimal basis inherits its exact reduced
     costs; rebuild only when the basis has moved under us *)
  if not st.d_valid then recompute_duals ();
  let zero_steps = ref 0 in
  let stall_lim = (Health.thresholds st.health).Health.stall_limit in
  let iters0 = !iters in
  let max_run = ref 0 and bland_iters = ref 0 in
  let result = ref None in
  while !result = None do
    if !iters >= iter_limit then result := Some D_iter_limit
    else begin
      incr iters;
      st.hiter <- !iters;
      if !iters mod 4096 = 0 then begin
        recompute_xb st;
        recompute_duals ()
      end;
      (* --- leaving: most violated basic variable --- *)
      let r = ref (-1) and viol = ref feas_tol and above = ref false in
      for i = 0 to m - 1 do
        let q = st.bas.(i) in
        let below_v = st.lo.(q) -. st.xb.(i) in
        let above_v = st.xb.(i) -. st.up.(q) in
        if below_v > !viol then begin
          viol := below_v;
          r := i;
          above := false
        end;
        if above_v > !viol then begin
          viol := above_v;
          r := i;
          above := true
        end
      done;
      if !r = -1 then result := Some D_optimal
      else begin
        let r = !r in
        Basis.btran_unit st.basis r rho;
        (* pivot-row entries alpha_k = rho . A_k; only columns in the
           scatter pattern can pass the pivot tolerance, so the ratio
           test and the dual update below visit just the pattern *)
        scatter_alpha st rho;
        let bland = !zero_steps > degen_threshold in
        if bland then incr bland_iters;
        dual_ratio_test st ~above:!above ~bland;
        if st.enter = -1 then result := Some D_infeasible
        else begin
          let j = st.enter in
          if st.pick.(1) <= 1e-10 then begin
            incr zero_steps;
            if !zero_steps > !max_run then max_run := !zero_steps;
            if !zero_steps = stall_lim then
              Health.note_stall st.health ~phase:st.hphase ~iteration:!iters
                ~run:!zero_steps
          end
          else zero_steps := 0;
          let alpha_j = st.pick.(0) in
          let q = st.bas.(r) in
          let target = if !above then st.up.(q) else st.lo.(q) in
          let delta = (st.xb.(r) -. target) /. alpha_j in
          ftran st j w;
          for i = 0 to m - 1 do
            if i <> r then st.xb.(i) <- st.xb.(i) -. (w.(i) *. delta)
          done;
          st.vstat.(q) <- (if !above then at_upper else at_lower);
          st.xn.(q) <- target;
          st.bas.(r) <- j;
          st.vstat.(j) <- basic;
          st.xb.(r) <- st.xn.(j) +. delta;
          let theta = d.(j) /. alpha_j in
          let repaired = update_basis st r in
          if repaired then begin
            recompute_xb st;
            recompute_duals ()
          end
          else begin
            (* update duals: d'_k = d_k - (d_j/alpha_j) * alpha_k *)
            if nonzero theta then begin
              let pat = Svec.pattern st.asv and alpha = Svec.values st.asv in
              for p = 0 to Svec.nnz st.asv - 1 do
                let k = pat.(p) in
                if st.vstat.(k) <> basic then
                  d.(k) <- d.(k) -. (theta *. alpha.(k))
              done
            end;
            d.(q) <- -.theta;
            d.(j) <- 0.
          end
        end
      end
    end
  done;
  Health.note_loop_end st.health ~phase:st.hphase
    ~iterations:(!iters - iters0) ~max_run:!max_run ~bland:!bland_iters;
  match !result with Some r -> r | None -> assert false

(* A posteriori optimality check for the dual simplex: the final basis
   must be dual feasible under exactly-recomputed reduced costs.  If
   drift broke it, fall back to a cold solve rather than return a
   primal-feasible but suboptimal point. *)
let dual_feasible st =
  let y = st.y in
  btran st st.cost y;
  let ok = ref true in
  for j = 0 to st.ntot - 1 do
    if !ok && st.vstat.(j) <> basic && st.lo.(j) < st.up.(j) then begin
      let d = st.cost.(j) -. col_dot st y j in
      if st.vstat.(j) = at_lower && d < -1e-6 then ok := false
      else if st.vstat.(j) = at_upper && d > 1e-6 then ok := false
      else if st.vstat.(j) = free && Float.abs d > 1e-6 then ok := false
    end
  done;
  !ok

let dual_resolve ?iter_limit st rhs =
  if Array.length rhs <> st.m then invalid_arg "Simplex.resolve_rhs";
  Array.blit rhs 0 st.b 0 st.m;
  let iter_limit =
    match iter_limit with Some l -> l | None -> default_iter_limit st
  in
  let cold () = cold_solve ~iter_limit st in
  match st.last_status with
  | Some Optimal -> (
      Trace.incr c_warm_attempts;
      recompute_xb st;
      st.hphase <- phase_dual;
      let iters = ref 0 in
      match dual_loop st ~iter_limit iters with
      | D_optimal ->
          if dual_feasible st then begin
            Trace.incr c_warm_hits;
            (* elevated instrumentation only: sampling every warm
               resolve would tax the sweep hot path for little signal *)
            if Health.capture st.health then
              health_sample st ~kind:Health.Final ~eta:(eta_epoch_of st)
                ~patched:[];
            extract_solution st ~status:Optimal ~iterations:!iters
          end
          else begin
            Trace.incr c_warm_fallbacks;
            Health.note_dual_guard_trip ();
            Log.debug (fun m ->
                m "dual simplex drifted out of dual feasibility; cold re-solve");
            cold ()
          end
      | D_infeasible ->
          (* confirm with a cold solve to guard against numerics *)
          let sol = cold () in
          if sol.status = Optimal then begin
            Trace.incr c_warm_fallbacks;
            sol
          end
          else begin
            (* the warm dual correctly proved infeasibility *)
            Trace.incr c_warm_hits;
            extract_solution st ~status:Infeasible ~iterations:!iters
          end
      | D_iter_limit ->
          Trace.incr c_warm_fallbacks;
          cold ())
  | _ -> cold ()

let resolve_rhs ?iter_limit st rhs =
  Trace.in_span sp_resolve @@ fun () -> dual_resolve ?iter_limit st rhs

let solve_warm ?iter_limit st =
  match st.last_status with
  | Some Optimal ->
      (* model RHS may have been mutated by the caller through the
         handle's captured copy; re-read is the caller's duty via
         [resolve_rhs].  Here just re-run from the current state. *)
      dual_resolve ?iter_limit st (Array.copy st.b)
  | _ -> cold_solve ?iter_limit st

let extend st model =
  let st2 = create ?eta_limit:st.eta_limit model in
  if st2.n <> st.n || st2.m < st.m then
    invalid_arg "Simplex.extend: model must only gain rows";
  match st.last_status with
  | Some Optimal -> (
      let remap j =
        if j < st.n then j
        else if j < st.n + st.m then st2.n + (j - st.n)
        else st2.n + st2.m + (j - st.n - st.m)
      in
      for j = 0 to st.n - 1 do
        st2.vstat.(j) <- st.vstat.(j);
        st2.xn.(j) <- st.xn.(j)
      done;
      for i = 0 to st.m - 1 do
        let os = st.n + i and oa = st.n + st.m + i in
        st2.vstat.(remap os) <- st.vstat.(os);
        st2.xn.(remap os) <- st.xn.(os);
        st2.vstat.(remap oa) <- at_lower;
        st2.xn.(remap oa) <- 0.
      done;
      for i = 0 to st.m - 1 do
        let b = remap st.bas.(i) in
        st2.bas.(i) <- b;
        st2.vstat.(b) <- basic
      done;
      for i = st.m to st2.m - 1 do
        st2.bas.(i) <- st2.n + i;
        st2.vstat.(st2.n + i) <- basic
      done;
      (* With the new rows' slacks basic the basis is block
         triangular, [[B, 0], [C, I]]; a fresh sparse factorization is
         cheap (the appended unit columns pivot first) and replaces the
         dense block-inverse construction of the pre-sparse solver. *)
      ignore (refactorize st2);
      (* same costs, appended basic slacks: the old duals remain
         feasible, so flag the state warm for the dual simplex *)
      st2.last_status <- Some Optimal;
      st2)
  | _ -> st2

(* ------------------------------------------------------------------ *)
(* Elevated-instrumentation entry points for [Doctor].                 *)
(* ------------------------------------------------------------------ *)

let solve_doctor ?iter_limit ?eta_limit ?thresholds model =
  let st = create ?eta_limit ?thresholds model in
  Health.set_capture st.health true;
  let sol = cold_solve ?iter_limit st in
  (sol, st.health)

let diagnose_basis ?eta_limit ?thresholds ?(phase = 0) ?(iteration = 0) model
    ~bas ~vstat =
  let st = create ?eta_limit ?thresholds model in
  if Array.length bas <> st.m || Array.length vstat <> st.ntot then
    invalid_arg "Simplex.diagnose_basis: dimension mismatch";
  Health.set_capture st.health true;
  Array.blit bas 0 st.bas 0 st.m;
  Array.blit vstat 0 st.vstat 0 st.ntot;
  for j = 0 to st.ntot - 1 do
    let s = st.vstat.(j) in
    if s = at_lower then
      st.xn.(j) <- (if st.lo.(j) > neg_infinity then st.lo.(j) else 0.)
    else if s = at_upper then
      st.xn.(j) <- (if st.up.(j) < infinity then st.up.(j) else 0.)
    else if s = free then st.xn.(j) <- 0.
  done;
  st.hphase <- phase;
  st.hiter <- iteration;
  ignore (refactorize st);
  st.health

let solve ?iter_limit model =
  Trace.in_span sp_solve @@ fun () ->
  let st = create model in
  let sol = cold_solve ?iter_limit st in
  (if sol.status = Optimal then
     let viol = Lp_model.max_violation model sol.x in
     if viol > 1e-5 then
       Log.warn (fun m ->
           m "solution of %s violates constraints by %g"
             (Lp_model.name model) viol));
  sol
