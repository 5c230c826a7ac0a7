(** Frozen dense reference simplex.

    The pre-sparse solver (explicit dense basis inverse, O(m^2) pivots)
    kept as a differential oracle for the LU/eta-file path in
    {!Simplex}: the sparse differential tests and the [flexile doctor]
    cross-check compare against its cold solve.  New solver work
    belongs in {!Simplex} / {!Sparse}, not here. *)

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

val solve : ?iter_limit:int -> Lp_model.t -> solution
(** Solve from a cold (slack) basis; same contract as {!Simplex.solve}. *)
