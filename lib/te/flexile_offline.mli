(** Flexile's offline phase (§4.2): choose the critical failure
    scenarios of every flow so that the weighted sum of per-class
    percentile losses (PercLoss) is minimized.

    Implements Algorithm 1 with the paper's accelerations:
    - the problem is decomposed into a master MIP proposing critical
      scenarios and one small LP subproblem per scenario;
    - subproblems use the RHS-only reformulation (17)-(18), so one
      template model serves every scenario with only its RHS rewritten,
      and one scenario's dual solution yields valid cuts for every
      other scenario (cut sharing, eq. (22)).  Each subproblem is
      solved cold: the paper's dual-simplex warm restarts across
      scenarios measured ~100x slower than cold solves with this
      repository's simplex, so they are not used;
    - perfect scenarios (all flows served losslessly) and scenarios
      whose critical-flow set did not change are pruned;
    - a Hamming-distance constraint (23) stabilizes the master;
    - the starting point sets a flow's critical scenarios to all
      scenarios in which it is connected, which already guarantees a
      solution at least as good as TeaVar or ScenBest (Proposition 1). *)

type config = {
  max_iterations : int;  (** outer iterations; the paper uses 5 *)
  hamming_limit : int option;
      (** max flips of z per iteration; [None] disables (23) *)
  gamma : float option;
      (** §4.4: bound every flow's loss in scenario q by
          [gamma + optimal ScenLoss of q] *)
  share_cuts : bool;  (** generate cuts (22) for unsolved scenarios *)
  prune : bool;
      (** prune perfect and unchanged scenarios (§4.2); disable only
          for ablation studies *)
  jobs : int;
      (** worker domains for the subproblem sweep (via
          {!Scenario_engine}); [0] = auto ([FLEXILE_JOBS] or one per
          core).  Subproblems are cold-solved, so the result is
          bit-identical for every job count *)
  master : Flexile_lp.Mip.options;
}

val default_config : config

type iterate = {
  iteration : int;  (** 0 is the connectivity starting point *)
  z : bool array array;  (** criticality: flow id x scenario id *)
  losses : Instance.losses;
      (** losses of the subproblems' routing under this z — an
          achievable routing, so the penalty is a true upper bound *)
  penalty : float;  (** achieved weighted PercLoss of this iterate *)
}

type result = {
  iterates : iterate list;  (** chronological, starting point first *)
  best : iterate;  (** lowest achieved penalty *)
  lower_bound : float;  (** best master bound (valid if master exact) *)
  subproblems_solved : int;
  wall_time : float;
}

val solve : ?config:config -> Instance.t -> result

val selfcheck_subproblems : ?jobs:int -> Instance.t -> (int * float * float) list
(** Regression harness for the dual simplex ({!Flexile_lp.Simplex.resolve_rhs},
    the warm restart {!Flexile_lp.Row_gen} depends on): solve every
    scenario's subproblem (all connected flows critical) both by a
    dual-simplex restart from the previous scenario's basis and by a
    cold solve; returns [(sid, warm, cold)] for scenarios whose
    objectives disagree beyond tolerance.  Empty on a healthy solver.
    With [jobs > 1] the sweep runs domain-parallel, each shard
    warm-restarting its own simplex state. *)

val trace_summary : unit -> (string * float) list
(** Derived observability metrics of the most recent run(s), read from
    the {!Flexile_util.Trace} registry: cuts generated/shared,
    scenarios pruned, subproblems solved, per-phase wall time.  All
    zero when tracing is disabled. *)

val trace_json : unit -> string
(** [{"derived": {..}, "report": <Trace.to_json ()>}] — the structured
    trace section embedded by [bench --json] and written by
    [flexile --trace OUT.json]. *)
