(** Fixed domain pool with a deterministic, ordered parallel [map] over
    the integer indices [0 .. n-1].

    Work is sharded {e statically and cyclically}: with [j] effective
    jobs, index [i] is always processed by worker [i mod j], and each
    worker visits its indices in ascending order.  Two consequences the
    rest of the repository relies on:

    - the result array is in index order and independent of scheduling,
      so a pure [f] gives bit-identical results for every job count;
    - a {e stateful} worker (e.g. a warm-started simplex instance) sees
      a deterministic subsequence of the indices, so runs are
      reproducible for a fixed job count.

    The sequential fallback (effective jobs = 1, or [n <= 1]) runs
    entirely in the calling domain and spawns nothing. *)

val resolve_jobs : int option -> int
(** [None] and [Some 0] mean "auto": [Domain.recommended_domain_count ()]
    clamped to [1, 64].  [Some j] is clamped to [1, 64]. *)

type pool
(** A fixed set of worker domains, reusable across many [map] calls.
    Pools are not reentrant: issue one [map] at a time per pool, and do
    not call [map] from inside a worker function. *)

val create : jobs:int -> pool
(** Spawn a pool with [jobs] effective workers ([jobs - 1] domains plus
    the calling domain, which participates in every [map]). *)

val jobs : pool -> int

val shutdown : pool -> unit
(** Join the worker domains.  Idempotent.  The global pool used by the
    [?pool]-less calls is shut down automatically [at_exit]. *)

val map :
  ?pool:pool ->
  ?jobs:int ->
  n:int ->
  init:(int -> 'state) ->
  f:('state -> int -> 'a) ->
  unit ->
  'a array
(** [map ~n ~init ~f ()] is [[| f s0 0; f s1 1; ... |]] where worker
    [w] evaluates [f] on indices [i] with [i mod jobs = w] using its own
    state [init w] (created once per call, only for workers that have
    work).  Without [?pool], a process-global pool of the resolved job
    count is (re)used.  If any [init] or [f] application raises, the
    first exception (in scheduling order) is re-raised in the caller
    after all workers have drained. *)

val map_reduce :
  ?pool:pool ->
  ?jobs:int ->
  n:int ->
  init:(int -> 'state) ->
  f:('state -> int -> 'a) ->
  fold:('acc -> 'a -> 'acc) ->
  'acc ->
  'acc
(** [map] followed by a sequential left fold in index order — the
    reduction order is deterministic whatever the job count. *)
