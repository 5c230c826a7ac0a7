(** Benchmark regression gate: schema-versioned baseline files of
    per-phase median wall times (committed as [BENCH_PR3.json]) and the
    comparison logic behind [bench --check].  Library code so the
    pass/fail logic is unit-testable on synthetic baselines. *)

val schema : string

val version : int
(** Current writer version (3).  v2 marks the addition of the
    ["histograms"] extra section to [bench --json] documents; v3 adds
    the ["doctor"] phase and the ["solver_health"] extra section.  The
    phase layout the gate compares is unchanged since v1, and
    {!of_json} reads any version up to [version] (v1/v2 baselines such
    as [BENCH_PR3.json] and [BENCH_PR8.json] stay loadable). *)

type phase = { pname : string; median_seconds : float }

type baseline = {
  profile : string;
  jobs : int;
  repetitions : int;
  phases : phase list;
}

val median : float list -> float
(** Median of the samples ([0.] for an empty list; mean of the middle
    pair for even counts). *)

val to_json : ?extra:(string * Json.t) list -> baseline -> Json.t
(** The baseline document.  [extra] appends further top-level members
    (e.g. an embedded trace report); readers ignore unknown keys. *)

val of_json : Json.t -> (baseline, string) result
val load : string -> (baseline, string) result
val save : string -> baseline -> unit

type verdict = {
  vphase : string;
  base_seconds : float;
  current_seconds : float;  (** [nan] when missing from the run *)
  ratio : float;
  regressed : bool;
}

val check :
  baseline:baseline ->
  current:(string * float) list ->
  tolerance_pct:float ->
  ?min_seconds:float ->
  unit ->
  verdict list
(** One verdict per tracked (baseline) phase, in baseline order.  A
    phase regresses when it exceeds the baseline median by more than
    [tolerance_pct] percent {e and} by more than [min_seconds]
    (default 0.02s) absolute; a tracked phase missing from [current]
    is a regression.  Phases only in [current] are ignored (they will
    be tracked when the baseline is regenerated). *)

val passed : verdict list -> bool

val print_verdicts : tolerance_pct:float -> verdict list -> unit
