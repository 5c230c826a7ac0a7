(** ScenBest (§2): re-route optimally in every failure scenario.

    With a single traffic class and the MLU metric this is exactly
    SMORE's failure recovery (optimal splitting over the live tunnels).
    After minimizing the worst connected flow's loss, remaining freedom
    is resolved by max-min on flow loss, so per-flow losses vary (the
    flow-level CDFs of Fig. 5 are over these).  Disconnected flows get
    loss 1 in the scenario.

    All entry points sweep scenarios through {!Scenario_engine};
    [jobs = 0] (the default) means auto (one worker per core), and
    results are identical for every job count. *)

val run : ?jobs:int -> Instance.t -> Instance.losses
(** Single-class ScenBest / SMORE: ignores class boundaries (treats
    all flows uniformly), which is how the paper uses SMORE. *)

val run_multi : ?jobs:int -> Instance.t -> Instance.losses
(** ScenBest-Multi (§6.3): classes in priority order, each receiving a
    scenario-optimal max-min allocation; the routing of higher classes
    is re-optimized jointly with lower classes. *)

val scen_loss_optimal : ?jobs:int -> Instance.t -> float array
(** Per-scenario optimal ScenLoss (worst connected flow loss, all
    classes together): the baseline of Fig. 6, also used by the
    gamma-bounded Flexile variant of §4.4. *)
