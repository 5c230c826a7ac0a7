(* End-to-end validation of every TE scheme on the paper's toy
   examples (Figs 1-4, 16, 17 and Propositions 1-2), where the optimal
   answers are known analytically. *)

open Flexile_te

let feq ?(eps = 1e-5) a b = Float.abs (a -. b) <= eps

let check_float ~msg expected actual =
  if not (feq expected actual) then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let fig1 = Flexile_core.Builder.fig1 ()

let perc inst losses = Metrics.perc_loss inst losses ~cls:0 ()

(* In Fig 1's triangle, ScenBest can only guarantee 0.5 units at the
   99th percentile: when A-B fails, the scenario-optimal allocation
   gives both flows 0.5. *)
let test_fig1_scenbest () =
  let losses = Scenbest.run fig1 in
  check_float ~msg:"ScenBest PercLoss at 0.99" 0.5 (perc fig1 losses)

let test_fig1_teavar () =
  let r = Teavar.run fig1 in
  let p = perc fig1 r.Teavar.losses in
  if p < 0.485 -. 1e-6 then
    Alcotest.failf "Teavar PercLoss %.4f below the 48.5%% bound of Prop 2" p

(* Proposition 2: both CVaR generalizations still suffer >= 48.51%
   loss at the percentile, despite flow-level evaluation. *)
let test_fig1_cvar_prop2 () =
  let st = Cvar_flow.run_static fig1 in
  let ad = Cvar_flow.run_adaptive fig1 in
  let p_st = perc fig1 st.Cvar_flow.losses in
  let p_ad = perc fig1 ad.Cvar_flow.losses in
  if p_st < 0.4851 -. 1e-4 then
    Alcotest.failf "Cvar-Flow-St PercLoss %.4f < 0.4851" p_st;
  if p_ad < 0.4851 -. 1e-4 then
    Alcotest.failf "Cvar-Flow-Ad PercLoss %.4f < 0.4851" p_ad

(* Flexile meets both flows' requirements: each flow is prioritized in
   the scenarios where its direct link is alive, so PercLoss = 0. *)
let test_fig1_flexile () =
  let r = Flexile_scheme.run fig1 in
  check_float ~msg:"Flexile PercLoss at 0.99" 0. (perc fig1 r.Flexile_scheme.losses)

(* The exact IP also achieves 0; and Flexile matches it. *)
let test_fig1_ip () =
  let r = Ip_direct.solve fig1 in
  if not r.Ip_direct.optimal then Alcotest.fail "IP did not prove optimality";
  check_float ~msg:"IP PercLoss" 0. (perc fig1 r.Ip_direct.losses)

(* Proposition 1: the starting point of the decomposition is already at
   least as good as ScenBest. *)
let test_fig1_prop1 () =
  let r = Flexile_offline.solve fig1 in
  let initial = List.hd r.Flexile_offline.iterates in
  let scenbest = Scenbest.run fig1 in
  let p0 = perc fig1 initial.Flexile_offline.losses in
  let pb = perc fig1 scenbest in
  if p0 > pb +. 1e-6 then
    Alcotest.failf "starting point %.4f worse than ScenBest %.4f" p0 pb

(* The lower bound is 0 here: each flow alone can use its direct link. *)
let test_fig1_lower_bound () =
  check_float ~msg:"lower bound" 0. (Lower_bound.perc_loss_lower_bound fig1 ~cls:0)

(* An isolated-flow LP that is not solved to optimality proves nothing
   about the flow, so the bound must assume it is fully served (loss
   0), never fully lost.  Negative capacities make every LP of
   scenario 0 infeasible. *)
let test_lower_bound_unsolved_is_sound () =
  let inst = Flexile_core.Builder.fig1 () in
  let cap_frac =
    inst.Instance.scenarios.(0).Flexile_failure.Failure_model.cap_frac
  in
  Array.fill cap_frac 0 (Array.length cap_frac) (-1.);
  let iso = Lower_bound.isolated_losses inst in
  Array.iter
    (fun (f : Instance.flow) ->
      if Instance.demand_in inst f 0 > 0. then
        check_float
          ~msg:(Printf.sprintf "flow %d isolated loss" f.Instance.fid)
          0. iso.(f.Instance.fid).(0))
    inst.Instance.flows

(* Fig 16: removing link B-C, ScenBest meets the objectives (each flow
   has only its direct link, so scenario-optimal routing serves it
   fully whenever it is alive). *)
let test_fig16_scenbest_ok () =
  let graph = Flexile_net.Catalog.two_link () in
  let mk pair edges =
    Flexile_net.Tunnels.make graph ~pair (Array.of_list edges)
  in
  let fm = Flexile_failure.Failure_model.of_probs ~nedges:2 [| 0.01; 0.01 |] in
  let scenarios =
    Flexile_failure.Failure_model.enumerate ~cutoff:1e-7 ~max_scenarios:4 fm
  in
  let inst =
    Instance.make ~graph
      ~classes:[| { Instance.cname = "all"; beta = 0.99; weight = 1. } |]
      ~pairs:[| (0, 1); (0, 2) |]
      ~tunnels:[| [| [| mk (0, 1) [ 0 ] |]; [| mk (0, 2) [ 1 ] |] |] |]
      ~demands:[| [| 1.; 1. |] |]
      ~scenarios ()
  in
  let losses = Scenbest.run inst in
  check_float ~msg:"two-link ScenBest PercLoss" 0. (perc inst losses);
  (* ... demonstrating the monotonicity anomaly: ScenBest does worse
     on the triangle (Fig 1) which has an extra link. *)
  let triangle = Scenbest.run fig1 in
  if perc fig1 triangle <= 1e-6 then
    Alcotest.fail "expected ScenBest anomaly on the richer topology"

(* Fig 17: max-min in each scenario starves f1 across scenarios, while
   Flexile meets both flows' targets. *)
let test_fig17 () =
  let inst = Flexile_core.Builder.fig17 () in
  (* per-scenario max-min (= ScenBest with refinement) *)
  let maxmin = Scenbest.run inst in
  let f1 = inst.Instance.flows.(0) and f2 = inst.Instance.flows.(1) in
  let v1 = Metrics.flow_loss_var inst maxmin f1 ~beta:0.99 in
  let v2 = Metrics.flow_loss_var inst maxmin f2 ~beta:0.99 in
  check_float ~msg:"maxmin f2 meets target" 0. v2;
  if v1 <= 1e-6 then Alcotest.fail "expected maxmin to starve f1";
  let r = Flexile_scheme.run inst in
  let w1 = Metrics.flow_loss_var inst r.Flexile_scheme.losses f1 ~beta:0.99 in
  let w2 = Metrics.flow_loss_var inst r.Flexile_scheme.losses f2 ~beta:0.99 in
  check_float ~msg:"Flexile f1" 0. w1;
  check_float ~msg:"Flexile f2" 0. w2

(* Flexile respects scenario-level behaviour: in Fig 1, its loss
   penalty relative to ScenBest is bounded (both flows can still get
   0.5 in single-failure scenarios when gamma = 0). *)
let test_fig1_gamma_variant () =
  let config =
    { Flexile_offline.default_config with gamma = Some 0.0 }
  in
  let r = Flexile_scheme.run ~config fig1 in
  (* with gamma = 0 no flow may do worse than the scenario optimum, so
     Flexile collapses to ScenBest behaviour: PercLoss 0.5 *)
  check_float ~msg:"gamma=0 PercLoss" 0.5 (perc fig1 r.Flexile_scheme.losses)

let test_fig1_scenloss_penalty () =
  (* Flexile's ScenLoss penalty vs optimal: in single-failure scenarios
     Flexile gives the critical flow 1.0 and the other 0, so ScenLoss
     is 1 vs optimal 0.5 — but those scenarios are non-critical for
     the starved flow, and at the 99th percentile the penalty is 0. *)
  let r = Flexile_scheme.run fig1 in
  let baseline = Scenbest.run fig1 in
  let cdf =
    Metrics.scenario_penalty_cdf fig1 r.Flexile_scheme.losses ~baseline
  in
  (* penalty at cumulative mass >= 0.98 must be 0: the no-failure
     scenario alone has mass 0.9703 and zero penalty, plus B-C failure *)
  let zero_mass =
    List.fold_left
      (fun acc (v, _) -> if v <= 1e-6 then acc else acc)
      0. cdf
  in
  ignore zero_mass;
  let mass_at_zero =
    List.fold_left
      (fun acc (v, c) -> if v <= 1e-6 then Float.max acc c else acc)
      0. cdf
  in
  if mass_at_zero < 0.97 then
    Alcotest.failf "zero-penalty mass %.4f too small" mass_at_zero

(* Appendix B: minimum-cost capacity augmentation.  On the triangle,
   Flexile-style planning needs no extra capacity for zero loss at 99%
   while the scenario-centric plan must double both access links (the
   "2X upgrade" of §3). *)
let test_capacity_augmentation () =
  let per_flow = Augment.min_cost ~mode:`Per_flow ~perc_limit:[| 0. |] fig1 in
  if not per_flow.Augment.optimal then Alcotest.fail "per-flow MIP not optimal";
  check_float ~msg:"Flexile planning cost" 0. per_flow.Augment.cost;
  let common = Augment.min_cost ~mode:`Common ~perc_limit:[| 0. |] fig1 in
  if not common.Augment.optimal then Alcotest.fail "common MIP not optimal";
  check_float ~msg:"scenario-centric cost" 2. common.Augment.cost;
  (* relaxing the loss target halves the needed upgrade *)
  let relaxed = Augment.min_cost ~mode:`Common ~perc_limit:[| 0.25 |] fig1 in
  check_float ~msg:"relaxed cost" 1. relaxed.Augment.cost

(* §4.4 "more general scenarios": per-scenario traffic matrices.  On
   the triangle, let f2's demand vanish in the scenario where A-B
   fails: then f1 can use the A-C-B detour there, so even at a target
   covering that scenario both flows are lossless. *)
let test_demand_scenarios () =
  let graph = Flexile_net.Catalog.triangle () in
  let mk pair edges = Flexile_net.Tunnels.make graph ~pair (Array.of_list edges) in
  let tunnels =
    [|
      [|
        [| mk (0, 1) [ 0 ]; mk (0, 1) [ 1; 2 ] |];
        [| mk (0, 2) [ 1 ]; mk (0, 2) [ 0; 2 ] |];
      |];
    |]
  in
  let fm = Flexile_failure.Failure_model.of_probs ~nedges:3 [| 0.01; 0.01; 0.01 |] in
  let scenarios =
    Flexile_failure.Failure_model.enumerate ~cutoff:1e-7 ~max_scenarios:8 fm
  in
  (* factors: f2 (fid 1) demands nothing whenever link A-B (edge 0) is
     down; f1 (fid 0) demands nothing whenever A-C (edge 1) is down *)
  let factors =
    Array.map
      (fun (s : Flexile_failure.Failure_model.scenario) ->
        [|
          (if s.Flexile_failure.Failure_model.edge_alive.(1) then 1. else 0.);
          (if s.Flexile_failure.Failure_model.edge_alive.(0) then 1. else 0.);
        |])
      scenarios
  in
  let inst =
    Instance.make ~graph
      ~classes:[| { Instance.cname = "all"; beta = 0.9997; weight = 1. } |]
      ~pairs:[| (0, 1); (0, 2) |]
      ~tunnels
      ~demands:[| [| 1.; 1. |] |]
      ~demand_factors:factors ~scenarios ()
  in
  (* with the complementary demand pattern the whole capacity is free
     for the surviving flow: PercLoss 0 even at 99.97% *)
  let r = Flexile_scheme.run inst in
  check_float ~msg:"demand-scenario PercLoss" 0.
    (Metrics.perc_loss inst r.Flexile_scheme.losses ~cls:0 ());
  (* sanity: without the factors the same beta is unattainable *)
  let inst_plain =
    Instance.make ~graph
      ~classes:[| { Instance.cname = "all"; beta = 0.9997; weight = 1. } |]
      ~pairs:[| (0, 1); (0, 2) |]
      ~tunnels
      ~demands:[| [| 1.; 1. |] |]
      ~scenarios ()
  in
  let p = Flexile_scheme.run inst_plain in
  if Metrics.perc_loss inst_plain p.Flexile_scheme.losses ~cls:0 () <= 1e-6 then
    Alcotest.fail "expected nonzero PercLoss without demand scenarios"

(* §6.2's throughput-unfairness example: on a path A-B-C with unit
   links, maximizing throughput serves AB and BC fully and starves AC
   entirely, while max-min gives everyone 0.5. *)
let test_abc_throughput_starves () =
  let graph =
    Flexile_net.Graph.create ~name:"path" ~n:3 [| (0, 1, 1.); (1, 2, 1.) |]
  in
  let mk pair edges = Flexile_net.Tunnels.make graph ~pair (Array.of_list edges) in
  let fm = Flexile_failure.Failure_model.of_probs ~nedges:2 [| 0.01; 0.01 |] in
  let scenarios =
    Flexile_failure.Failure_model.enumerate ~cutoff:0.5 ~max_scenarios:1 fm
  in
  (* only the no-failure scenario: isolates the allocation policy *)
  Alcotest.(check int) "single scenario" 1 (Array.length scenarios);
  let inst =
    Instance.make ~graph
      ~classes:[| { Instance.cname = "all"; beta = 0.9; weight = 1. } |]
      ~pairs:[| (0, 1); (0, 2); (1, 2) |]
      ~tunnels:
        [|
          [|
            [| mk (0, 1) [ 0 ] |]; [| mk (0, 2) [ 0; 1 ] |]; [| mk (1, 2) [ 1 ] |];
          |];
        |]
      ~demands:[| [| 1.; 1.; 1. |] |]
      ~scenarios ()
  in
  let tp = Swan.run_throughput inst in
  let ab = inst.Instance.flows.(0)
  and ac = inst.Instance.flows.(1)
  and bc = inst.Instance.flows.(2) in
  check_float ~msg:"throughput AB full" 0. tp.(ab.Instance.fid).(0);
  check_float ~msg:"throughput BC full" 0. tp.(bc.Instance.fid).(0);
  check_float ~msg:"throughput starves AC" 1. tp.(ac.Instance.fid).(0);
  let mm = Swan.run_maxmin inst in
  check_float ~msg:"maxmin AB" 0.5 mm.(ab.Instance.fid).(0);
  check_float ~msg:"maxmin AC" 0.5 mm.(ac.Instance.fid).(0);
  check_float ~msg:"maxmin BC" 0.5 mm.(bc.Instance.fid).(0)

(* FFC (§2): planning for one arbitrary link failure grants each
   triangle flow only 0.5 units — it pays the 50% toll in EVERY
   scenario, including the 97%-probable no-failure state, which is
   exactly the conservatism the paper's probabilistic approach avoids. *)
let test_ffc_conservatism () =
  let r = Ffc.run ~k:1 fig1 in
  Array.iter
    (fun (f : Instance.flow) ->
      check_float ~msg:"granted 0.5" 0.5 r.Ffc.granted.(f.Instance.fid);
      check_float ~msg:"loss 0.5 even with no failure" 0.5
        r.Ffc.losses.(f.Instance.fid).(0))
    fig1.Instance.flows;
  check_float ~msg:"FFC PercLoss" 0.5 (perc fig1 r.Ffc.losses);
  (* k = 0 degenerates to unprotected max-throughput: full grants *)
  let r0 = Ffc.run ~k:0 fig1 in
  Array.iter
    (fun (f : Instance.flow) ->
      check_float ~msg:"k=0 grants full demand" 1. r0.Ffc.granted.(f.Instance.fid))
    fig1.Instance.flows;
  (* k = 2 on the triangle: two failures can kill both tunnels, so
     nothing can be guaranteed *)
  let r2 = Ffc.run ~k:2 fig1 in
  Array.iter
    (fun (f : Instance.flow) ->
      check_float ~msg:"k=2 grants nothing" 0. r2.Ffc.granted.(f.Instance.fid))
    fig1.Instance.flows

(* Shared-risk link groups (§4.1): edges A-B and A-C belong to one
   SRLG (say, a shared conduit out of A), so they fail together; the
   B-C link is its own SRLG.  Both flows then lose everything whenever
   the shared group fails, and no scheme can do better than loss 1 in
   that scenario — but at 98.9% both flows are still servable. *)
let test_srlg_scenarios () =
  let graph = Flexile_net.Catalog.triangle () in
  let mk pair edges = Flexile_net.Tunnels.make graph ~pair (Array.of_list edges) in
  let fm =
    Flexile_failure.Failure_model.grouped
      ~groups:[| [| 0; 1 |]; [| 2 |] |]
      ~probs:[| 0.01; 0.01 |] ~nedges:3
  in
  let scenarios =
    Flexile_failure.Failure_model.enumerate ~cutoff:0. ~max_scenarios:4 fm
  in
  Alcotest.(check int) "4 SRLG scenarios" 4 (Array.length scenarios);
  let inst =
    Instance.make ~graph
      ~classes:[| { Instance.cname = "all"; beta = 0.989; weight = 1. } |]
      ~pairs:[| (0, 1); (0, 2) |]
      ~tunnels:
        [|
          [|
            [| mk (0, 1) [ 0 ]; mk (0, 1) [ 1; 2 ] |];
            [| mk (0, 2) [ 1 ]; mk (0, 2) [ 0; 2 ] |];
          |];
        |]
      ~demands:[| [| 1.; 1. |] |]
      ~scenarios ()
  in
  (* when SRLG 0 fails, both flows are disconnected *)
  let bad =
    Array.to_list inst.Instance.scenarios
    |> List.find (fun (s : Flexile_failure.Failure_model.scenario) ->
           Array.mem 0 s.Flexile_failure.Failure_model.failed_units)
  in
  Array.iter
    (fun f ->
      if Instance.flow_connected inst f bad.Flexile_failure.Failure_model.sid
      then Alcotest.fail "flow should be disconnected under the SRLG")
    inst.Instance.flows;
  let r = Flexile_scheme.run inst in
  check_float ~msg:"SRLG PercLoss at 0.989" 0.
    (Metrics.perc_loss inst r.Flexile_scheme.losses ~cls:0 ())

(* §4.4 imperfect probability prediction: designing against perturbed
   probabilities at a slightly higher target still meets the true SLO,
   because only the cumulative mass of the selected critical scenarios
   matters. *)
let test_imperfect_probabilities () =
  let graph = Flexile_net.Catalog.triangle () in
  let mk pair edges = Flexile_net.Tunnels.make graph ~pair (Array.of_list edges) in
  let tunnels =
    [|
      [|
        [| mk (0, 1) [ 0 ]; mk (0, 1) [ 1; 2 ] |];
        [| mk (0, 2) [ 1 ]; mk (0, 2) [ 0; 2 ] |];
      |];
    |]
  in
  let build probs beta =
    let fm = Flexile_failure.Failure_model.of_probs ~nedges:3 probs in
    let scenarios =
      Flexile_failure.Failure_model.enumerate ~cutoff:0. ~max_scenarios:8 fm
    in
    Instance.make ~graph
      ~classes:[| { Instance.cname = "all"; beta; weight = 1. } |]
      ~pairs:[| (0, 1); (0, 2) |]
      ~tunnels
      ~demands:[| [| 1.; 1. |] |]
      ~scenarios ()
  in
  (* predicted probabilities underestimate the truth by 25%; the SLO is
     98.5%, and we design at the compensated target 99.2% so the
     critical scenarios' true mass still covers the SLO *)
  let predicted = build [| 0.006; 0.006; 0.006 |] 0.992 in
  let truth = build [| 0.008; 0.008; 0.008 |] 0.985 in
  (* same link order and uniform probabilities: scenario enumeration
     order matches, so the critical sets carry over *)
  let off = Flexile_offline.solve predicted in
  let losses = Flexile_online.run truth ~offline:off in
  check_float ~msg:"true SLO met despite prediction error" 0.
    (Metrics.perc_loss truth losses ~cls:0 ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flexile_te_toy"
    [
      ( "fig1",
        [
          quick "scenbest caps at 0.5" test_fig1_scenbest;
          quick "teavar conservative" test_fig1_teavar;
          quick "cvar schemes (prop 2)" test_fig1_cvar_prop2;
          quick "flexile achieves 0" test_fig1_flexile;
          quick "ip achieves 0" test_fig1_ip;
          quick "starting point (prop 1)" test_fig1_prop1;
          quick "lower bound" test_fig1_lower_bound;
          quick "lower bound on unsolved LP" test_lower_bound_unsolved_is_sound;
          quick "gamma=0 collapses to scenbest" test_fig1_gamma_variant;
          quick "scenario penalty bounded" test_fig1_scenloss_penalty;
        ] );
      ( "anomalies",
        [
          quick "fig16 monotonicity" test_fig16_scenbest_ok;
          quick "fig17 cross-scenario fairness" test_fig17;
          quick "a-b-c throughput starvation" test_abc_throughput_starves;
          quick "ffc conservatism" test_ffc_conservatism;
        ] );
      ( "generalizations",
        [
          quick "per-scenario traffic matrices" test_demand_scenarios;
          quick "capacity augmentation (appendix B)" test_capacity_augmentation;
          quick "shared-risk link groups" test_srlg_scenarios;
          quick "imperfect probability prediction" test_imperfect_probabilities;
        ] );
    ]
