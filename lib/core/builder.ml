module Prng = Flexile_util.Prng
module Graph = Flexile_net.Graph
module Tunnels = Flexile_net.Tunnels
module Failure_model = Flexile_failure.Failure_model
module Scenario_gen = Flexile_failure.Scenario_gen
module Gravity = Flexile_traffic.Gravity
module Instance = Flexile_te.Instance
module Mlu = Flexile_te.Mlu

type options = {
  max_pairs : int;
  max_scenarios : int;
  scenario_cutoff : float;
  scenario_mix : string;
  mlu_lo : float;
  mlu_hi : float;
  tunnels_per_pair : int;
  low_extra_tunnels : int;
  low_scale : float;
  low_beta : float;
  high_weight : float;
  median_failure_prob : float;
  jobs : int;
}

let default_options =
  {
    max_pairs = 240;
    max_scenarios = 150;
    scenario_cutoff = 1e-6;
    scenario_mix = "independent";
    mlu_lo = 0.5;
    mlu_hi = 0.7;
    tunnels_per_pair = 3;
    low_extra_tunnels = 3;
    low_scale = 2.0;
    low_beta = 0.99;
    high_weight = 100.;
    median_failure_prob = 0.001;
    jobs = 0;
  }

let known_regimes =
  [ "independent"; "srlg"; "partial"; "drift"; "diurnal"; "maintenance" ]

let parse_mix spec =
  let tokens =
    List.filter
      (fun s -> s <> "")
      (String.split_on_char ',' (String.lowercase_ascii (String.trim spec)))
  in
  if tokens = [] then invalid_arg "Builder: empty scenario mix";
  List.iter
    (fun t ->
      if not (List.mem t known_regimes) then
        invalid_arg
          (Printf.sprintf
             "Builder: unknown scenario regime %S (known: %s)" t
             (String.concat ", " known_regimes)))
    tokens;
  let seen = Hashtbl.create 8 in
  List.filter
    (fun t ->
      if Hashtbl.mem seen t then false
      else begin
        Hashtbl.add seen t ();
        true
      end)
    tokens

(* The shuffle permutes pair indices (the positions of [Graph.pairs]'s
   lexicographic order) rather than the pairs themselves: the same
   draws pick the same pairs, and only the chosen indices are decoded. *)
let sample_pairs ~seed ~max_pairs graph =
  let n = graph.Graph.n in
  let npairs = n * (n - 1) / 2 in
  if npairs <= max_pairs then Graph.pairs graph
  else begin
    let idx = Array.init npairs Fun.id in
    Prng.shuffle seed idx;
    let chosen = Array.sub idx 0 max_pairs in
    Array.sort Int.compare chosen;
    Array.map
      (fun i ->
        (* row u holds the n - 1 - u pairs (u, u+1 .. n-1) *)
        let u = ref 0 and i = ref i in
        while !i >= n - 1 - !u do
          i := !i - (n - 1 - !u);
          incr u
        done;
        (!u, !u + 1 + !i))
      chosen
  end

let scenarios_for ~options ~seed graph =
  let fm =
    Failure_model.independent_links ~median:options.median_failure_prob ~graph
      ~seed ()
  in
  Failure_model.enumerate ~cutoff:options.scenario_cutoff
    ~max_scenarios:options.max_scenarios fm

(* A deterministic weekly maintenance schedule for mixed-regime sets:
   the two lowest-id links each get a 4-hour window out of a 168-hour
   horizon, disjoint in time.  Purely a function of the topology. *)
let default_maintenance graph =
  let ne = Graph.nedges graph in
  let windows =
    if ne >= 2 then
      [
        {
          Scenario_gen.wname = "mw-0";
          wedges = [| 0 |];
          wstart = 10.;
          wduration = 4.;
        };
        { Scenario_gen.wname = "mw-1"; wedges = [| 1 |]; wstart = 60.; wduration = 4. };
      ]
    else
      [ { Scenario_gen.wname = "mw-0"; wedges = [| 0 |]; wstart = 10.; wduration = 4. } ]
  in
  Scenario_gen.maintenance ~nedges:ne ~horizon:168. windows

(* Enumerated scenario set for the configured mix.  The default
   "independent" mix takes the legacy Failure_model path unchanged —
   same PRNG draws, same enumeration — so every existing figure,
   monitor artifact, and baseline stays byte-identical.  Mixed regimes
   compose Scenario_gen generators, each drawing from its own
   name-split seed. *)
let scenario_set ~options ~seed ~graph ~npairs =
  if String.equal options.scenario_mix "independent" then
    (* legacy tags are derived by Instance.regime; returning None here
       keeps the instance record — and everything downstream —
       byte-identical to the pre-mix builds *)
    (scenarios_for ~options ~seed graph, None, None)
  else begin
    let tokens = parse_mix options.scenario_mix in
    let ne = Graph.nedges graph in
    let gen_of = function
      | "independent" ->
          Scenario_gen.independent_links ~median:options.median_failure_prob
            ~graph
            ~seed:(Prng.split seed "independent")
            ()
      | "srlg" ->
          Scenario_gen.srlg ~median:options.median_failure_prob ~nedges:ne
            ~groups:(Flexile_net.Catalog.srlgs graph)
            ~seed:(Prng.split seed "srlg")
            ()
      | "partial" ->
          Scenario_gen.partial ~median:options.median_failure_prob ~graph
            ~seed:(Prng.split seed "partial")
            ()
      | "drift" ->
          let states =
            Gravity.drift_states
              ~seed:(Prng.split seed "drift")
              ~npairs ()
          in
          Scenario_gen.demand_states ~nedges:ne ~name:"drift"
            (Array.map
               (fun (p, fs) -> (p, Scenario_gen.Per_pair fs))
               states)
      | "diurnal" ->
          Scenario_gen.diurnal ~nedges:ne
            ~levels:(Gravity.diurnal_levels ()) ()
      | "maintenance" -> default_maintenance graph
      | t -> invalid_arg ("Builder: unknown scenario regime " ^ t)
    in
    let gen = Scenario_gen.compose (List.map gen_of tokens) in
    let set =
      Scenario_gen.enumerate ~cutoff:options.scenario_cutoff
        ~max_scenarios:options.max_scenarios ~npairs gen
    in
    ( set.Scenario_gen.scenarios,
      set.Scenario_gen.pair_factors,
      Some set.Scenario_gen.regimes )
  end

(* Instance.make wants demand factors per (sid, fid) with
   fid = class * npairs + pair; scenario generators perturb demand per
   pair, uniformly across classes. *)
let expand_pair_factors ~nclasses ~npairs pair_factors =
  match pair_factors with
  | None -> None
  | Some pf ->
      Some
        (Array.map
           (fun row ->
             Array.init (nclasses * npairs) (fun fid -> row.(fid mod npairs)))
           pf)

(* Scale a gravity matrix so the no-failure min-MLU lands at a
   deterministic point of the paper's [0.5, 0.7] window. *)
let scaled_gravity ~options ~seed graph pairs tunnels =
  let demands = Gravity.matrix ~seed ~graph ~pairs in
  let target = Prng.uniform seed options.mlu_lo options.mlu_hi in
  let mlu d = Mlu.min_mlu ~graph ~tunnels ~demands:d in
  Gravity.scale_to_mlu ~mlu ~target demands

(* §6: "our design target is set to as high a probability target as
   possible, while ensuring all flows remain connected for the sampled
   scenarios" — i.e. the minimum over flows of their connected
   probability mass (any higher target trivially forces PercLoss 1).
   The flow crossing the least reliable cut is the binding one; every
   other flow keeps a positive probability budget of scenarios it may
   sacrifice, which is exactly the heterogeneity Flexile exploits. *)
let finalize_betas inst =
  let classes = Array.copy inst.Instance.classes in
  Array.iteri
    (fun k (c : Instance.cls) ->
      if Float.is_nan c.Instance.beta then begin
        let mass =
          Array.fold_left
            (fun acc (f : Instance.flow) ->
              if f.Instance.cls = k && f.Instance.demand > 0. then
                Float.min acc (Instance.connected_mass inst f)
              else acc)
            1. inst.Instance.flows
        in
        classes.(k) <- { c with Instance.beta = Float.max 0. (mass -. 1e-9) }
      end)
    classes;
  Instance.with_classes inst classes

let single_class ?(options = default_options) ~graph () =
  let seed = Prng.of_string ("flexile-instance-" ^ graph.Graph.name) in
  let pairs = sample_pairs ~seed:(Prng.split seed "pairs") ~max_pairs:options.max_pairs graph in
  let tunnels_single =
    Array.map
      (fun (u, v) ->
        Array.of_list
          (Tunnels.select_single_class graph ~pair:(u, v)
             ~count:options.tunnels_per_pair))
      pairs
  in
  let demands =
    scaled_gravity ~options ~seed:(Prng.split seed "traffic") graph pairs
      tunnels_single
  in
  let scenarios, pair_factors, regimes =
    scenario_set ~options
      ~seed:(Prng.split seed "failures")
      ~graph ~npairs:(Array.length pairs)
  in
  let demand_factors =
    expand_pair_factors ~nclasses:1 ~npairs:(Array.length pairs) pair_factors
  in
  let inst =
    Instance.make ~graph
      ~classes:[| { Instance.cname = "all"; beta = Float.nan; weight = 1. } |]
      ~pairs ~tunnels:[| tunnels_single |] ~demands:[| demands |]
      ?demand_factors ?regimes ~scenarios ()
  in
  finalize_betas inst

let two_class ?(options = default_options) ~graph () =
  let seed = Prng.of_string ("flexile-instance2-" ^ graph.Graph.name) in
  let pairs = sample_pairs ~seed:(Prng.split seed "pairs") ~max_pairs:options.max_pairs graph in
  let selected =
    Array.map
      (fun pair ->
        Tunnels.select_two_class graph ~pair ~count:options.tunnels_per_pair
          ~extra:options.low_extra_tunnels)
      pairs
  in
  let tunnels_high = Array.map (fun (high, _) -> Array.of_list high) selected in
  let tunnels_low = Array.map (fun (_, low) -> Array.of_list low) selected in
  let base =
    scaled_gravity ~options ~seed:(Prng.split seed "traffic") graph pairs
      tunnels_high
  in
  let high, low =
    Gravity.split_two_class ~seed:(Prng.split seed "split")
      ~low_scale:options.low_scale base
  in
  let scenarios, pair_factors, regimes =
    scenario_set ~options
      ~seed:(Prng.split seed "failures")
      ~graph ~npairs:(Array.length pairs)
  in
  let demand_factors =
    expand_pair_factors ~nclasses:2 ~npairs:(Array.length pairs) pair_factors
  in
  let inst =
    Instance.make ~graph
      ~classes:
        [|
          { Instance.cname = "high"; beta = Float.nan; weight = options.high_weight };
          { Instance.cname = "low"; beta = options.low_beta; weight = 1. };
        |]
      ~pairs
      ~tunnels:[| tunnels_high; tunnels_low |]
      ~demands:[| high; low |] ?demand_factors ?regimes ~scenarios ()
  in
  finalize_betas inst

let of_name ?options ?(two_classes = false) name =
  let graph = Flexile_net.Catalog.by_name name in
  if two_classes then two_class ?options ~graph ()
  else single_class ?options ~graph ()

(* ---------- toy instances from the paper ---------- *)

let path_tunnel graph ~pair edges = Tunnels.make graph ~pair (Array.of_list edges)

let fig1 () =
  let graph = Flexile_net.Catalog.triangle () in
  (* edge ids: 0 = A-B, 1 = A-C, 2 = B-C *)
  let pairs = [| (0, 1); (0, 2) |] in
  let tunnels =
    [|
      [|
        (* A-B: direct and via C *)
        [| path_tunnel graph ~pair:(0, 1) [ 0 ]; path_tunnel graph ~pair:(0, 1) [ 1; 2 ] |];
        (* A-C: direct and via B *)
        [| path_tunnel graph ~pair:(0, 2) [ 1 ]; path_tunnel graph ~pair:(0, 2) [ 0; 2 ] |];
      |];
    |]
  in
  let fm = Failure_model.of_probs ~nedges:3 [| 0.01; 0.01; 0.01 |] in
  let scenarios = Failure_model.enumerate ~cutoff:1e-7 ~max_scenarios:8 fm in
  Instance.make ~graph
    ~classes:[| { Instance.cname = "all"; beta = 0.99; weight = 1. } |]
    ~pairs ~tunnels ~demands:[| [| 1.; 1. |] |] ~scenarios ()

let fig17 () =
  let graph = Flexile_net.Catalog.triangle () in
  let pairs = [| (0, 1); (0, 2) |] in
  let tunnels =
    [|
      [|
        (* A-B restricted to the direct link (directed topology) *)
        [| path_tunnel graph ~pair:(0, 1) [ 0 ] |];
        (* A-C: direct and via B *)
        [| path_tunnel graph ~pair:(0, 2) [ 1 ]; path_tunnel graph ~pair:(0, 2) [ 0; 2 ] |];
      |];
    |]
  in
  let fm = Failure_model.of_probs ~nedges:3 [| 0.01; 0.01; 0.01 |] in
  let scenarios = Failure_model.enumerate ~cutoff:1e-7 ~max_scenarios:8 fm in
  Instance.make ~graph
    ~classes:[| { Instance.cname = "all"; beta = 0.99; weight = 1. } |]
    ~pairs ~tunnels ~demands:[| [| 1.; 1. |] |] ~scenarios ()
