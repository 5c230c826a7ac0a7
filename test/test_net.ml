(* Tests for the network substrate: graph invariants, shortest paths,
   Yen's k-shortest (against the pre-workspace implementation kept in
   yen_oracle.ml), tunnel selection and its pinned tunnel-set digests,
   the topology catalog, and the rich-connectivity transform. *)

open Flexile_net

let quick name f = Alcotest.test_case name `Quick f

(* a 6-node test graph with a known structure:
     0-1, 1-2, 2-3, 3-0 (square), 0-2 (diagonal), 3-4, 4-5, 5-3 (ear) *)
let square_ear () =
  Graph.create ~name:"square-ear" ~n:6
    [|
      (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (3, 0, 1.); (0, 2, 1.);
      (3, 4, 1.); (4, 5, 1.); (5, 3, 1.);
    |]

let test_graph_basics () =
  let g = square_ear () in
  Alcotest.(check int) "edges" 8 (Graph.nedges g);
  Alcotest.(check int) "degree 0" 3 (Graph.degree g 0);
  Alcotest.(check int) "degree 4" 2 (Graph.degree g 4);
  Alcotest.(check bool) "connected" true (Graph.is_connected_graph g ());
  Alcotest.(check int) "pairs" 15 (Array.length (Graph.pairs g))

let test_graph_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~name:"x" ~n:2 [| (0, 0, 1.) |]));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Graph.create: capacity <= 0") (fun () ->
      ignore (Graph.create ~name:"x" ~n:2 [| (0, 1, 0.) |]))

let test_connectivity_mask () =
  let g = square_ear () in
  (* killing edges 2-3 and 3-0 and 0-2... 0 and 3 connected only via
     square; remove 2-3 (id 2) and 3-0 (id 3): 3 unreachable from 0
     through the square, but 3 connects via the ear only to 4,5 *)
  let alive id = id <> 2 && id <> 3 in
  Alcotest.(check bool) "0-3 disconnected" false (Graph.connected g ~alive 0 3);
  Alcotest.(check bool) "0-2 still connected" true (Graph.connected g ~alive 0 2);
  Alcotest.(check bool) "3-5 still connected" true (Graph.connected g ~alive 3 5)

let test_dijkstra () =
  let g = square_ear () in
  (match Paths.shortest g ~src:0 ~dst:4 () with
  | None -> Alcotest.fail "no path 0-4"
  | Some p ->
      Alcotest.(check int) "hops 0-4" 2 (Array.length p);
      let ns = Paths.nodes g ~src:0 p in
      Alcotest.(check int) "ends at 4" 4 ns.(Array.length ns - 1));
  (* with edge 3-0 dead, 0->4 must go the long way (3 hops) *)
  match Paths.shortest g ~edge_ok:(fun id -> id <> 3) ~src:0 ~dst:4 () with
  | None -> Alcotest.fail "no masked path 0-4"
  | Some p -> Alcotest.(check int) "masked hops" 3 (Array.length p)

let test_yen () =
  let g = square_ear () in
  let ps = Paths.k_shortest g ~k:4 ~src:0 ~dst:2 () in
  (* 0-2 direct; 0-1-2; 0-3-2; 0-3-5-4... no (4 is a dead end for 2) *)
  Alcotest.(check int) "found 3 loopless paths" 3 (List.length ps);
  let lengths = List.map Array.length ps in
  Alcotest.(check (list int)) "nondecreasing lengths" [ 1; 2; 2 ] lengths;
  (* all distinct *)
  let distinct =
    List.sort_uniq compare (List.map (fun p -> Array.to_list p) ps)
  in
  Alcotest.(check int) "distinct" 3 (List.length distinct)

(* The workspace kernel allocates nothing per run: a Continental
   Dijkstra costs exactly the words of the [Some path] it returns. *)
let test_dijkstra_allocation () =
  let g = Catalog.continental () in
  let run () = Paths.shortest g ~src:0 ~dst:(g.Graph.n - 1) () in
  ignore (run ());
  let result_words = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    match run () with
    | Some p -> result_words := !result_words + Array.length p + 1 + 2
    | None -> Alcotest.fail "Continental is connected"
  done;
  let words = int_of_float (Gc.minor_words () -. w0) in
  if words > !result_words + 64 then
    Alcotest.failf "100 Dijkstra runs allocated %d words, their results %d" words
      !result_words

let test_yen_nonpositive_k () =
  let g = square_ear () in
  Alcotest.(check int) "k = 0" 0 (List.length (Paths.k_shortest g ~k:0 ~src:0 ~dst:2 ()));
  Alcotest.(check int) "k < 0" 0 (List.length (Paths.k_shortest g ~k:(-3) ~src:0 ~dst:2 ()));
  Alcotest.(check int) "k = 1" 1 (List.length (Paths.k_shortest g ~k:1 ~src:0 ~dst:2 ()))

(* A random multigraph case drawn from [seed]: up to 12 nodes (30 for
   every third seed), parallel edges, and unit, small-integer or
   zero-including integer weights, so ties are everywhere. *)
let random_yen_case seed =
  let st = Random.State.make [| seed |] in
  let n = 2 + Random.State.int st (if seed mod 3 = 0 then 29 else 11) in
  let m = Random.State.int st ((3 * n) + 1) in
  let links =
    Array.init m (fun _ ->
        let u = Random.State.int st n in
        (u, (u + 1 + Random.State.int st (n - 1)) mod n, 1.))
  in
  let g = Graph.create ~name:"random" ~n links in
  let mode = Random.State.int st 3 in
  let wts =
    Array.init m (fun _ ->
        match mode with
        | 0 -> 1.
        | 1 -> float_of_int (1 + Random.State.int st 4)
        | _ -> float_of_int (Random.State.int st 3))
  in
  let k = 1 + Random.State.int st 30 in
  let src = Random.State.int st n and dst = Random.State.int st n in
  (g, (fun e -> wts.(e)), k, src, dst)

let qcheck_yen_matches_oracle =
  QCheck.Test.make ~name:"k_shortest = the pre-workspace Yen (oracle)" ~count:2000
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let g, weight, k, src, dst = random_yen_case seed in
      Paths.k_shortest g ~weight ~k ~src ~dst ()
      = Yen_oracle.k_shortest g ~weight ~k ~src ~dst ())

let test_yen_disjointness_preference () =
  let g = square_ear () in
  let ts = Tunnels.select_single_class g ~pair:(0, 2) ~count:3 in
  Alcotest.(check int) "3 tunnels" 3 (List.length ts);
  (* first two tunnels should be edge-disjoint here *)
  match ts with
  | a :: b :: _ ->
      Alcotest.(check bool) "disjoint" false
        (Paths.shares_edge a.Tunnels.path b.Tunnels.path)
  | _ -> Alcotest.fail "missing tunnels"

let test_high_priority_spof () =
  let g = square_ear () in
  let ts = Tunnels.select_high_priority g ~pair:(0, 2) ~count:3 in
  (* no single edge may appear in all three tunnels *)
  match ts with
  | [] -> Alcotest.fail "no tunnels"
  | first :: rest ->
      let spof =
        Array.to_list first.Tunnels.path
        |> List.filter (fun e ->
               List.for_all
                 (fun t -> Array.exists (fun e' -> e' = e) t.Tunnels.path)
                 rest)
      in
      Alcotest.(check (list int)) "no SPOF" [] spof

let test_low_priority_superset () =
  let g = square_ear () in
  let high = Tunnels.select_high_priority g ~pair:(0, 2) ~count:2 in
  let low = Tunnels.select_low_priority g ~pair:(0, 2) ~high ~extra:2 in
  (* only 3 loopless 0-2 paths exist in this graph, so the extras are
     capped by availability *)
  Alcotest.(check int) "low count" 3 (List.length low);
  (* the high-priority tunnels come first, unchanged *)
  List.iteri
    (fun i t ->
      if i < List.length high then
        let h = List.nth high i in
        if t.Tunnels.path <> h.Tunnels.path then
          Alcotest.fail "high tunnels not preserved")
    low;
  (* extras are distinct from the high set *)
  let paths = List.map (fun t -> Array.to_list t.Tunnels.path) low in
  Alcotest.(check int) "all distinct" (List.length low)
    (List.length (List.sort_uniq compare paths))

let test_two_class_shared_pool () =
  let check g =
    Array.iter
      (fun pair ->
        let high = Tunnels.select_high_priority g ~pair ~count:3 in
        let low = Tunnels.select_low_priority g ~pair ~high ~extra:3 in
        let high', low' = Tunnels.select_two_class g ~pair ~count:3 ~extra:3 in
        let paths = List.map (fun t -> t.Tunnels.path) in
        if paths high <> paths high' || paths low <> paths low' then
          Alcotest.failf "%s %d-%d: shared pool differs" g.Graph.name (fst pair)
            (snd pair))
      (Graph.pairs g)
  in
  check (square_ear ());
  check (Catalog.by_name "CWIX")

(* ---------------- tunnel-set digests ---------------- *)

module Builder = Flexile_core.Builder
module Instance = Flexile_te.Instance

(* MD5 over every class's tunnels, pair by pair, as edge-id lists. *)
let tunnel_digest (inst : Instance.t) =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun c per_pair ->
      Array.iteri
        (fun i ts ->
          let u, v = inst.Instance.pairs.(i) in
          Buffer.add_string b (Printf.sprintf "%d:%d-%d:" c u v);
          Array.iter
            (fun (t : Tunnels.t) ->
              Array.iter
                (fun e -> Buffer.add_string b (string_of_int e ^ ","))
                t.Tunnels.path;
              Buffer.add_char b ';')
            ts;
          Buffer.add_char b '\n')
        per_pair)
    inst.Instance.tunnels;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Tunnel sets of every Table-2 topology under Builder.default_options
   (the options of perfbench's ibm-sweep: at most 240 sampled pairs),
   single-class and two-class, as computed by the plain Yen's algorithm
   (a fresh Dijkstra per spur, spurs from every node). *)
let table2_digests =
  [
    ("Sprint", "0041191046f345bd2cf1dc57e674870f", "1f7757abaf1641942c8868fa9497bcc3");
    ("B4", "6aa031130b56f92cf4711cef8ca156c6", "bc6caf18b5717fe9a5d4802eb1ee16d8");
    ("IBM", "de2f15959f887f3150c3b123c3ca54df", "1e1f1ba42e79ee77edde5b07d9389e4b");
    ("CWIX", "88f5d7e72a6c65662f7b35bcb11b8ee1", "3989e7f674480c93e56b2cc14f994bcf");
    ("Highwinds", "c0472063beaa6b38b72a1b4bf8965ca5", "f23348171a5b99958812ccb76f18daf8");
    ("Quest", "1129e430fc139af2e7163110176ac628", "39b1493a14117307b8d688921d8fc261");
    ("Darkstrand", "bd23f86e14a17cb5e85812cabdec3ba5", "5f075c8fd1eda493b9337da9b1852411");
    ("Integra", "a381623c881f6ae46a764591209f7060", "f58a37be08460c4e54b7d8ec2bfd2623");
    ("Xeex", "4ded1de5c8615c9aaaa3a0f29bbd7981", "ff7eba40c0b3dc57a7ad6b2e0f5dc3c1");
    ("InternetMCI", "881dc547dd5b4a4dafef12994847911f", "469af11c191cc2e78c2194eaa281ca01");
    ("Digex", "021b065a9a266f3507145b85ffda090e", "a6c66cdd0f544086f8bec9181774b9aa");
    ("CRLNetwork", "c1c094063bea2b4201820a4583e3b678", "ad7e8b2b41a56b8981a19036037db6df");
    ("JanetBackbone", "b356f12024a0d152a85340e98fb231e7", "2df96bcafb2768c58a656544f8552001");
    ("Xspedius", "f9b437cbc74bfcd5842e8a2ad17ec670", "c672d5f4a2773de922b6faeed2328314");
    ("GEANT", "7c3ea02a1aa153141cb2d49909aefbed", "f0a48aeea77c54d07c5c581fb3d659e0");
    ("IIJ", "e8cad1d6fcf16110e108c505b9b36905", "cf037f66d2c4abb7ec3637f49708359f");
    ("ATT", "33d7ed467100d7a666ccd23b28563def", "ce86c2ab3c14a87351b3d85448a5e3b0");
    ("BTNorthAmerica", "aab701ca01f68730ac0d40e20eae17c8", "039c3084811fcfbc5a4516e2e0d02180");
    ("Tinet", "412b64ea77f6cce702d70a2e794e087a", "814f6c0f225ff5c0178d2437de3f54a1");
    ("Deltacom", "318cb50936a6b28c50d7ac88cc00d6f5", "9dfd13f72b61d4acf2ae8e9e18a52180");
  ]

let check_digests ?options name ~single ~two =
  Alcotest.(check string) (name ^ " single-class") single
    (tunnel_digest (Builder.of_name ?options name));
  Alcotest.(check string) (name ^ " two-class") two
    (tunnel_digest (Builder.of_name ?options ~two_classes:true name))

let test_table2_digests () =
  Alcotest.(check int) "every Table-2 topology" (List.length Catalog.table2)
    (List.length table2_digests);
  List.iter (fun (name, single, two) -> check_digests name ~single ~two) table2_digests

(* perfbench's continental options: 300 pairs, 30 scenarios *)
let test_continental_digests () =
  check_digests "Continental"
    ~options:{ Builder.default_options with max_pairs = 300; max_scenarios = 30 }
    ~single:"555818170220242e2be03ed7d66f44fd" ~two:"8e4d542aa15b20f62e3b92bc6974142d"

(* The deterministic work count of tunnel selection: Dijkstra runs and
   heap pops for one Deltacom two-class build.  The plain Yen's
   algorithm, run once per class, took 109,405 runs and 2,552,454 pops
   for the same tunnels. *)
let test_work_counters () =
  let module Trace = Flexile_util.Trace in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  let runs0 = Trace.value_by_name "paths.dijkstra_runs"
  and pops0 = Trace.value_by_name "paths.heap_pops" in
  ignore (Builder.of_name ~two_classes:true "Deltacom");
  let runs = Trace.value_by_name "paths.dijkstra_runs" - runs0
  and pops = Trace.value_by_name "paths.heap_pops" - pops0 in
  Trace.set_enabled was;
  Alcotest.(check int) "dijkstra runs" 37556 runs;
  Alcotest.(check int) "heap pops" 763831 pops

let test_catalog_sizes () =
  List.iter
    (fun (name, n, m) ->
      let g = Catalog.by_name name in
      Alcotest.(check int) (name ^ " nodes") n g.Graph.n;
      Alcotest.(check int) (name ^ " edges") m (Graph.nedges g);
      Alcotest.(check bool) (name ^ " connected") true
        (Graph.is_connected_graph g ());
      (* the paper prunes 1-degree nodes: min degree must be >= 2 *)
      for v = 0 to g.Graph.n - 1 do
        if Graph.degree g v < 2 then
          Alcotest.failf "%s: node %d has degree < 2" name v
      done)
    Catalog.table2

let test_catalog_deterministic () =
  let a = Catalog.by_name "IBM" and b = Catalog.by_name "IBM" in
  let edges g =
    Array.map (fun (e : Graph.edge) -> (e.Graph.u, e.Graph.v, e.Graph.capacity)) g.Graph.edges
  in
  Alcotest.(check bool) "same edges" true (edges a = edges b)

let test_split_links () =
  let g = Catalog.triangle () in
  let r = Graph.split_links g in
  Alcotest.(check int) "doubled edges" 6 (Graph.nedges r);
  Array.iteri
    (fun i (e : Graph.edge) ->
      Alcotest.(check int) "group" (i / 2) e.Graph.group;
      Alcotest.(check (float 1e-9)) "half capacity" 0.5 e.Graph.capacity)
    r.Graph.edges

(* ---------------- GML I/O ---------------- *)

let sample_gml =
  {|
# a topology-zoo style file
graph [
  directed 0
  node [ id 10 label "A" ]
  node [ id 11 label "B" ]
  node [ id 12 label "C" ]
  node [ id 13 label "stub" ]
  edge [ source 10 target 11 LinkSpeed 2.5 ]
  edge [ source 11 target 12 ]
  edge [ source 12 target 10 ]
  edge [ source 10 target 11 ]
  edge [ source 12 target 13 ]
]
|}

let test_gml_parse () =
  let g = Gml.parse ~name:"sample" sample_gml in
  (* the stub node (degree 1) is pruned; the duplicate edge dropped *)
  Alcotest.(check int) "nodes after pruning" 3 g.Graph.n;
  Alcotest.(check int) "edges" 3 (Graph.nedges g);
  Alcotest.(check bool) "connected" true (Graph.is_connected_graph g ());
  (* capacity attribute honored *)
  let caps =
    Array.to_list (Array.map (fun (e : Graph.edge) -> e.Graph.capacity) g.Graph.edges)
    |> List.sort compare
  in
  Alcotest.(check (list (float 1e-9))) "capacities" [ 1.; 1.; 2.5 ] caps

let test_gml_no_prune () =
  let g = Gml.parse ~prune:false sample_gml in
  Alcotest.(check int) "nodes kept" 4 g.Graph.n;
  Alcotest.(check int) "edges kept" 4 (Graph.nedges g)

let test_gml_roundtrip () =
  let g = Catalog.by_name "Sprint" in
  let g2 = Gml.parse ~name:"Sprint" (Gml.to_gml g) in
  Alcotest.(check int) "nodes" g.Graph.n g2.Graph.n;
  Alcotest.(check int) "edges" (Graph.nedges g) (Graph.nedges g2);
  let sig_of g =
    Array.to_list g.Graph.edges
    |> List.map (fun (e : Graph.edge) ->
           (min e.Graph.u e.Graph.v, max e.Graph.u e.Graph.v, e.Graph.capacity))
    |> List.sort compare
  in
  Alcotest.(check bool) "same links" true (sig_of g = sig_of g2)

let test_gml_errors () =
  (match Gml.parse "graph [ node [ label \"x\" ] ]" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "node without id accepted");
  match Gml.parse "graph [ edge [ source 1 target 2 ] ]" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "edge with undeclared endpoints accepted"

let qcheck_generator_invariants =
  let gen = QCheck.Gen.(pair (int_range 6 40) (int_range 0 30)) in
  QCheck.Test.make ~name:"generated topologies are valid" ~count:60
    (QCheck.make gen) (fun (n, extra) ->
      let m = min (n + extra) (n * (n - 1) / 2) in
      let seed = Flexile_util.Prng.of_string (Printf.sprintf "gen-%d-%d" n m) in
      let g = Gen.random_graph ~name:"t" ~n ~m ~seed in
      Graph.nedges g = m
      && Graph.is_connected_graph g ()
      && Array.for_all
           (fun v -> v >= 2)
           (Array.init n (fun v -> Graph.degree g v)))

let () =
  Alcotest.run "flexile_net"
    [
      ( "graph",
        [
          quick "basics" test_graph_basics;
          quick "validation" test_graph_validation;
          quick "masked connectivity" test_connectivity_mask;
          quick "split links" test_split_links;
        ] );
      ( "paths",
        [
          quick "dijkstra" test_dijkstra;
          quick "yen k-shortest" test_yen;
          quick "tunnel disjointness" test_yen_disjointness_preference;
          quick "high-priority SPOF avoidance" test_high_priority_spof;
          quick "low-priority superset" test_low_priority_superset;
          quick "k <= 0 gives no paths" test_yen_nonpositive_k;
          quick "dijkstra allocates only its result" test_dijkstra_allocation;
          quick "two-class shared pool" test_two_class_shared_pool;
          quick "work counters (Deltacom two-class)" test_work_counters;
        ] );
      ( "tunnel digests",
        [
          quick "Table 2, single and two-class" test_table2_digests;
          Alcotest.test_case "Continental" `Slow test_continental_digests;
        ] );
      ( "catalog",
        [
          quick "table 2 sizes" test_catalog_sizes;
          quick "deterministic" test_catalog_deterministic;
        ] );
      ( "gml",
        [
          quick "parse + prune" test_gml_parse;
          quick "parse without pruning" test_gml_no_prune;
          quick "roundtrip" test_gml_roundtrip;
          quick "malformed input" test_gml_errors;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_generator_invariants;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick qcheck_yen_matches_oracle;
        ] );
    ]
