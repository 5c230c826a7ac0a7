(* Tests of the benchmark's own helpers: the percentile rule, span
   self time, /proc parsing, the loss digest and the environment pin. *)

module P = Perfbench
module Trace = Flexile_util.Trace

let percentile_rule () =
  Alcotest.(check int) "p90 needs 100 samples" 100 (P.samples_for 9000);
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (P.samples_for 9900);
  Alcotest.(check int) "10 beyond p90 of 100" 10 (P.beyond ~n:100 9000);
  Alcotest.(check int) "9 beyond p90 of 99" 9 (P.beyond ~n:99 9000);
  let tail n = P.tail_percentile n in
  Alcotest.(check (option int)) "19 samples: none" None (tail 19);
  Alcotest.(check (option int)) "20 samples: p50" (Some 5000) (tail 20);
  Alcotest.(check (option int)) "99 samples: p50" (Some 5000) (tail 99);
  Alcotest.(check (option int)) "100 samples: p90" (Some 9000) (tail 100);
  Alcotest.(check (option int)) "999 samples: p90" (Some 9000) (tail 999);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 9900) (tail 1000);
  Alcotest.(check (option int)) "10000 samples: p99.9" (Some 9990) (tail 10000);
  Alcotest.(check string) "label" "p99.9" (P.bp_label 9990);
  let xs = P.sorted_copy (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (P.percentile xs 5000);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (P.percentile xs 9000);
  Alcotest.(check (float 0.)) "median of one" 7. (P.median [| 7. |])

let node ?(children = []) name t0 t1 =
  {
    Trace.node_name = name;
    node_arg = 0;
    node_dom = 0;
    node_t0_ns = Int64.of_int t0;
    node_t1_ns = Int64.of_int t1;
    node_minor_words = 0.;
    node_major_words = 0.;
    node_children = children;
  }

let self_time () =
  let leaf = node "simplex.solve" 50 60 in
  let b = node "simplex.solve" 40 90 ~children:[ leaf ] in
  let a = node "offline.scenario" 10 30 in
  let root = node "offline" 0 100 ~children:[ a; b ] in
  Alcotest.(check int64) "root self" 30L (P.self_ns root);
  Alcotest.(check int64) "inner self" 40L (P.self_ns b);
  Alcotest.(check int64) "leaf self" 10L (P.self_ns leaf);
  let other_root = node "parallel.shard" 0 1_000_000_000 in
  let by_name = P.self_by_name [ root; other_root ] in
  let get n = List.assoc n by_name in
  Alcotest.(check (list string)) "names sorted"
    [ "offline"; "offline.scenario"; "parallel.shard"; "simplex.solve" ]
    (List.map fst by_name);
  Alcotest.(check (float 1e-12)) "simplex sums both spans" 50e-9 (get "simplex.solve");
  Alcotest.(check (float 1e-12)) "self of a root without children" 1. (get "parallel.shard");
  let sum = List.fold_left (fun a (_, s) -> a +. s) 0. by_name in
  Alcotest.(check (float 1e-12)) "self times add up to the roots" (1. +. 100e-9) sum

let stat_a = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\nintr 1 2 3\n"
let stat_b = "cpu  150 0 60 880 10 0 5 95 7 0\ncpu0 75 0 30 440 5 0 2 48 0 0\nintr 1 2 3\n"

let proc_parsing () =
  let a = Option.get (P.parse_proc_stat stat_a) and b = Option.get (P.parse_proc_stat stat_b) in
  Alcotest.(check int) "total stops at steal" 1000 a.P.total;
  Alcotest.(check int) "steal field" 35 a.P.steal;
  Alcotest.(check (float 1e-9)) "steal share of the interval" 30. (P.steal_pct a b);
  Alcotest.(check (float 0.)) "empty interval" 0. (P.steal_pct a a);
  Alcotest.(check bool) "no cpu line" true (P.parse_proc_stat "intr 1 2\n" = None);
  let status = "Name:\tmain.exe\nVmPeak:\t  200000 kB\nVmHWM:\t   23304 kB\nVmRSS:\t   20000 kB\n" in
  Alcotest.(check (option int)) "VmHWM with tabs" (Some 23304) (P.parse_status_kb "VmHWM" status);
  Alcotest.(check (option int)) "key is matched whole" None (P.parse_status_kb "VmH" status);
  Alcotest.(check (option int)) "missing key" None (P.parse_status_kb "VmSwap" status);
  Alcotest.(check (option (float 0.))) "loadavg" (Some 0.53)
    (P.parse_loadavg "0.53 0.41 0.30 1/84 7690\n")

let digest_stability () =
  let m = [| [| 0.; 0.25; 1. |]; [| 0.5; 0.125; 0. |] |] in
  let d = P.loss_digest m in
  Alcotest.(check string) "pinned digest" "d1f9daf19df71a3ebe64394e74240737" d;
  Alcotest.(check string) "-0 is 0" d (P.loss_digest [| [| -0.; 0.25; 1. |]; [| 0.5; 0.125; 0. |] |]);
  Alcotest.(check string) "below the quantum" d
    (P.loss_digest [| [| 1e-9; 0.25; 1. -. 1e-12 |]; [| 0.5; 0.125; 0. |] |]);
  Alcotest.(check bool) "above the quantum" false
    (String.equal d (P.loss_digest [| [| 0.; 0.25; 1. |]; [| 0.5; 0.12501; 0. |] |]));
  Alcotest.(check bool) "shape matters" false
    (String.equal d (P.loss_digest [| [| 0.; 0.25; 1.; 0.5; 0.125; 0. |] |]))

let env_pin () =
  let env =
    [| "PATH=/bin"; "FLEXILE_JOBS=3"; "FLEXILE_HEALTH_STALL=8"; "FLEXILE_BENCH_PAIRS=9";
       "FLEXILE_TRACE="; "FLEXILE_JOBS=4" |]
  in
  Alcotest.(check (list string)) "pinned names, once each"
    [ "FLEXILE_HEALTH_STALL"; "FLEXILE_JOBS"; "FLEXILE_TRACE" ]
    (P.pinned_violations env);
  Alcotest.(check (list string)) "clean" [] (P.pinned_violations [| "HOME=/x" |])

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "proc parsing" `Quick proc_parsing;
          Alcotest.test_case "digest stability" `Quick digest_stability;
          Alcotest.test_case "environment pin" `Quick env_pin;
        ] );
    ]
