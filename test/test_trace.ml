(* Tests of the Trace observability layer: cross-domain counter
   aggregation, exactness of the solver counters against the solver's
   own result fields, the disabled-by-default contract, and the JSON
   report shape. *)

module Trace = Flexile_util.Trace
module Parallel = Flexile_util.Parallel
module Offline = Flexile_te.Flexile_offline

let with_tracing enabled f =
  let was = Trace.enabled () in
  Trace.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) f

(* ---- counters sum across domains ---- *)

let test_counter_sums_across_domains () =
  with_tracing true @@ fun () ->
  let c = Trace.counter "test.cross_domain" in
  let base = Trace.value c in
  let n = 103 in
  let _ =
    Parallel.map ~jobs:4 ~n
      ~init:(fun _ -> ())
      ~f:(fun () i ->
        Trace.incr c;
        i)
      ()
  in
  Alcotest.(check int) "n increments over 4 domains" (base + n) (Trace.value c)

let test_timer_and_gauge_merge () =
  with_tracing true @@ fun () ->
  let t = Trace.timer "test.span" in
  let g = Trace.gauge "test.gauge" in
  let n0 = Trace.timer_count t in
  let _ =
    Parallel.map ~jobs:2 ~n:8
      ~init:(fun _ -> ())
      ~f:(fun () i ->
        Trace.with_span t (fun () -> Trace.gauge_max g i);
        i)
      ()
  in
  Alcotest.(check int) "span count sums" (n0 + 8) (Trace.timer_count t);
  Alcotest.(check int) "gauge keeps the max" 7 (Trace.gauge_value g);
  if Trace.timer_seconds t < 0. then Alcotest.fail "negative span time"

let test_events_ordered () =
  with_tracing true @@ fun () ->
  let p = Trace.probe "test.event" in
  Trace.event p 1;
  Trace.event p 2;
  Trace.event p 3;
  let mine =
    Trace.events () |> List.filter (fun e -> e.Trace.name = "test.event")
  in
  Alcotest.(check (list int))
    "args in emission order" [ 1; 2; 3 ]
    (List.map (fun e -> e.Trace.arg) mine);
  let seqs = List.map (fun e -> e.Trace.seq) mine in
  if List.sort compare seqs <> seqs then Alcotest.fail "seq not monotone"

(* ---- disabled tracing records nothing ---- *)

let test_disabled_records_nothing () =
  with_tracing false @@ fun () ->
  let c = Trace.counter "test.disabled_counter" in
  let t = Trace.timer "test.disabled_timer" in
  let p = Trace.probe "test.disabled_event" in
  let c0 = Trace.value c
  and n0 = Trace.timer_count t
  and e0 = Trace.events_logged () in
  Trace.incr c;
  Trace.add c 41;
  Trace.with_span t (fun () -> ());
  Trace.event p 7;
  Alcotest.(check int) "counter untouched" c0 (Trace.value c);
  Alcotest.(check int) "timer untouched" n0 (Trace.timer_count t);
  Alcotest.(check int) "no events logged" e0 (Trace.events_logged ())

(* ---- solver counters are exact ---- *)

let test_flexile_counters_exact () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  let inst = Flexile_core.Builder.fig1 () in
  let r = Offline.solve inst in
  Alcotest.(check int)
    "subproblems counter = result field" r.Offline.subproblems_solved
    (Trace.value_by_name "flexile.subproblems_solved");
  Alcotest.(check int)
    "iteration counter = iterate count"
    (List.length r.Offline.iterates)
    (Trace.value_by_name "flexile.iterations");
  let summary = Offline.trace_summary () in
  let get k = List.assoc k summary in
  if get "subproblems_solved" <> float_of_int r.Offline.subproblems_solved then
    Alcotest.fail "trace_summary disagrees with counter";
  if get "subproblem_sweep_seconds" <= 0. then
    Alcotest.fail "sweep timer did not accumulate"

let test_flexile_disabled_counts_zero () =
  Trace.reset ();
  with_tracing false @@ fun () ->
  let inst = Flexile_core.Builder.fig1 () in
  let r = Offline.solve inst in
  if r.Offline.subproblems_solved <= 0 then
    Alcotest.fail "toy instance should solve subproblems";
  Alcotest.(check int) "disabled: counter stays zero" 0
    (Trace.value_by_name "flexile.subproblems_solved");
  Alcotest.(check int) "disabled: no events" 0 (Trace.events_logged ())

(* ---- JSON report ---- *)

let test_json_shape () =
  with_tracing true @@ fun () ->
  Trace.incr (Trace.counter "test.json_counter");
  let j = Trace.to_json () in
  let must s =
    if not (String.length j >= String.length s) then
      Alcotest.failf "report too short for %s" s;
    let found = ref false in
    for i = 0 to String.length j - String.length s do
      if String.sub j i (String.length s) = s then found := true
    done;
    if not !found then Alcotest.failf "report lacks %s: %s" s j
  in
  must "\"enabled\":true";
  must "\"counters\"";
  must "\"test.json_counter\"";
  must "\"timers\"";
  must "\"events\"";
  let oj = Offline.trace_json () in
  let contains s =
    let n = String.length s in
    let found = ref false in
    for i = 0 to String.length oj - n do
      if String.sub oj i n = s then found := true
    done;
    !found
  in
  List.iter
    (fun s -> if not (contains s) then Alcotest.failf "offline trace lacks %s" s)
    [ "\"derived\""; "\"subproblem_sweep_seconds\""; "\"report\"" ];
  (* subproblems are always cold-solved: no derived key reports warm
     restarts any more *)
  List.iter
    (fun (k, _) ->
      if String.starts_with ~prefix:"warm" k then
        Alcotest.failf "offline trace still reports %s" k)
    (Offline.trace_summary ())

(* ---- histograms ---- *)

let test_hist_edge_cases () =
  with_tracing true @@ fun () ->
  let h = Trace.hist "test.hist_edges" in
  Trace.observe h 0.;
  Trace.observe h (-3.);
  Trace.observe h Float.nan;
  Trace.observe h 1.0;
  let s = Trace.hist_snapshot h in
  Alcotest.(check int) "count includes nan" 4 s.Trace.hist_count;
  (match s.Trace.hist_buckets with
  | (ub0, c0) :: _ ->
      Alcotest.(check (float 0.)) "nonpositive slot reports bound 0" 0. ub0;
      Alcotest.(check int) "zero, negative and nan land in slot 0" 3 c0
  | [] -> Alcotest.fail "no buckets");
  Alcotest.(check (float 1e-12)) "sum excludes nan" (-2.) s.Trace.hist_sum;
  Alcotest.(check (float 0.)) "min exact" (-3.) s.Trace.hist_min;
  Alcotest.(check (float 0.)) "max exact" 1.0 s.Trace.hist_max

let test_hist_bucket_bounds () =
  with_tracing true @@ fun () ->
  (* every in-range positive value lands in a bucket whose (exclusive)
     upper bound is above it by at most the 1/16-octave width *)
  List.iteri
    (fun i v ->
      let h = Trace.hist (Printf.sprintf "test.hist_bound_%d" i) in
      Trace.observe h v;
      match (Trace.hist_snapshot h).Trace.hist_buckets with
      | [ (ub, 1) ] ->
          if not (v < ub) then
            Alcotest.failf "%g not below its bucket bound %g" v ub;
          if ub > v *. 1.07 then
            Alcotest.failf "bucket bound %g too loose for %g" ub v
      | bs -> Alcotest.failf "expected one bucket, got %d" (List.length bs))
    [ 0.75; 1.0; 1.0000001; 2.0; 1e9; 0.1; 3.14159 ];
  (* below-range values clamp into the lowest positive bucket *)
  let h = Trace.hist "test.hist_below" in
  Trace.observe h (Float.ldexp 1. (-40));
  (match (Trace.hist_snapshot h).Trace.hist_buckets with
  | [ (ub, 1) ] -> if not (ub > 0.) then Alcotest.fail "clamped-low bound"
  | _ -> Alcotest.fail "clamped-low bucket count");
  (* above-range values clamp into the top bucket; the exact maximum
     still comes back through the quantile clamp *)
  let h = Trace.hist "test.hist_above" in
  Trace.observe h 1e12;
  Alcotest.(check (float 0.)) "q=1 reads the exact max" 1e12
    (Trace.hist_quantile h 1.0)

let test_hist_merge_deterministic () =
  with_tracing true @@ fun () ->
  let hp = Trace.hist "test.hist_par" in
  let hs = Trace.hist "test.hist_seq" in
  let n = 400 in
  let value i = Float.of_int ((i * 7919 mod 1000) - 50) /. 37. in
  let _ =
    Parallel.map ~jobs:4 ~n
      ~init:(fun _ -> ())
      ~f:(fun () i ->
        Trace.observe hp (value i);
        i)
      ()
  in
  for i = 0 to n - 1 do
    Trace.observe hs (value i)
  done;
  let sp = Trace.hist_snapshot hp and ss = Trace.hist_snapshot hs in
  Alcotest.(check int) "counts agree" ss.Trace.hist_count sp.Trace.hist_count;
  Alcotest.(check (float 1e-9)) "sums agree" ss.Trace.hist_sum
    sp.Trace.hist_sum;
  Alcotest.(check (float 0.)) "min agrees" ss.Trace.hist_min sp.Trace.hist_min;
  Alcotest.(check (float 0.)) "max agrees" ss.Trace.hist_max sp.Trace.hist_max;
  if
    not
      (List.length sp.Trace.hist_buckets = List.length ss.Trace.hist_buckets
      && List.for_all2
           (fun (u1, c1) (u2, c2) -> Float.compare u1 u2 = 0 && c1 = c2)
           sp.Trace.hist_buckets ss.Trace.hist_buckets)
  then Alcotest.fail "parallel merge differs from sequential";
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "q=%g agrees" q)
        (Trace.hist_quantile_of ss q)
        (Trace.hist_quantile_of sp q))
    [ 0.; 0.5; 0.9; 0.95; 0.99; 1. ]

let test_hist_quantile_monotone () =
  with_tracing true @@ fun () ->
  let h = Trace.hist "test.hist_quantiles" in
  for i = 1 to 1000 do
    Trace.observe h (Float.of_int (i * i) /. 1e4)
  done;
  let s = Trace.hist_snapshot h in
  let prev = ref Float.neg_infinity in
  for i = 0 to 100 do
    let q = Float.of_int i /. 100. in
    let v = Trace.hist_quantile_of s q in
    if v < !prev then Alcotest.failf "quantile not monotone at q=%g" q;
    prev := v
  done;
  if Trace.hist_quantile_of s 1.0 > s.Trace.hist_max +. 1e-12 then
    Alcotest.fail "quantile exceeds the tracked max";
  (* empty histograms read as nan *)
  let e = Trace.hist "test.hist_empty" in
  if not (Float.is_nan (Trace.hist_quantile e 0.5)) then
    Alcotest.fail "empty quantile should be nan"

let test_hist_disabled () =
  with_tracing false @@ fun () ->
  let h = Trace.hist "test.hist_disabled" in
  Trace.observe h 1.0;
  let r = Trace.observe_duration h (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result passes through" 42 r;
  Alcotest.(check int) "disabled records nothing" 0 (Trace.hist_count h)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flexile_trace"
    [
      ( "aggregation",
        [
          quick "counters sum across domains" test_counter_sums_across_domains;
          quick "timers and gauges merge" test_timer_and_gauge_merge;
          quick "events keep order" test_events_ordered;
        ] );
      ( "disabled",
        [
          quick "no-op when disabled" test_disabled_records_nothing;
          quick "solver counters stay zero" test_flexile_disabled_counts_zero;
        ] );
      ( "solver",
        [ quick "offline counters exact" test_flexile_counters_exact ] );
      ("json", [ quick "report shape" test_json_shape ]);
      ( "histograms",
        [
          quick "zero/negative/nan edge cases" test_hist_edge_cases;
          quick "bucket bounds tight and half-open" test_hist_bucket_bounds;
          quick "parallel merge == sequential" test_hist_merge_deterministic;
          quick "quantiles monotone, clamped to max" test_hist_quantile_monotone;
          quick "disabled is a no-op" test_hist_disabled;
        ] );
    ]
