(* Serializers over Trace's quiescent-point reads: the structured
   report (full metric registry + span tree) that `flexile --trace`
   and `bench --json` write, and the Chrome trace-event document
   (`--trace-chrome` / `bench --chrome`) loadable in Perfetto or
   chrome://tracing. *)

(* ------------------------------------------------------------------ *)
(* Structured report                                                   *)
(* ------------------------------------------------------------------ *)

let rec tree_json (t : Trace.span_tree) =
  Json.Object
    [
      ("name", Json.String t.node_name);
      ("arg", Json.Int t.node_arg);
      ("dom", Json.Int t.node_dom);
      ("t0_ns", Json.Int (Int64.to_int t.node_t0_ns));
      ("dur_ns", Json.Int (Int64.to_int (Int64.sub t.node_t1_ns t.node_t0_ns)));
      ("minor_words", Json.Int (int_of_float t.node_minor_words));
      ("major_words", Json.Int (int_of_float t.node_major_words));
      ("children", Json.Array (List.map tree_json t.node_children));
    ]

let span_tree_json () = Json.Array (List.map tree_json (Trace.span_trees ()))

(* ------------------------------------------------------------------ *)
(* Solver-health section                                               *)
(* ------------------------------------------------------------------ *)

(* Schema'd projection of the numerical-health observatory: every
   [health.*] metric (samples, trips, stalls, residual/condition/growth
   histograms — see Flexile_lp.Health) plus the [simplex.*] counters
   that give them context (warm-start attempts/fallbacks, refactor
   cadence).  Emitted as its own section in `--trace` reports and as a
   standalone artifact by `bench --gate` and CI, so dashboards can read
   solver health without parsing the full registry. *)
let solver_health_json () =
  let metrics =
    List.filter
      (fun (name, kind) ->
        match (kind : Trace.metric_kind) with
        | Counter ->
            String.starts_with ~prefix:"health." name
            || String.starts_with ~prefix:"simplex." name
        | Hist -> String.starts_with ~prefix:"health." name
        | _ -> false)
      (Trace.registry ())
  in
  let section kind render =
    Trace.metrics_object metrics (fun k -> k = kind) render
  in
  Json.Object
    [
      ("schema", Json.String "flexile-solver-health");
      ("version", Json.Int 1);
      ("counters", section Counter (fun n -> Json.Int (Trace.value_by_name n)));
      ( "histograms",
        section Hist (fun n ->
            Trace.hist_summary_json (Trace.hist_snapshot_by_name n)) );
    ]

let report_json ?(derived = []) () =
  let int n = Json.Int n in
  Json.Object
    [
      ( "derived",
        Json.Object (List.map (fun (k, v) -> (k, Json.Number v)) derived) );
      (* [report] is the full registry — every module's counters,
         gauges, timers and span totals, not just the offline solver's *)
      ("report", Trace.to_json ());
      ("solver_health", solver_health_json ());
      ("span_tree", span_tree_json ());
      (* ring/record saturation at top level: a nonzero drop count means
         the span_tree above (and the event stream) is truncated —
         silent truncation would read as "nothing else happened" *)
      ( "drops",
        Json.Object
          [
            ("events_logged", int (Trace.events_logged ()));
            ("events_dropped", int (Trace.events_dropped ()));
            ("span_records_logged", int (Trace.spans_logged ()));
            ("span_records_dropped", int (Trace.spans_dropped ()));
            ("spans_open", int (Trace.spans_open ()));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Chrome trace-event format                                           *)
(* ------------------------------------------------------------------ *)

(* One JSON-object-format document: complete (`X`) events for spans on
   a per-domain track, instant (`i`) events for probes, and one final
   counter (`C`) sample per counter/gauge.  Timestamps are microseconds
   relative to the earliest recorded instant, as the format requires. *)
let chrome_json () =
  let spans = Trace.span_records () in
  let events = Trace.events () in
  let t_min =
    List.fold_left
      (fun acc (r : Trace.span_record) -> min acc r.span_t0_ns)
      Int64.max_int spans
    |> fun acc ->
    List.fold_left (fun acc (e : Trace.event_record) -> min acc e.t_ns) acc events
  in
  let t_min = if t_min = Int64.max_int then 0L else t_min in
  let us t = Json.Number (Int64.to_float (Int64.sub t t_min) /. 1e3) in
  let event ?(pre = []) ?(tid = 0) ?(post = []) ph name args =
    Json.Object
      ([ ("ph", Json.String ph); ("name", Json.String name) ]
      @ pre
      @ [ ("pid", Json.Int 0); ("tid", Json.Int tid) ]
      @ post
      @ [ ("args", Json.Object args) ])
  in
  let meta =
    event "M" "process_name" [ ("name", Json.String "flexile") ]
    :: List.map
         (fun d ->
           event "M" "thread_name" ~tid:d
             [ ("name", Json.String (Printf.sprintf "domain %d" d)) ])
         (List.sort_uniq compare
            (List.map (fun (r : Trace.span_record) -> r.span_dom) spans
            @ List.map (fun (e : Trace.event_record) -> e.dom) events))
  in
  let complete =
    List.map
      (fun (r : Trace.span_record) ->
        event "X" r.span_name ~tid:r.span_dom
          ~pre:[ ("cat", Json.String "span") ]
          ~post:
            [
              ("ts", us r.span_t0_ns);
              ( "dur",
                Json.Number
                  (Int64.to_float (Int64.sub r.span_t1_ns r.span_t0_ns) /. 1e3)
              );
            ]
          [
            ("arg", Json.Int r.span_arg);
            ("depth", Json.Int r.span_depth);
            ("minor_words", Json.Int (int_of_float r.span_minor_words));
            ("major_words", Json.Int (int_of_float r.span_major_words));
          ])
      spans
  in
  let instants =
    List.map
      (fun (e : Trace.event_record) ->
        event "i" e.name ~tid:e.dom
          ~pre:[ ("cat", Json.String "probe"); ("s", Json.String "t") ]
          ~post:[ ("ts", us e.t_ns) ]
          [ ("arg", Json.Int e.arg) ])
      events
  in
  (* final counter samples: Trace aggregates totals, not series, so a
     single C event at the trace's end still surfaces every counter and
     gauge in Perfetto's counter tracks *)
  let t_end =
    List.fold_left
      (fun acc (r : Trace.span_record) -> max acc r.span_t1_ns)
      t_min spans
  in
  let registry = Trace.registry () in
  let samples kind =
    List.filter_map
      (fun (name, k) ->
        if k = kind then
          Some
            (event "C" name ~post:[ ("ts", us t_end) ]
               [ ("value", Json.Int (Trace.value_by_name name)) ])
        else None)
      registry
  in
  Json.Object
    [
      ("displayTimeUnit", Json.String "ms");
      ( "traceEvents",
        Json.Array
          (meta @ complete @ instants @ samples Trace.Counter
         @ samples Trace.Gauge) );
    ]
