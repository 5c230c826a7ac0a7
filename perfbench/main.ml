(* The repository benchmark: offline/online latency and solution
   quality of Flexile on three workloads, timed from outside the
   library through its public entry points.  See README.md for the
   metrics, the workloads and why each was chosen.

     dune exec --root . -- ./perfbench/main.exe \
       --workload ibm-sweep --seed 1 --seconds 35 --trace 0

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}. *)

module Builder = Flexile_core.Builder
module Instance = Flexile_te.Instance
module Offline = Flexile_te.Flexile_offline
module Online = Flexile_te.Flexile_online
module Metrics = Flexile_te.Metrics
module Mlu = Flexile_te.Mlu
module Tunnels = Flexile_net.Tunnels
module Graph = Flexile_net.Graph
module Trace = Flexile_util.Trace
module Prng = Flexile_util.Prng
module P = Perfbench

(* ---------- workloads ---------- *)

type golden = {
  flows : int;
  scenarios : int;
  offline_penalty : float;  (** best iterate of [Flexile_offline.solve] *)
  penalty : float;  (** weighted PercLoss of the online loss matrix *)
  digest : string;  (** {!Perfbench.loss_digest} of the online matrix *)
}

type workload = {
  name : string;
  topology : string;
  two_class : bool;
  max_pairs : int;
  max_scenarios : int;
  golden : golden;
}

(* Why these three: each loads a different layer and a different LP
   shape, so a change tuned for one that costs another shows up.
   - cwix-master: the master branch-and-bound is ~95% of offline_s and
     runs in one domain (a chain of node LP re-solves).
   - ibm-sweep: one offline iteration, so no master; hundreds of small
     independent LPs fanned over domains by the scenario engine.
   - continental: set-up is dominated by k-shortest-path tunnel
     selection; few, ~10x larger and sparser LPs stress LU factor
     and FTRAN/BTRAN, and 30 coarse scenarios stress static sharding. *)
let workloads =
  [
    {
      name = "cwix-master";
      topology = "CWIX";
      two_class = true;
      max_pairs = 60;
      max_scenarios = 30;
      golden =
        {
          flows = 120;
          scenarios = 30;
          offline_penalty = 0.97528935990388543;
          penalty = 0.97529945990388522;
          digest = "4a7e3f06776e81ba07067dff5dce8bbe";
        };
    };
    {
      name = "ibm-sweep";
      topology = "IBM";
      two_class = true;
      max_pairs = 240;
      max_scenarios = 150;
      golden =
        {
          flows = 272;
          scenarios = 107;
          offline_penalty = 0.;
          penalty = 0.;
          digest = "03cddf5c1e35595ff12777391239aded";
        };
    };
    {
      name = "continental";
      topology = "Continental";
      two_class = false;
      max_pairs = 300;
      max_scenarios = 30;
      golden =
        {
          flows = 300;
          scenarios = 30;
          offline_penalty = 0.;
          penalty = 0.;
          digest = "7fbdbad165a8db8323753e41002edae9";
        };
    };
  ]

let builder_options w =
  {
    Builder.default_options with
    max_pairs = w.max_pairs;
    max_scenarios = w.max_scenarios;
  }

let setup_round_s = 0.5

(* Allocate requests per timed round: whole passes over the scenario
   set (so every run samples the same multiset of scenarios) for at
   least this many seconds, so every workload spends a similar share
   of the run on its online latency. *)
let alloc_round_s = 2.5
let jobs = Domain.recommended_domain_count ()

(* The default offline configuration with the master's time limit
   lifted: only the 400-node limit binds, so a slower or busier host
   returns the same critical sets and the same penalty. *)
let offline_config =
  {
    Offline.default_config with
    jobs;
    master = { Offline.default_config.master with time_limit = infinity };
  }

(* ---------- operations and their output checks ---------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let new_tally () = { attempted = 0; failed = 0; notes = [] }

let note tally msg =
  if List.length tally.notes < 20 then tally.notes <- msg :: tally.notes

(* Every operation is timed on two clocks.  Wall time is what a user
   waits; process CPU time leaves out the time the host steals from
   this VM, which on a shared 2-vCPU host moves wall time by tens of
   percent from minute to minute.  The regression-gated metrics use
   CPU time, and wall time is reported beside them. *)
type clock = { wall : float; cpu : float }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let w0 = Trace.now_s () and c0 = cpu_now () in
  let v = f () in
  (v, { wall = Trace.now_s () -. w0; cpu = cpu_now () -. c0 })

(* Run one operation; it fails if it raises or its output check
   returns an error. *)
let attempt tally what f check =
  tally.attempted <- tally.attempted + 1;
  match timed f with
  | exception e ->
      tally.failed <- tally.failed + 1;
      note tally (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None
  | v, clock -> (
      match check v with
      | Ok () -> Some (v, clock)
      | Error msg ->
          tally.failed <- tally.failed + 1;
          note tally (Printf.sprintf "%s: %s" what msg);
          None)

let close a b = Float.abs (a -. b) <= 1e-9

let check_matrix inst (m : Instance.losses) =
  let nq = Instance.nscenarios inst in
  if Array.length m <> Instance.nflows inst then Error "loss matrix has wrong flow count"
  else
    let bad = ref None in
    Array.iteri
      (fun fid row ->
        if Array.length row <> nq then bad := Some "loss row has wrong scenario count"
        else
          Array.iteri
            (fun sid v ->
              if not (v >= 0. && v <= 1.) then
                bad := Some (Printf.sprintf "loss[%d][%d] = %g outside [0,1]" fid sid v))
            row)
      m;
    match !bad with Some e -> Error e | None -> Ok ()

let check_solve g inst (r : Offline.result) =
  match check_matrix inst r.Offline.best.Offline.losses with
  | Error e -> Error e
  | Ok () ->
      if close r.Offline.best.Offline.penalty g.offline_penalty then Ok ()
      else
        Error
          (Printf.sprintf "offline penalty %.17g, golden %.17g"
             r.Offline.best.Offline.penalty g.offline_penalty)

let check_run g inst losses =
  match check_matrix inst losses with
  | Error e -> Error e
  | Ok () ->
      let pen = Metrics.total_weighted_penalty inst losses in
      let dg = P.loss_digest losses in
      if not (close pen g.penalty) then
        Error (Printf.sprintf "penalty %.17g, golden %.17g" pen g.penalty)
      else if not (String.equal dg g.digest) then
        Error (Printf.sprintf "loss digest %s, golden %s" dg g.digest)
      else Ok ()

(* One scenario's allocation: every positive-demand flow exactly once,
   each loss in [0,1] and equal to the checked [run] matrix. *)
let check_allocate inst (reference : Instance.losses) sid alloc =
  let seen = Array.make (Instance.nflows inst) false in
  let err = ref None in
  List.iter
    (fun (fid, v) ->
      if fid < 0 || fid >= Array.length seen || seen.(fid) then
        err := Some (Printf.sprintf "flow %d duplicated or out of range" fid)
      else begin
        seen.(fid) <- true;
        let c = Float.max 0. (Float.min 1. v) in
        if not (v >= -1e-7 && v <= 1. +. 1e-7) then
          err := Some (Printf.sprintf "loss %g of flow %d outside [0,1]" v fid)
        else if not (close c reference.(fid).(sid)) then
          err :=
            Some
              (Printf.sprintf "flow %d loss %.17g, run gave %.17g" fid c
                 reference.(fid).(sid))
      end)
    alloc;
  Array.iter
    (fun (f : Instance.flow) ->
      if Instance.demand_in inst f sid > 0. && not seen.(f.Instance.fid) then
        err := Some (Printf.sprintf "flow %d missing" f.Instance.fid))
    inst.Instance.flows;
  match !err with Some e -> Error e | None -> Ok ()

(* Probability-weighted mean online loss over positive-demand flows:
   the expected share of a flow's demand lost.  Unlike the PercLoss
   penalty it is nonzero on every workload (some scenario always
   disconnects some flow). *)
let mean_loss inst (losses : Instance.losses) =
  let sum = ref 0. and n = ref 0 in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then begin
        incr n;
        Array.iter
          (fun (s : Flexile_failure.Failure_model.scenario) ->
            sum := !sum +. (s.prob *. losses.(f.Instance.fid).(s.sid)))
          inst.Instance.scenarios
      end)
    inst.Instance.flows;
  if !n = 0 then 0. else !sum /. float_of_int !n

(* ---------- set-up ---------- *)

let now_s () = Trace.now_s ()

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let build w =
  Builder.of_name ~options:(builder_options w) ~two_classes:w.two_class
    w.topology

let check_instance w inst =
  let g = w.golden in
  if Instance.nflows inst <> g.flows || Instance.nscenarios inst <> g.scenarios
  then
    failwith
      (Printf.sprintf "%s built %d flows x %d scenarios, expected %d x %d" w.name
         (Instance.nflows inst) (Instance.nscenarios inst) g.flows g.scenarios);
  inst

(* One round's set-up: Builder.of_name repeated for at least
   [setup_round_s], so a cheap set-up contributes many samples.  The
   samples of every round feed one median. *)
let builds w times =
  let t0 = now_s () in
  let rec go first =
    let inst, c = timed (fun () -> build w) in
    times := c :: !times;
    let first = Option.value first ~default:inst in
    if now_s () -. t0 >= setup_round_s then first else go (Some first)
  in
  check_instance w (go None)

(* ---------- one round of the measured operations ---------- *)

type samples = {
  offline : clock list ref;  (** per solve *)
  sweep : clock list ref;  (** per [run] over every scenario *)
  alloc : clock list ref;  (** per allocate *)
  reference : Instance.losses option ref;  (** checked online matrix *)
}

let new_samples () =
  { offline = ref []; sweep = ref []; alloc = ref []; reference = ref None }

let push r v = r := v :: !r

(* [bracket label f] wraps each public call; the traced run uses it to
   take counter deltas, the timed run passes the identity. *)
type bracket = { br : 'a. string -> (unit -> 'a) -> 'a }

let no_bracket = { br = (fun _ f -> f ()) }

(* The online request stream: scenario ids in successive seeded
   permutations of the scenario set, one allocate at a time. *)
type requests = { prng : Prng.t; mutable perm : int array; mutable pos : int }

let requests seed = { prng = Prng.create (Int64.of_int seed); perm = [||]; pos = 0 }

let next_sid rq n =
  if rq.pos >= Array.length rq.perm then begin
    rq.perm <- Array.init n Fun.id;
    Prng.shuffle rq.prng rq.perm;
    rq.pos <- 0
  end;
  rq.pos <- rq.pos + 1;
  rq.perm.(rq.pos - 1)

(* At least one request, then whole passes until [secs] have passed. *)
let allocate_passes ~bracket ~tally ~rq ~secs inst (off : Offline.result) reference
    samples =
  let best = off.Offline.best in
  let t0 = now_s () and ok = ref true and first = ref true in
  while !ok && (!first || now_s () -. t0 < secs || rq.pos < Array.length rq.perm) do
    first := false;
    let sid = next_sid rq (Instance.nscenarios inst) in
    match
      attempt tally "allocate"
        (fun () ->
          bracket.br "online.allocate" (fun () ->
              Online.allocate inst ~sid
                ~critical:(fun fid -> best.Offline.z.(fid).(sid))
                ~offline_loss:(fun fid -> best.Offline.losses.(fid).(sid))))
        (check_allocate inst reference sid)
    with
    | Some (_, dt) -> push samples.alloc dt
    | None -> ok := false
  done

(* [f] repeated for at least [secs] seconds, at least once; the last
   result, or [None] as soon as one attempt fails. *)
let phase_s = 2.

let repeat_phase secs f =
  let t0 = now_s () in
  let rec go () =
    match f () with
    | Some v when now_s () -. t0 >= secs -> Some v
    | Some _ -> go ()
    | None -> None
  in
  go ()

(* Every round starts from a collected heap, so garbage left by the
   previous round does not land in this round's timings.  A timed round
   repeats each operation for a while; with [~once] it does one solve,
   one run and one allocate pass, so its work counts are fixed. *)
let round ?(bracket = no_bracket) ?(once = false) ~tally ~rq w inst samples =
  let phase = if once then 0. else phase_s and alloc = if once then 0. else alloc_round_s in
  Gc.full_major ();
  let g = w.golden in
  let measured r = Option.map (fun (v, c) -> push r c; v) in
  let solve () =
    attempt tally "solve"
      (fun () -> bracket.br "offline.solve" (fun () -> Offline.solve ~config:offline_config inst))
      (check_solve g inst)
    |> measured samples.offline
  in
  let run off () =
    attempt tally "run"
      (fun () -> bracket.br "online.run" (fun () -> Online.run ~jobs inst ~offline:off))
      (check_run g inst)
    |> measured samples.sweep
  in
  Option.bind (repeat_phase phase solve) (fun off ->
      Option.map
        (fun losses ->
          samples.reference := Some losses;
          allocate_passes ~bracket ~tally ~rq ~secs:alloc inst off losses samples;
          off)
        (repeat_phase phase (run off)))

(* ---------- reporting ---------- *)

type metric = { m_name : string; value : float; unit_ : string; count : int }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-32s %16.6f %-12s n=%d\n" m.m_name m.value m.unit_ m.count)
    rows

let result_line ~correct ~tally metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string m.m_name)
          (json_num m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct tally.attempted tally.failed (String.concat "," fields)

(* ---------- host and build identity ---------- *)

let proc_stat () = Option.bind (P.read_proc "/proc/stat") P.parse_proc_stat

let peak_rss_mb () =
  match Option.bind (P.read_proc "/proc/self/status") (P.parse_status_kb "VmHWM") with
  | Some kb -> float_of_int kb /. 1024.
  | None -> Float.nan

let loadavg () =
  Option.value ~default:Float.nan
    (Option.bind (P.read_proc "/proc/loadavg") P.parse_loadavg)

(* The checkout the benchmark runs in need not be a git repository;
   the digest of lib/ identifies the measured program either way. *)
let git_commit () =
  let rd p = Option.map String.trim (P.read_proc p) in
  match rd ".git/HEAD" with
  | None -> "none"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match rd (Filename.concat ".git" r) with Some h -> h | None -> r)
  | Some h -> h

let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort String.compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
               then [ p ]
               else [])
  in
  match files "lib" with
  | [] -> "none"
  | fs -> Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file fs)))

let env_record ~w ~seed ~seconds ~trace ~steal ~load extra =
  let fields =
    [
      ("workload", json_string w.name);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_int trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("jobs", string_of_int jobs);
      ("ocaml", json_string Sys.ocaml_version);
      ("commit", json_string (git_commit ()));
      ("lib_digest", json_string (source_digest ()));
      ("host_steal_pct", json_num steal);
      ("loadavg_1m", json_num load);
    ]
    @ extra
  in
  Printf.printf "{\"perfbench\":{%s}}\n"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) v) fields))

(* ---------- the timed run (tracing off) ---------- *)

(* [f] repeated until [seconds] have passed, at least once; a new
   repetition starts only if at least half of it still fits.  Returns
   the number of repetitions. *)
let repeat_until ~seconds f =
  let deadline = now_s () +. float_of_int seconds in
  let n = ref 0 and last = ref 0. in
  while !n = 0 || now_s () +. (!last /. 2.) < deadline do
    let t0 = now_s () in
    incr n;
    f ();
    last := now_s () -. t0
  done;
  !n

(* [metrics] go on the result line; [report] is printed beside them. *)
type outcome = {
  metrics : metric list;
  report : metric list;
  tally : tally;
  extra : (string * string) list;
}

let ms = 1e3

let timed_run w ~seed ~seconds =
  let tally = new_tally () in
  let rq = requests seed in
  let setup_times = ref [] in
  let samples = new_samples () in
  let inst = ref None and last = ref None in
  let rounds =
    repeat_until ~seconds (fun () ->
        let built = builds w setup_times in
        let i = Option.value !inst ~default:built in
        inst := Some i;
        Option.iter (fun off -> last := Some off) (round ~tally ~rq w i samples))
  in
  let inst = Option.get !inst in
  (* top up so that at least ten allocate samples lie beyond p90 *)
  (match (!last, !(samples.reference)) with
  | Some off, Some reference ->
      while tally.failed = 0 && List.length !(samples.alloc) < P.samples_for 9000 do
        allocate_passes ~bracket:no_bracket ~tally ~rq ~secs:0. inst off reference samples
      done
  | _ -> ());
  let nq = float_of_int (Instance.nscenarios inst) in
  let n r = List.length !r in
  let med f r = if !r = [] then Float.nan else P.median (Array.of_list (List.map f !r)) in
  let wall c = c.wall and cpu c = c.cpu in
  let nalloc = n samples.alloc in
  let pct f bp =
    if nalloc = 0 then Float.nan
    else ms *. P.percentile (P.sorted_copy (Array.of_list (List.map f !(samples.alloc)))) bp
  in
  let reference = !(samples.reference) in
  let quality f = match reference with Some l -> f inst l | None -> Float.nan in
  let m m_name unit_ count value = { m_name; value; unit_; count } in
  let metrics =
    [
      m "setup_s" "s" (n setup_times) (med cpu setup_times);
      m "offline_cpu_s" "s" (n samples.offline) (med cpu samples.offline);
      m "online_alloc_cpu_p50_ms" "ms" nalloc (pct cpu 5000);
      m "online_alloc_cpu_p90_ms" "ms" nalloc (pct cpu 9000);
      m "online_scen_per_cpu_s" "scenarios/s" (n samples.sweep)
        (med (fun c -> nq /. c.cpu) samples.sweep);
      m "mean_loss" "fraction" 1 (quality mean_loss);
      m "peak_rss_mb" "MiB" 1 (peak_rss_mb ());
    ]
  in
  let report =
    [
      m "setup_wall_s" "s" (n setup_times) (med wall setup_times);
      m "offline_s" "s" (n samples.offline) (med wall samples.offline);
      m "online_alloc_p50_ms" "ms" nalloc (pct wall 5000);
      m "online_alloc_p90_ms" "ms" nalloc (pct wall 9000);
      m "online_scen_per_s" "scenarios/s" (n samples.sweep)
        (med (fun c -> nq /. c.wall) samples.sweep);
      m "penalty" "PercLoss" 1 (quality Metrics.total_weighted_penalty);
      m "fail_ratio" "ratio" tally.attempted
        (float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
    ]
  in
  let tail =
    match P.tail_percentile nalloc with
    | Some bp -> Printf.sprintf "%s=%.3fms" (P.bp_label bp) (pct wall bp)
    | None -> "none"
  in
  let extra =
    [
      ("rounds", string_of_int rounds);
      ("offline_penalty",
        json_num (match !last with Some o -> o.Offline.best.Offline.penalty | None -> Float.nan));
      ("loss_digest", json_string (match reference with Some l -> P.loss_digest l | None -> ""));
      ("alloc_tail", json_string tail);
    ]
  in
  { metrics; report; tally; extra }

(* ---------- the traced run ---------- *)

(* Builder phases timed from outside by calling the same public
   functions Builder.of_name calls, on the built instance's pairs.
   The seed label mirrors Builder's, so the scenario set matches. *)
let builder_phases w (inst : Instance.t) =
  let graph = inst.Instance.graph and opts = builder_options w in
  let pairs = Array.to_list inst.Instance.pairs in
  let count = opts.Builder.tunnels_per_pair in
  let select () =
    if w.two_class then
      List.map
        (fun pair ->
          let high = Tunnels.select_high_priority graph ~pair ~count in
          (high, Tunnels.select_low_priority graph ~pair ~high ~extra:opts.low_extra_tunnels))
        pairs
      |> List.split
      |> fun (h, l) -> [ h; l ]
    else [ List.map (fun pair -> Tunnels.select_single_class graph ~pair ~count) pairs ]
  in
  let selected, tunnels_s = time select in
  let nodes ts = List.map (fun t -> t.Tunnels.nodes) ts in
  let same =
    List.for_all2
      (fun per_pair built ->
        List.for_all2 (fun ts b -> nodes ts = nodes (Array.to_list b)) per_pair
          (Array.to_list built))
      selected (Array.to_list inst.Instance.tunnels)
  in
  let demands = Array.make (Array.length inst.Instance.pairs) 0. in
  Array.iter
    (fun (f : Instance.flow) -> demands.(f.Instance.pair) <- f.Instance.demand)
    (Instance.flows_of_class inst 0);
  let _, mlu_s =
    time (fun () -> Mlu.min_mlu ~graph ~tunnels:inst.Instance.tunnels.(0) ~demands)
  in
  (* Builder splits its per-instance stream in this order, and every
     split advances the parent, so the failure seed is the last one. *)
  let prefix, labels =
    if w.two_class then ("flexile-instance2-", [ "pairs"; "traffic"; "split"; "failures" ])
    else ("flexile-instance-", [ "pairs"; "traffic"; "failures" ])
  in
  let parent = Prng.of_string (prefix ^ graph.Graph.name) in
  let seed = List.fold_left (fun _ l -> Prng.split parent l) parent labels in
  let (scen, _, _), scenarios_s =
    time (fun () ->
        Builder.scenario_set ~options:opts ~seed ~graph
          ~npairs:(Array.length inst.Instance.pairs))
  in
  let same = same && Array.length scen = Instance.nscenarios inst in
  (tunnels_s, mlu_s, scenarios_s, same)

type call = {
  label : string;
  c_t0 : int64;
  c_t1 : int64;
  deltas : (string * int) list;  (** nonzero counter deltas *)
  minor_words : float;
  major_collections : int;
}

let counters () =
  List.filter_map
    (fun (n, k) -> if k = Trace.Counter then Some (n, Trace.value_by_name n) else None)
    (Trace.registry ())

let tracing_bracket calls =
  {
    br =
      (fun label f ->
        let c0 = counters () and g0 = Gc.quick_stat () and t0 = Trace.now_ns () in
        let finish () =
          let t1 = Trace.now_ns () and g1 = Gc.quick_stat () in
          let deltas =
            List.filter_map
              (fun (n, v1) ->
                let d = v1 - Option.value ~default:0 (List.assoc_opt n c0) in
                if d <> 0 then Some (n, d) else None)
              (counters ())
          in
          calls :=
            {
              label;
              c_t0 = t0;
              c_t1 = t1;
              deltas;
              minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
              major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
            }
            :: !calls
        in
        Fun.protect ~finally:finish f);
  }

let ns_to_s ns = Int64.to_float ns *. 1e-9

let layer_of name =
  match name with
  | "offline.master" -> "lp.Mip"
  | "simplex.solve" | "simplex.resolve_rhs" -> "lp.Simplex"
  | "engine.sweep" | "engine.merge" | "parallel.shard" -> "te.Scenario_engine+Parallel"
  | s when String.starts_with ~prefix:"offline" s -> "te.Flexile_offline"
  | s when String.starts_with ~prefix:"online" s -> "te.Flexile_online+Scen_lp"
  | _ -> "other"

(* Calls grouped by label, in first-seen order. *)
let by_label calls =
  List.fold_left
    (fun acc c ->
      if List.mem_assoc c.label acc then
        List.map (fun (l, cs) -> if l = c.label then (l, c :: cs) else (l, cs)) acc
      else acc @ [ (c.label, [ c ]) ])
    [] calls

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

(* Share of each call's wall time covered by the spans the library
   opened on the calling domain while the call ran. *)
let coverage main_roots c =
  let covered =
    List.fold_left
      (fun acc (t : Trace.span_tree) ->
        if t.node_t0_ns >= c.c_t0 && t.node_t1_ns <= c.c_t1 then
          Int64.add acc (P.duration_ns t)
        else acc)
      0L main_roots
  in
  ns_to_s covered

let delta label name groups =
  match List.assoc_opt label groups with
  | None -> 0
  | Some cs ->
      List.fold_left
        (fun a c -> a + Option.value ~default:0 (List.assoc_opt name c.deltas))
        0 cs

let wall cs = sum (fun c -> ns_to_s (Int64.sub c.c_t1 c.c_t0)) cs

(* Per-layer metrics of one traced round, plus the ledger table. *)
let layer_metrics ~print ~main_dom calls =
  let calls = List.rev calls in
  let groups = by_label calls in
  let trees = Trace.span_trees () in
  let nodes = ref [] in
  List.iter (P.iter_spans (fun ~ancestors t -> nodes := (t, ancestors) :: !nodes)) trees;
  let named n = List.filter (fun ((t : Trace.span_tree), _) -> t.node_name = n) !nodes in
  let durs l = List.map (fun (t, _) -> ns_to_s (P.duration_ns t)) l in
  let selfs l = List.map (fun (t, _) -> ns_to_s (P.self_ns t)) l in
  let total l = List.fold_left ( +. ) 0. l in
  let mean_ms l = if l = [] then 0. else 1e3 *. total l /. float_of_int (List.length l) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let c name = float_of_int (Trace.value_by_name name) in
  let group label = Option.value ~default:[] (List.assoc_opt label groups) in
  let offline_wall = wall (group "offline.solve") in
  let online_calls = group "online.run" @ group "online.allocate" in
  let node_lps =
    List.filter (fun (_, anc) -> List.mem "offline.master" anc) (named "simplex.solve")
  in
  let solves = named "simplex.solve" @ named "simplex.resolve_rhs" in
  let shards = P.sorted_copy (Array.of_list (durs (named "parallel.shard"))) in
  let sweep_wall = total (durs (named "engine.sweep")) in
  let iters_hist = Trace.hist_snapshot_by_name "simplex.iterations_per_solve" in
  let p50_iters = Trace.hist_quantile_of iters_hist 0.5 in
  let master_s = Trace.timer_seconds_by_name "flexile.master" in
  let sweep_s = Trace.timer_seconds_by_name "flexile.subproblem_sweep" in
  let busy_s = Trace.timer_seconds_by_name "parallel.worker_busy" in
  let pruned = c "flexile.scenarios_pruned" and solved = c "flexile.subproblems_solved" in
  let main_roots = List.filter (fun (t : Trace.span_tree) -> t.node_dom = main_dom) trees in
  let cov label =
    let cs = group label in
    ratio (sum (coverage main_roots) cs) (wall cs)
  in
  let warm_attempts = c "simplex.warm_attempts" in
  let timer = Trace.timer_seconds_by_name in
  let mwords cs = 1e-6 *. sum (fun c -> c.minor_words) cs in
  let iters label = float_of_int (delta label "simplex.iterations" groups) in
  let master_words =
    sum (fun ((t : Trace.span_tree), _) -> t.node_minor_words) (named "offline.master")
  in
  let m name unit_ value = { m_name = name; value; unit_; count = 1 } in
  let metrics =
    [
      m "offline.master_s" "s" master_s;
      m "offline.sweep_s" "s" sweep_s;
      m "offline.master_share" "ratio" (ratio master_s offline_wall);
      m "offline.sweep_share" "ratio" (ratio sweep_s offline_wall);
      m "offline.iterations" "count" (c "flexile.iterations");
      m "offline.subproblems_solved" "count" solved;
      m "offline.cuts_shared" "count" (c "flexile.cuts_shared");
      m "offline.prune_ratio" "ratio" (ratio pruned (pruned +. solved));
      m "offline.prune_base" "count" (pruned +. solved);
      m "mip.node_lps" "count" (float_of_int (List.length node_lps));
      m "mip.ms_per_node_lp" "ms" (mean_ms (durs node_lps));
      m "mip.minor_mwords" "Mwords" (1e-6 *. master_words);
      m "simplex.iterations.offline" "count" (iters "offline.solve");
      m "simplex.iterations.online" "count" (iters "online.run" +. iters "online.allocate");
      m "simplex.refactorizations" "count" (c "simplex.refactorizations");
      m "simplex.eta_updates" "count" (c "simplex.eta_updates");
      m "simplex.factor_s" "s" (timer "simplex.factor");
      m "simplex.self_s" "s" (total (selfs (named "simplex.solve")));
      m "simplex.iters_per_s" "1/s" (ratio (c "simplex.iterations") (total (durs solves)));
      m "simplex.iters_per_solve_p50" "count"
        (if Float.is_finite p50_iters then p50_iters else 0.);
      m "simplex.warm_hit_ratio" "ratio" (ratio (c "simplex.warm_hits") warm_attempts);
      m "simplex.warm_attempts" "count" warm_attempts;
      m "health.threshold_trips" "count" (c "health.threshold_trips");
      m "health.stalls" "count" (c "health.stalls");
      m "parallel.efficiency" "ratio" (ratio busy_s (float_of_int jobs *. sweep_wall));
      m "parallel.imbalance_permille" "permille" (c "parallel.imbalance_permille");
      m "parallel.shard_p50_ms" "ms"
        (if shards = [||] then 0. else 1e3 *. P.percentile shards 5000);
      m "parallel.shard_max_ms" "ms"
        (if shards = [||] then 0. else 1e3 *. shards.(Array.length shards - 1));
      m "online.critical_alloc_self_ms" "ms"
        (mean_ms (selfs (named "online.critical-alloc")));
      m "online.maxmin_self_ms" "ms" (mean_ms (selfs (named "online.maxmin-loss")));
      m "gc.minor_mwords.offline" "Mwords" (mwords (group "offline.solve"));
      m "gc.minor_mwords.online" "Mwords" (mwords online_calls);
      m "gc.major_collections" "count"
        (float_of_int (List.fold_left (fun a c -> a + c.major_collections) 0 calls));
      m "trace.spans_dropped" "count" (float_of_int (Trace.spans_dropped ()));
      m "trace.ledger_coverage" "ratio"
        (List.fold_left (fun a (l, _) -> Float.min a (cov l)) 1. groups);
    ]
  in
  if print then begin
    Printf.printf "\nledger: self time per layer, all domains (one traced round)\n";
    let per_layer = Hashtbl.create 8 in
    List.iter
      (fun (name, s) ->
        let l = layer_of name in
        Hashtbl.replace per_layer l (s +. Option.value ~default:0. (Hashtbl.find_opt per_layer l)))
      (P.self_by_name trees);
    Hashtbl.fold (fun l s acc -> (l, s) :: acc) per_layer []
    |> List.sort compare
    |> List.iter (fun (l, s) -> Printf.printf "  %-32s %10.4f s\n" l s);
    Printf.printf
      "\nledger: public calls (wall, span coverage on the calling domain, counter deltas)\n";
    List.iter
      (fun (label, cs) ->
        let cs = List.rev cs in
        Printf.printf "  %s x%d: wall %.4f s, coverage %.3f, minor %.2f Mwords\n" label
          (List.length cs) (wall cs) (cov label) (mwords cs);
        let names = List.sort_uniq compare (List.concat_map (fun c -> List.map fst c.deltas) cs) in
        List.iter (fun n -> Printf.printf "      %-34s %+d\n" n (delta label n groups)) names)
      groups
  end;
  metrics

(* Untraced and traced rounds alternate until the deadline; each
   per-layer metric is the median over the traced rounds, and the
   tracing overhead compares the two rounds' median wall times. *)
let traced_run w ~seed ~seconds =
  let tally = new_tally () in
  let rq = requests seed in
  let setup_times = ref [] in
  let inst = builds w setup_times in
  let setup_s = P.median (Array.of_list (List.map (fun c -> c.wall) !setup_times)) in
  let tunnels_s, mlu_s, scenarios_s, same = builder_phases w inst in
  if not same then note tally "builder phases re-run by the benchmark differ from Builder.of_name";
  let main_dom = (Domain.self () :> int) in
  let plain = ref [] and traced = ref [] and per_round = ref [] in
  let pairs =
    repeat_until ~seconds (fun () ->
        let samples = new_samples () in
        push plain (snd (time (fun () -> round ~once:true ~tally ~rq w inst samples)));
        let calls = ref [] in
        Trace.reset ();
        Trace.set_enabled true;
        let bracket = tracing_bracket calls in
        Fun.protect
          ~finally:(fun () -> Trace.set_enabled false)
          (fun () -> time (fun () -> round ~bracket ~once:true ~tally ~rq w inst samples))
        |> snd |> push traced;
        push per_round (layer_metrics ~print:(!per_round = []) ~main_dom !calls))
  in
  let rounds = List.rev !per_round in
  let median_of name =
    P.median
      (Array.of_list
         (List.map (fun ms -> (List.find (fun m -> m.m_name = name) ms).value) rounds))
  in
  let layers =
    List.map
      (fun m -> { m with value = median_of m.m_name; count = List.length rounds })
      (List.hd rounds)
  in
  if median_of "trace.spans_dropped" > 0. then note tally "trace dropped spans";
  let overhead =
    100. *. (P.median (Array.of_list !traced) /. P.median (Array.of_list !plain) -. 1.)
  in
  let m name unit_ value = { m_name = name; value; unit_; count = 1 } in
  let metrics =
    [
      m "builder.tunnels_s" "s" tunnels_s;
      m "builder.mlu_scale_s" "s" mlu_s;
      m "builder.scenarios_s" "s" scenarios_s;
      m "builder.tunnels_share" "ratio" (tunnels_s /. setup_s);
    ]
    @ layers
    @ [ { (m "trace.overhead_pct" "%" overhead) with count = pairs } ]
  in
  let report = [ m "setup_wall_s" "s" setup_s ] in
  { metrics; report; tally; extra = [] }

(* ---------- command line ---------- *)

let run_workload w ~seed ~seconds ~trace =
  let stat0 = proc_stat () in
  let o = if trace then traced_run w ~seed ~seconds else timed_run w ~seed ~seconds in
  let steal =
    match (stat0, proc_stat ()) with Some a, Some b -> P.steal_pct a b | _ -> Float.nan
  in
  let o =
    if trace then
      let host = { m_name = "host.steal_pct"; value = steal; unit_ = "%"; count = 1 } in
      { o with metrics = o.metrics @ [ host ] }
    else o
  in
  Printf.printf "\n== %s (seed %d, %ds, trace %b, jobs %d) ==\n" w.name seed seconds trace jobs;
  print_table "result metrics (value, unit, samples)" o.metrics;
  print_table "reported beside them" o.report;
  List.iter (fun n -> Printf.printf "FAILED: %s\n" n) (List.rev o.tally.notes);
  let obj f l =
    let field m = Printf.sprintf "%s:%s" (json_string m.m_name) (f m) in
    "{" ^ String.concat "," (List.map field l) ^ "}"
  in
  env_record ~w ~seed ~seconds ~trace:(Bool.to_int trace) ~steal ~load:(loadavg ())
    (o.extra
    @ [
        ("attempted", string_of_int o.tally.attempted);
        ("failed", string_of_int o.tally.failed);
        ("report", obj (fun m -> json_num m.value) o.report);
        ("samples", obj (fun m -> string_of_int m.count) (o.metrics @ o.report));
      ]);
  o

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
        "NAME  " ^ String.concat " | " (List.map (fun w -> w.name) workloads @ [ "all" ]));
      ("--seed", Arg.Set_int seed, "N  seed of the allocate request order");
      ("--seconds", Arg.Set_int seconds, "S  measuring time per workload");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run reporting per-layer metrics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  (match P.pinned_violations (Unix.environment ()) with
  | [] -> ()
  | vs ->
      Printf.eprintf "perfbench: refusing to run with %s set (read at module init; unset them)\n"
        (String.concat ", " vs);
      exit 2);
  let chosen =
    if !workload = "all" then workloads
    else
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> [ w ]
      | None ->
          Printf.eprintf "perfbench: unknown workload %S\n" !workload;
          exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let outcomes =
    List.map
      (fun w ->
        Trace.reset ();
        (w, run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)))
      chosen
  in
  let prefix w m =
    if List.length chosen = 1 then m else { m with m_name = w.name ^ "." ^ m.m_name }
  in
  let tally = new_tally () in
  List.iter
    (fun (_, o) ->
      tally.attempted <- tally.attempted + o.tally.attempted;
      tally.failed <- tally.failed + o.tally.failed)
    outcomes;
  let correct = List.for_all (fun (_, o) -> o.tally.notes = []) outcomes in
  print_endline
    (result_line ~correct ~tally
       (List.concat_map (fun (w, o) -> List.map (prefix w) o.metrics) outcomes));
  if not correct then exit 1
