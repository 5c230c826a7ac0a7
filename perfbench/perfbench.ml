(* Pure helpers of the repository benchmark: the percentile rule,
   span self time, /proc parsing, the loss-matrix digest and the
   environment pin.  Kept apart from main.ml so the tests can reach
   them without running a workload. *)

module Trace = Flexile_util.Trace

(* ---------- percentiles ---------- *)

(* Percentiles are given in basis points (9000 = p90) so that every
   rank below is integer arithmetic: a float [0.9 *. n] can land a
   hair above an integer and shift the rank by one. *)

(* 1-based nearest rank: the smallest k with k/n >= bp/10000. *)
let rank ~n bp = max 1 ((bp * n + 9999) / 10000)

let beyond ~n bp = n - rank ~n bp

let percentile sorted bp =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Perfbench.percentile: no samples";
  sorted.(min n (rank ~n bp) - 1)

let min_tail = 10

let samples_for bp =
  let n = ref 1 in
  while beyond ~n:!n bp < min_tail do
    incr n
  done;
  !n

let ladder = [ 9990; 9900; 9000; 5000 ]

let tail_percentile n = List.find_opt (fun bp -> beyond ~n bp >= min_tail) ladder

let bp_label bp =
  if bp mod 100 = 0 then Printf.sprintf "p%d" (bp / 100)
  else Printf.sprintf "p%d.%d" (bp / 100) (bp mod 100 / 10)

let sorted_copy xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs = percentile (sorted_copy xs) 5000

(* ---------- span self time ---------- *)

let duration_ns (t : Trace.span_tree) = Int64.sub t.node_t1_ns t.node_t0_ns

(* A span's duration minus the part of it its children cover.  Child
   spans of one domain nest inside their parent and do not overlap
   each other, so their durations add up. *)
let self_ns (t : Trace.span_tree) =
  let children =
    List.fold_left (fun acc c -> Int64.add acc (duration_ns c)) 0L
      t.node_children
  in
  Int64.max 0L (Int64.sub (duration_ns t) children)

let rec iter_spans ?(ancestors = []) f (t : Trace.span_tree) =
  f ~ancestors t;
  List.iter
    (iter_spans ~ancestors:(t.node_name :: ancestors) f)
    t.node_children

(* Self seconds summed per span name over a forest, sorted by name. *)
let self_by_name trees =
  let tbl = Hashtbl.create 32 in
  List.iter
    (iter_spans (fun ~ancestors:_ t ->
         let prev =
           Option.value ~default:0L (Hashtbl.find_opt tbl t.Trace.node_name)
         in
         Hashtbl.replace tbl t.node_name (Int64.add prev (self_ns t))))
    trees;
  Hashtbl.fold (fun k v acc -> (k, Int64.to_float v *. 1e-9) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------- /proc parsing ---------- *)

(* /proc files report length 0, so read them to end of file. *)
let read_proc path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

let words s =
  String.map (fun c -> if c = '\t' then ' ' else c) s
  |> String.split_on_char ' '
  |> List.filter (fun w -> w <> "")

type cpu_times = { total : int; steal : int }

(* The aggregate "cpu" line of /proc/stat: user nice system idle
   iowait irq softirq steal [guest guest_nice].  Guest time is already
   counted in user/nice, so the total stops at steal. *)
let parse_proc_stat text =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match words line with
         | "cpu" :: fields -> (
             match List.map int_of_string_opt fields with
             | Some u :: Some n :: Some s :: Some i :: Some io :: Some irq
               :: Some sirq :: Some st :: _ ->
                 Some
                   { total = u + n + s + i + io + irq + sirq + st; steal = st }
             | _ -> None)
         | _ -> None)

let steal_pct a b =
  let dt = b.total - a.total in
  if dt <= 0 then 0.
  else 100. *. float_of_int (b.steal - a.steal) /. float_of_int dt

(* A "Key:   value kB" field of /proc/self/status, in kB. *)
let parse_status_kb key text =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.equal (String.sub line 0 i) key -> (
             match words (String.sub line (i + 1) (String.length line - i - 1)) with
             | v :: _ -> int_of_string_opt v
             | [] -> None)
         | _ -> None)

let parse_loadavg text =
  match words (String.trim text) with
  | v :: _ -> float_of_string_opt v
  | [] -> None

(* ---------- output digest ---------- *)

(* MD5 of the loss matrix quantized to 1e-6, flow-major.  Quantizing
   keeps the digest independent of last-bit differences between
   equally optimal LP solutions; the integer conversion folds -0
   into 0. *)
let loss_digest (losses : float array array) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun row ->
      Array.iter
        (fun v -> Printf.bprintf b "%d," (int_of_float (Float.round (v *. 1e6))))
        row;
      Buffer.add_char b '\n')
    losses;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- environment pin ---------- *)

(* Variables the library reads once at module initialisation; any of
   them set would make the benchmark measure a different program. *)
let pinned_exact =
  [ "FLEXILE_DENSE_SIMPLEX"; "FLEXILE_ETA_LIMIT"; "FLEXILE_TRACE"; "FLEXILE_JOBS" ]

let pinned_prefix = "FLEXILE_HEALTH_"

let pinned_violations env =
  Array.to_list env
  |> List.filter_map (fun kv ->
         let name =
           match String.index_opt kv '=' with
           | Some i -> String.sub kv 0 i
           | None -> kv
         in
         if List.mem name pinned_exact || String.starts_with ~prefix:pinned_prefix name
         then Some name
         else None)
  |> List.sort_uniq String.compare
