module Trace = Flexile_util.Trace

type path = int array

let c_runs = Trace.counter "paths.dijkstra_runs"
let c_pops = Trace.counter "paths.heap_pops"

let nodes g ~src p =
  let out = Array.make (Array.length p + 1) src in
  let cur = ref src in
  Array.iteri
    (fun i eid ->
      let e = g.Graph.edges.(eid) in
      let nxt = Graph.other_endpoint e !cur in
      out.(i + 1) <- nxt;
      cur := nxt)
    p;
  out

(* ---------- the Dijkstra workspace ---------- *)

(* Everything one Dijkstra run touches, allocated once per graph (and
   per domain) instead of once per run: at a thousand nodes every
   [Array.make n] goes straight to the major heap.

   - [dist]/[via] are valid for node [x] only while [seen.(x) = run]:
     bumping [run] resets them all in O(1).
   - An edge or node is blocked while its mark equals [block]; bumping
     [block] unblocks everything.
   - The heap is a binary min-heap over parallel key/node arrays with
     the sift order of a heap of [(distance, node)] pairs compared on
     distance alone, so equal keys pop in a fixed, reproducible order.
   - [runs]/[pops] count the work of the current public call and are
     flushed to the trace counters once at its end. *)
type workspace = {
  graph : Graph.t;
  dist : float array;
  via : int array;  (** edge used to reach each node *)
  seen : int array;
  mutable run : int;
  edge_mark : int array;
  node_mark : int array;
  mutable block : int;
  wt : float array;  (** edge weights of the current call *)
  mutable hkey : float array;
  mutable hnode : int array;
  mutable hsize : int;
  mutable runs : int;
  mutable pops : int;
}

let make_workspace (g : Graph.t) =
  let n = g.Graph.n and m = Graph.nedges g in
  {
    graph = g;
    dist = Array.make n infinity;
    via = Array.make n (-1);
    seen = Array.make n 0;
    run = 0;
    edge_mark = Array.make m 0;
    node_mark = Array.make n 0;
    block = 0;
    wt = Array.make m 1.;
    hkey = Array.make 64 0.;
    hnode = Array.make 64 0;
    hsize = 0;
    runs = 0;
    pops = 0;
  }

(* One workspace per domain, kept for the graph it was last used on:
   tunnel selection asks for many pairs of one graph in a row. *)
let ws_key : workspace option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let workspace g =
  let slot = Domain.DLS.get ws_key in
  match !slot with
  | Some ws when ws.graph == g -> ws
  | _ ->
      let ws = make_workspace g in
      slot := Some ws;
      ws

let set_weights ws weight =
  for e = 0 to Array.length ws.wt - 1 do
    ws.wt.(e) <- weight e
  done

let flush_counters ws =
  Trace.add c_runs ws.runs;
  Trace.add c_pops ws.pops;
  ws.runs <- 0;
  ws.pops <- 0

let[@lint.alloc_ok "amortized-doubling heap growth"] grow_heap ws =
  let cap = 2 * Array.length ws.hkey in
  let keys = Array.make cap 0. and nodes = Array.make cap 0 in
  Array.blit ws.hkey 0 keys 0 ws.hsize;
  Array.blit ws.hnode 0 nodes 0 ws.hsize;
  ws.hkey <- keys;
  ws.hnode <- nodes

let[@inline][@lint.noalloc] heap_push ws d x =
  if ws.hsize = Array.length ws.hkey then grow_heap ws;
  let keys = ws.hkey and nodes = ws.hnode in
  let i = ref ws.hsize in
  ws.hsize <- ws.hsize + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if d < keys.(parent) then begin
      keys.(!i) <- keys.(parent);
      nodes.(!i) <- nodes.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- d;
  nodes.(!i) <- x

(* Remove the minimum (read it from slot 0 first). *)
let[@lint.noalloc] heap_pop ws =
  let keys = ws.hkey and nodes = ws.hnode in
  ws.hsize <- ws.hsize - 1;
  let size = ws.hsize in
  if size > 0 then begin
    let d = keys.(size) and x = nodes.(size) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < size && keys.(l) < d then smallest := l;
      if r < size && keys.(r) < (if !smallest = !i then d else keys.(!smallest))
      then smallest := r;
      if !smallest <> !i then begin
        keys.(!i) <- keys.(!smallest);
        nodes.(!i) <- nodes.(!smallest);
        i := !smallest
      end
      else continue := false
    done;
    keys.(!i) <- d;
    nodes.(!i) <- x
  end

(* Dijkstra from [src] until [dst] is popped, over edges and nodes not
   blocked at the current [block] mark ([src] and [dst] themselves are
   never checked against the node marks).  Returns whether [dst] was
   reached; the path is then read back through [via]. *)
let[@lint.noalloc] dijkstra ws ~src ~dst =
  let g = ws.graph in
  let adj_start = g.Graph.adj_start
  and adj_edge = g.Graph.adj_edge
  and adj_node = g.Graph.adj_node in
  let dist = ws.dist and via = ws.via and seen = ws.seen in
  ws.run <- ws.run + 1;
  let run = ws.run and block = ws.block in
  seen.(src) <- run;
  dist.(src) <- 0.;
  ws.hsize <- 0;
  heap_push ws 0. src;
  let pops = ref 0 in
  let finished = ref false in
  while not !finished do
    if ws.hsize = 0 then finished := true
    else begin
      let d = ws.hkey.(0) and x = ws.hnode.(0) in
      heap_pop ws;
      incr pops;
      if x = dst then finished := true
      else if d <= dist.(x) then
        for s = adj_start.(x) to adj_start.(x + 1) - 1 do
          let eid = adj_edge.(s) and y = adj_node.(s) in
          if
            ws.edge_mark.(eid) <> block
            && (y = dst || y = src || ws.node_mark.(y) <> block)
          then begin
            let w = ws.wt.(eid) in
            if w < 0. then invalid_arg "Paths.shortest: negative weight";
            let nd = d +. w in
            let dy = if seen.(y) = run then dist.(y) else infinity in
            if nd < dy -. 1e-12 then begin
              seen.(y) <- run;
              dist.(y) <- nd;
              via.(y) <- eid;
              heap_push ws nd y
            end
          end
        done
    end
  done;
  ws.runs <- ws.runs + 1;
  ws.pops <- ws.pops + !pops;
  seen.(dst) = run

(* Number of edges on the [via] chain from [dst] back to [src]. *)
let hops ws ~src ~dst =
  let n = ref 0 and cur = ref dst in
  while !cur <> src do
    let eid = ws.via.(!cur) in
    incr n;
    cur := Graph.other_endpoint ws.graph.Graph.edges.(eid) !cur
  done;
  !n

(* The first [r] edges of [root], then the [via] chain from [src] to
   [dst]. *)
let read_path ws ~root ~r ~src ~dst =
  let p = Array.make (r + hops ws ~src ~dst) 0 in
  Array.blit root 0 p 0 r;
  let cur = ref dst and i = ref (Array.length p - 1) in
  while !cur <> src do
    let eid = ws.via.(!cur) in
    p.(!i) <- eid;
    decr i;
    cur := Graph.other_endpoint ws.graph.Graph.edges.(eid) !cur
  done;
  p

let shortest g ?(weight = fun _ -> 1.) ?(edge_ok = fun _ -> true)
    ?(node_ok = fun _ -> true) ~src ~dst () =
  let ws = workspace g in
  set_weights ws weight;
  ws.block <- ws.block + 1;
  for e = 0 to Graph.nedges g - 1 do
    if not (edge_ok e) then ws.edge_mark.(e) <- ws.block
  done;
  for v = 0 to g.Graph.n - 1 do
    if not (node_ok v) then ws.node_mark.(v) <- ws.block
  done;
  let found = dijkstra ws ~src ~dst in
  let p = if found then Some (read_path ws ~root:[||] ~r:0 ~src ~dst) else None in
  flush_counters ws;
  p

let edge_set p =
  let h = Hashtbl.create (Array.length p) in
  Array.iter (fun e -> Hashtbl.replace h e ()) p;
  h

let shares_edge p q =
  let h = edge_set p in
  Array.exists (fun e -> Hashtbl.mem h e) q

let overlap p q =
  let h = edge_set p in
  Array.fold_left (fun acc e -> if Hashtbl.mem h e then acc + 1 else acc) 0 q

(* ---------- Yen's algorithm with Lawler's restriction ---------- *)

(* A Yen candidate and the index at which it leaves the path it was
   spurred from: its own spurs start there (Lawler), since every spur
   below that index repeats one already taken from an earlier path. *)
type candidate = { cost : float; path : path; dev : int }

(* Cost, then edge count, then edge ids lexicographically: the order
   the polymorphic [compare] gives [(cost, path)] pairs, total on
   distinct paths, so the pop order never depends on insertion order. *)
let compare_candidate a b =
  let c = Float.compare a.cost b.cost in
  if c <> 0 then c
  else
    let la = Array.length a.path and lb = Array.length b.path in
    if la <> lb then Int.compare la lb
    else begin
      let i = ref 0 in
      while !i < la && a.path.(!i) = b.path.(!i) do
        incr i
      done;
      if !i = la then 0 else Int.compare a.path.(!i) b.path.(!i)
    end

(* Binary min-heap of candidates under [compare_candidate]. *)
module Cands = struct
  type t = { mutable data : candidate array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let less h i j = compare_candidate h.data.(i) h.data.(j) < 0

  let swap h i j =
    let t = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- t

  let push h c =
    if h.size = Array.length h.data then begin
      let d = Array.make (max 16 (2 * h.size)) c in
      Array.blit h.data 0 d 0 h.size;
      h.data <- d
    end;
    h.data.(h.size) <- c;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && less h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.size && less h l !m then m := l;
        if r < h.size && less h r !m then m := r;
        if !m <> !i then begin
          swap h !i !m;
          i := !m
        end
        else continue := false
      done;
      Some top
    end
end

module Path_tbl = Hashtbl.Make (struct
  type t = path

  let equal (a : path) b = a = b
  let hash (p : path) = Array.fold_left (fun h e -> (h * 31) + e) 17 p land max_int
end)

let prefix_equal (a : path) (b : path) len =
  let i = ref 0 in
  while !i < len && a.(!i) = b.(!i) do
    incr i
  done;
  !i = len

let path_cost ws p = Array.fold_left (fun acc eid -> acc +. ws.wt.(eid)) 0. p

let yen ws ~k ~src ~dst =
  if not (dijkstra ws ~src ~dst) then []
  else begin
    let first = read_path ws ~root:[||] ~r:0 ~src ~dst in
    let known = Path_tbl.create 64 in
    Path_tbl.replace known first ();
    let cands = Cands.create () in
    (* found paths, newest first, with their count *)
    let found = ref [ first ] and nfound = ref 1 in
    let prev = ref first and prev_dev = ref 0 in
    let finished = ref false in
    while !nfound < k && not !finished do
      let p = !prev in
      let p_nodes = nodes ws.graph ~src p in
      for i = !prev_dev to Array.length p - 1 do
        let spur = p_nodes.(i) in
        ws.block <- ws.block + 1;
        (* block edges that would recreate a found path with this root *)
        List.iter
          (fun q ->
            if Array.length q > i && prefix_equal q p i then
              ws.edge_mark.(q.(i)) <- ws.block)
          !found;
        (* block the root's nodes (loopless) *)
        for j = 0 to i - 1 do
          ws.node_mark.(p_nodes.(j)) <- ws.block
        done;
        if ws.node_mark.(spur) <> ws.block && dijkstra ws ~src:spur ~dst then begin
          let c = read_path ws ~root:p ~r:i ~src:spur ~dst in
          if not (Path_tbl.mem known c) then begin
            Path_tbl.replace known c ();
            Cands.push cands { cost = path_cost ws c; path = c; dev = i }
          end
        end
      done;
      match Cands.pop cands with
      | None -> finished := true
      | Some best ->
          found := best.path :: !found;
          incr nfound;
          prev := best.path;
          prev_dev := best.dev
    done;
    List.rev !found
  end

let k_shortest g ?(weight = fun _ -> 1.) ~k ~src ~dst () =
  if k <= 0 then []
  else begin
    let ws = workspace g in
    set_weights ws weight;
    (* no root nodes or edges blocked for the first path *)
    ws.block <- ws.block + 1;
    let paths = yen ws ~k ~src ~dst in
    flush_counters ws;
    paths
  end
