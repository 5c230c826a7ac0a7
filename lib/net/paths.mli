(** Shortest paths and Yen's k-shortest loopless paths.

    A path is the edge-id sequence from source to destination; node
    sequences are derivable via {!nodes}.  Edge weights default to 1.0
    (hop count), the latency proxy used for tunnel selection.

    Every Dijkstra run reuses one workspace per graph and domain (see
    DESIGN.md section 17) and allocates nothing but the path it
    returns.  Each call adds its work to the trace counters
    [paths.dijkstra_runs] and [paths.heap_pops]. *)

type path = int array
(** Edge ids in order from source to destination. *)

val nodes : Graph.t -> src:int -> path -> int array
(** Node sequence visited by a path starting at [src]
    (length = path length + 1). *)

val shortest :
  Graph.t ->
  ?weight:(int -> float) ->
  ?edge_ok:(int -> bool) ->
  ?node_ok:(int -> bool) ->
  src:int ->
  dst:int ->
  unit ->
  path option
(** Dijkstra.  [edge_ok]/[node_ok] mask out failed or forbidden
    elements ([node_ok] is not consulted for [src] and [dst]). *)

val k_shortest : Graph.t -> ?weight:(int -> float) -> k:int -> src:int -> dst:int -> unit -> path list
(** Yen's algorithm with Lawler's deviation restriction: up to [k]
    loopless paths by nondecreasing weight ([[]] when [k <= 0]).  Ties
    resolve deterministically, and the first [n] paths do not depend on
    [k >= n]. *)

val edge_set : path -> (int, unit) Hashtbl.t
val shares_edge : path -> path -> bool
val overlap : path -> path -> int
(** Number of shared edge ids. *)
