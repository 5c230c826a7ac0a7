(** Tunnel selection, following the paper's §6 methodology:

    - single traffic class: three physical tunnels per pair, as disjoint
      as possible, preferring shorter ones;
    - high-priority (latency-sensitive) class: three shortest paths such
      that no single link failure disconnects all of them (when the
      graph allows it);
    - low-priority class: the high-priority tunnels plus three more
      drawn from a larger pool of shortest paths, prioritizing
      disjointness. *)

type t = {
  pair : int * int;
  path : Paths.path;
  nodes : int array;  (** node sequence, [fst pair] first *)
}

val alive : t -> edge_alive:(int -> bool) -> bool

val make : Graph.t -> pair:int * int -> Paths.path -> t

val select_single_class : Graph.t -> pair:int * int -> count:int -> t list
(** Disjointness-balanced selection from a k-shortest pool. *)

val select_high_priority : Graph.t -> pair:int * int -> count:int -> t list
(** Shortest-first, avoiding a common single point of failure. *)

val select_low_priority :
  Graph.t -> pair:int * int -> high:t list -> extra:int -> t list
(** High-priority tunnels plus [extra] disjointness-prioritized ones. *)

val select_two_class :
  Graph.t -> pair:int * int -> count:int -> extra:int -> t list * t list
(** [(high, low)]: exactly [select_high_priority ~count] and
    [select_low_priority ~high ~extra], drawn from one k-shortest pool
    (one run of Yen's algorithm) instead of two. *)
