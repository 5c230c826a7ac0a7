type edge = { id : int; u : int; v : int; capacity : float; group : int }

type t = {
  name : string;
  n : int;
  edges : edge array;
  adj_start : int array;
  adj_edge : int array;
  adj_node : int array;
}

(* CSR adjacency: node x's incidences are slots
   [adj_start.(x) .. adj_start.(x + 1) - 1], in increasing edge id. *)
let of_edges ~name ~n edges =
  let adj_start = Array.make (n + 1) 0 in
  Array.iter
    (fun e ->
      adj_start.(e.u + 1) <- adj_start.(e.u + 1) + 1;
      adj_start.(e.v + 1) <- adj_start.(e.v + 1) + 1)
    edges;
  for x = 0 to n - 1 do
    adj_start.(x + 1) <- adj_start.(x + 1) + adj_start.(x)
  done;
  let fill = Array.sub adj_start 0 n in
  let adj_edge = Array.make adj_start.(n) 0 in
  let adj_node = Array.make adj_start.(n) 0 in
  let put x eid y =
    adj_edge.(fill.(x)) <- eid;
    adj_node.(fill.(x)) <- y;
    fill.(x) <- fill.(x) + 1
  in
  Array.iter
    (fun e ->
      put e.u e.id e.v;
      put e.v e.id e.u)
    edges;
  { name; n; edges; adj_start; adj_edge; adj_node }

let create ~name ~n links =
  let edges =
    Array.mapi
      (fun id (u, v, capacity) ->
        if u = v then invalid_arg "Graph.create: self-loop";
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Graph.create: endpoint out of range";
        if capacity <= 0. then invalid_arg "Graph.create: capacity <= 0";
        { id; u; v; capacity; group = id })
      links
  in
  of_edges ~name ~n edges

let nedges g = Array.length g.edges

let other_endpoint e x =
  if x = e.u then e.v
  else if x = e.v then e.u
  else invalid_arg "Graph.other_endpoint"

let bfs g alive start =
  let seen = Array.make g.n false in
  seen.(start) <- true;
  let q = Queue.create () in
  Queue.add start q;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    for s = g.adj_start.(x) to g.adj_start.(x + 1) - 1 do
      let y = g.adj_node.(s) in
      if alive g.adj_edge.(s) && not seen.(y) then begin
        seen.(y) <- true;
        Queue.add y q
      end
    done
  done;
  seen

let connected g ?(alive = fun _ -> true) u v =
  if u = v then true else (bfs g alive u).(v)

let is_connected_graph g ?(alive = fun _ -> true) () =
  if g.n = 0 then true
  else begin
    let seen = bfs g alive 0 in
    Array.for_all (fun b -> b) seen
  end

let degree g x = g.adj_start.(x + 1) - g.adj_start.(x)

let split_links g =
  let links = Array.length g.edges in
  let edges =
    Array.init (2 * links) (fun id ->
        let parent = g.edges.(id / 2) in
        {
          id;
          u = parent.u;
          v = parent.v;
          capacity = parent.capacity /. 2.;
          group = parent.id;
        })
  in
  of_edges ~name:(g.name ^ "-rich") ~n:g.n edges

let pairs g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for v = g.n - 1 downto u + 1 do
      acc := (u, v) :: !acc
    done
  done;
  Array.of_list !acc

let pp fmt g =
  Format.fprintf fmt "%s: %d nodes, %d edges" g.name g.n (Array.length g.edges)
