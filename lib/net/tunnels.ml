type t = { pair : int * int; path : Paths.path; nodes : int array }

let alive t ~edge_alive = Array.for_all edge_alive t.path

let make g ~pair path =
  { pair; path; nodes = Paths.nodes g ~src:(fst pair) path }

let pool g ~pair ~k =
  let src, dst = pair in
  Paths.k_shortest g ~k ~src ~dst ()

(* Greedy selection scored by overlap with already-selected tunnels,
   breaking ties by length: at each step pick the candidate minimizing
   (total shared edges with selection, length). *)
let greedy_disjoint candidates count =
  let rec go selected remaining n =
    if n = 0 || remaining = [] then List.rev selected
    else begin
      let score p =
        let shared =
          List.fold_left (fun acc q -> acc + Paths.overlap p q) 0 selected
        in
        (shared, Array.length p)
      in
      let best =
        List.fold_left
          (fun acc p ->
            match acc with
            | None -> Some (p, score p)
            | Some (_, s) when score p < s -> Some (p, score p)
            | Some _ -> acc)
          None remaining
      in
      match best with
      | None -> List.rev selected
      | Some (p, _) ->
          let remaining = List.filter (fun q -> q != p) remaining in
          go (p :: selected) remaining (n - 1)
    end
  in
  go [] candidates count

let select_single_class g ~pair ~count =
  let cands = pool g ~pair ~k:(max (3 * count) 12) in
  List.map (make g ~pair) (greedy_disjoint cands count)

(* Pool sizes: each class draws its candidates from the k shortest
   paths of the pair. *)
let high_pool_k count = max (3 * count) 12
let low_pool_k ~nhigh ~extra = max (4 * (nhigh + extra)) 20

let rec prefix n = function
  | x :: tl when n > 0 -> x :: prefix (n - 1) tl
  | _ -> []

(* An edge common to all chosen paths is a single point of failure;
   choose shortest paths first but replace the last pick if a
   SPOF-free combination exists among the candidates. *)
let high_of_pool g ~pair ~count cands =
  match cands with
  | [] -> []
  | first :: _ ->
      let has_spof chosen =
        match chosen with
        | [] -> false
        | p :: rest ->
            let common =
              Array.to_list p
              |> List.filter (fun e ->
                     List.for_all
                       (fun q -> Array.exists (fun e' -> e' = e) q)
                       rest)
            in
            common <> []
      in
      (* shortest-first prefix *)
      let base = prefix count cands in
      let chosen =
        if not (has_spof base) then base
        else begin
          (* try swapping later candidates for the last slots *)
          let rec search acc rest n =
            if n = 0 then Some (List.rev acc)
            else
              let rec try_each = function
                | [] -> None
                | c :: tl -> (
                    match search (c :: acc) tl (n - 1) with
                    | Some sol when not (has_spof sol) -> Some sol
                    | _ -> try_each tl)
              in
              try_each rest
          in
          match search [ first ] (List.tl cands) (count - 1) with
          | Some sol -> sol
          | None -> base
        end
      in
      List.map (make g ~pair) chosen

let low_of_pool g ~pair ~high ~extra cands =
  let high_paths = List.map (fun t -> t.path) high in
  let fresh =
    List.filter (fun p -> not (List.exists (fun q -> q = p) high_paths)) cands
  in
  (* score extra tunnels by disjointness against everything chosen *)
  let rec go selected remaining n =
    if n = 0 || remaining = [] then List.rev selected
    else begin
      let score p =
        let shared =
          List.fold_left (fun acc q -> acc + Paths.overlap p q) 0 selected
          + List.fold_left (fun acc q -> acc + Paths.overlap p q) 0 high_paths
        in
        (shared, Array.length p)
      in
      let best =
        List.fold_left
          (fun acc p ->
            match acc with
            | None -> Some (p, score p)
            | Some (_, s) when score p < s -> Some (p, score p)
            | Some _ -> acc)
          None remaining
      in
      match best with
      | None -> List.rev selected
      | Some (p, _) ->
          go (p :: selected) (List.filter (fun q -> q != p) remaining) (n - 1)
    end
  in
  let extras = go [] fresh extra in
  high @ List.map (make g ~pair) extras

let select_high_priority g ~pair ~count =
  high_of_pool g ~pair ~count (pool g ~pair ~k:(high_pool_k count))

let select_low_priority g ~pair ~high ~extra =
  let k = low_pool_k ~nhigh:(List.length high) ~extra in
  low_of_pool g ~pair ~high ~extra (pool g ~pair ~k)

(* Yen's output is prefix-consistent in k (its first n paths do not
   depend on how many more are asked for), so one pool sized for the
   larger class serves both: each class takes the prefix it would have
   computed on its own. *)
let select_two_class g ~pair ~count ~extra =
  let k_high = high_pool_k count in
  let k = max k_high (low_pool_k ~nhigh:count ~extra) in
  let cands = pool g ~pair ~k in
  let high = high_of_pool g ~pair ~count (prefix k_high cands) in
  let k_low = low_pool_k ~nhigh:(List.length high) ~extra in
  let low_cands = if k_low <= k then prefix k_low cands else pool g ~pair ~k:k_low in
  (high, low_of_pool g ~pair ~high ~extra low_cands)
