(* Differential tests of the sparse revised simplex core.

   The sparse LU path (Simplex) is checked against the frozen dense
   reference implementation (Simplex_dense) on random LPs and on
   min-MLU models over catalog topologies: statuses must be identical
   and objectives must agree to 1e-9 relative.  The eta-update path is
   checked against the refactorize-every-pivot path (eta limit 1),
   and the Sparse kernel itself is checked against a dense Gaussian
   elimination. *)

open Flexile_lp
module Sp = Sparse
module Prng = Flexile_util.Prng
module Trace = Flexile_util.Trace
module Graph = Flexile_net.Graph
module Tunnels = Flexile_net.Tunnels

(* ---- Svec: sparse accumulator semantics ---- *)

let test_svec () =
  let v = Sp.Svec.create 10 in
  Sp.Svec.add v 3 1.5;
  Sp.Svec.add v 7 2.;
  Sp.Svec.add v 3 0.5;
  Alcotest.(check int) "nnz counts patterns, not adds" 2 (Sp.Svec.nnz v);
  Alcotest.(check (float 0.)) "accumulated" 2. (Sp.Svec.get v 3);
  Alcotest.(check (float 0.)) "untouched reads zero" 0. (Sp.Svec.get v 5);
  Alcotest.(check bool) "mem on pattern" true (Sp.Svec.mem v 7);
  Alcotest.(check bool) "mem off pattern" false (Sp.Svec.mem v 5);
  let seen =
    List.init (Sp.Svec.nnz v) (fun p ->
        let i = (Sp.Svec.pattern v).(p) in
        (i, (Sp.Svec.values v).(i)))
  in
  Alcotest.(check (list (pair int (float 0.))))
    "insertion order" [ (3, 2.); (7, 2.) ] seen;
  Sp.Svec.clear v;
  Alcotest.(check int) "clear resets" 0 (Sp.Svec.nnz v);
  Alcotest.(check (float 0.)) "cleared entry" 0. (Sp.Svec.get v 3)

(* ---- Basis kernel vs dense Gaussian elimination ---- *)

let dense_solve a b =
  let m = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  for c = 0 to m - 1 do
    let p = ref c in
    for r = c + 1 to m - 1 do
      if Float.abs a.(r).(c) > Float.abs a.(!p).(c) then p := r
    done;
    let tmp = a.(c) in
    a.(c) <- a.(!p);
    a.(!p) <- tmp;
    let tb = b.(c) in
    b.(c) <- b.(!p);
    b.(!p) <- tb;
    let piv = a.(c).(c) in
    for r = 0 to m - 1 do
      if r <> c && Float.abs a.(r).(c) > 0. then begin
        let f = a.(r).(c) /. piv in
        for k = c to m - 1 do
          a.(r).(k) <- a.(r).(k) -. (f *. a.(c).(k))
        done;
        b.(r) <- b.(r) -. (f *. b.(c))
      end
    done
  done;
  Array.init m (fun i -> b.(i) /. a.(i).(i))

(* random sparse columns: a strong diagonal plus a few off-diagonal
   entries, so the matrix is invertible and the dense reference is
   numerically trustworthy *)
let random_cols prng m =
  Array.init m (fun j ->
      let l = ref [ (j, 1. +. Prng.uniform prng 0. 3.) ] in
      for _ = 1 to 3 do
        let i = Prng.int prng m in
        if i <> j then l := (i, Prng.uniform prng (-2.) 2.) :: !l
      done;
      !l)

(* [Basis.factor] over columns given as (row, value) lists. *)
let factor_cols basis cols =
  let col_start = Array.make (Array.length cols + 1) 0 in
  Array.iteri
    (fun pos col -> col_start.(pos + 1) <- col_start.(pos) + List.length col)
    cols;
  let entries = Array.of_list (List.concat (Array.to_list cols)) in
  Sp.Basis.factor basis ~col_start ~row_idx:(Array.map fst entries)
    ~values:(Array.map snd entries)

let cols_to_dense m cols =
  let d = Array.init m (fun _ -> Array.make m 0.) in
  Array.iteri
    (fun j l -> List.iter (fun (i, v) -> d.(i).(j) <- d.(i).(j) +. v) l)
    cols;
  d

let test_kernel_vs_dense () =
  let prng = Prng.of_string "sparse-kernel-vs-dense" in
  for trial = 1 to 40 do
    let m = 5 + Prng.int prng 50 in
    let cols = random_cols prng m in
    let dense = cols_to_dense m cols in
    let basis = Sp.Basis.create m in
    let patched =
      factor_cols basis cols
    in
    Alcotest.(check int)
      (Printf.sprintf "trial %d: invertible matrix needs no patch" trial)
      0 (List.length patched);
    let b = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let x_ref = dense_solve dense b in
    let x = Array.copy b in
    Sp.Basis.ftran basis x;
    for i = 0 to m - 1 do
      if Float.abs (x.(i) -. x_ref.(i)) > 1e-7 then
        Alcotest.failf "trial %d (m=%d): ftran row %d: %.12g vs %.12g" trial m
          i x.(i) x_ref.(i)
    done;
    let c = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let dense_t = Array.init m (fun i -> Array.init m (fun j -> dense.(j).(i))) in
    let y_ref = dense_solve dense_t c in
    let y = Array.copy c in
    Sp.Basis.btran basis y;
    for i = 0 to m - 1 do
      if Float.abs (y.(i) -. y_ref.(i)) > 1e-7 then
        Alcotest.failf "trial %d (m=%d): btran row %d: %.12g vs %.12g" trial m
          i y.(i) y_ref.(i)
    done
  done

(* singular input: [factor] must patch the dependent positions with
   unit columns of unpivoted rows, and the resulting factorization must
   solve exactly the patched matrix *)
let test_singular_factor_patches () =
  let prng = Prng.of_string "sparse-singular-patch" in
  for trial = 1 to 25 do
    let m = 6 + Prng.int prng 30 in
    let cols = random_cols prng m in
    (* make 1-3 columns exact duplicates of other columns: rank drops *)
    let ndup = 1 + Prng.int prng 3 in
    let dups = ref [] in
    for _ = 1 to ndup do
      let src = Prng.int prng m and dst = Prng.int prng m in
      if src <> dst && not (List.mem_assoc dst !dups) then begin
        cols.(dst) <- cols.(src);
        dups := (dst, src) :: !dups
      end
    done;
    let basis = Sp.Basis.create m in
    let patched =
      factor_cols basis cols
    in
    if !dups <> [] then
      Alcotest.(check bool)
        (Printf.sprintf "trial %d: rank-deficient input is patched" trial)
        true
        (List.length patched >= 1);
    (* apply the patch contract: the factored matrix has the column at
       each patched position replaced by the unit column of its row *)
    let cols' = Array.copy cols in
    List.iter (fun (pos, row) -> cols'.(pos) <- [ (row, 1.) ]) patched;
    let dense = cols_to_dense m cols' in
    let b = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let x_ref = dense_solve dense b in
    let x = Array.copy b in
    Sp.Basis.ftran basis x;
    for i = 0 to m - 1 do
      if Float.abs (x.(i) -. x_ref.(i)) > 1e-6 then
        Alcotest.failf "trial %d (m=%d): patched ftran row %d: %.12g vs %.12g"
          trial m i x.(i) x_ref.(i)
    done
  done

(* eta update equivalence: B' = B with one replaced column, applied via
   [update], must solve like a fresh factorization of B' *)
let test_eta_vs_fresh_factor () =
  let prng = Prng.of_string "sparse-eta-vs-fresh" in
  for trial = 1 to 25 do
    let m = 5 + Prng.int prng 40 in
    let cols = random_cols prng m in
    let basis = Sp.Basis.create m in
    let patched =
      factor_cols basis cols
    in
    Alcotest.(check int) "no patch" 0 (List.length patched);
    (* replace column r by a fresh random column with w_r bounded away
       from zero, through the eta file *)
    let r = Prng.int prng m in
    let newcol = (r, 2. +. Prng.uniform prng 0. 2.) :: List.tl cols.(r) in
    let w = Array.make m 0. in
    List.iter (fun (i, v) -> w.(i) <- w.(i) +. v) newcol;
    Sp.Basis.ftran basis w;
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: eta pivot accepted" trial)
      true
      (Sp.Basis.update basis ~r ~w);
    let cols' = Array.copy cols in
    cols'.(r) <- newcol;
    let fresh = Sp.Basis.create m in
    let patched' =
      factor_cols fresh cols'
    in
    Alcotest.(check int) "no patch after replacement" 0 (List.length patched');
    let b = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let x_eta = Array.copy b and x_fresh = Array.copy b in
    Sp.Basis.ftran basis x_eta;
    Sp.Basis.ftran fresh x_fresh;
    for i = 0 to m - 1 do
      if Float.abs (x_eta.(i) -. x_fresh.(i)) > 1e-7 then
        Alcotest.failf "trial %d (m=%d): eta ftran row %d: %.12g vs %.12g"
          trial m i x_eta.(i) x_fresh.(i)
    done;
    let c = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let y_eta = Array.copy c and y_fresh = Array.copy c in
    Sp.Basis.btran basis y_eta;
    Sp.Basis.btran fresh y_fresh;
    for i = 0 to m - 1 do
      if Float.abs (y_eta.(i) -. y_fresh.(i)) > 1e-7 then
        Alcotest.failf "trial %d (m=%d): eta btran row %d: %.12g vs %.12g"
          trial m i y_eta.(i) y_fresh.(i)
    done
  done

(* ---- sparse vs dense simplex: random LPs ---- *)

let dense_status = function
  | Simplex_dense.Optimal -> "optimal"
  | Simplex_dense.Infeasible -> "infeasible"
  | Simplex_dense.Unbounded -> "unbounded"
  | Simplex_dense.Iteration_limit -> "iter-limit"

let sparse_status = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iter-limit"

let check_differential name m =
  let sp = Simplex.solve m in
  let dn = Simplex_dense.solve m in
  Alcotest.(check string)
    (name ^ ": status")
    (dense_status dn.Simplex_dense.status)
    (sparse_status sp.Simplex.status);
  if sp.Simplex.status = Simplex.Optimal then begin
    let tol = 1e-9 *. (1. +. Float.abs dn.Simplex_dense.obj) in
    if Float.abs (sp.Simplex.obj -. dn.Simplex_dense.obj) > tol then
      Alcotest.failf "%s: objective %.12g (sparse) vs %.12g (dense)" name
        sp.Simplex.obj dn.Simplex_dense.obj;
    if Lp_model.max_violation m sp.Simplex.x > 1e-7 then
      Alcotest.failf "%s: sparse solution infeasible (viol %.3g)" name
        (Lp_model.max_violation m sp.Simplex.x)
  end

let random_lp prng ~nv ~nr =
  let m = Lp_model.create () in
  let vars =
    Array.init nv (fun _ ->
        Lp_model.add_var m ~ub:4. ~obj:(Prng.uniform prng (-2.) 2.) ())
  in
  for _ = 1 to nr do
    (* sparse rows: ~40% fill *)
    let coeffs =
      List.filter_map
        (fun v ->
          if Prng.bool prng 0.4 then
            Some (v, float_of_int (Prng.int prng 7 - 3))
          else None)
        (Array.to_list vars)
    in
    if coeffs <> [] then begin
      let sense =
        match Prng.int prng 3 with
        | 0 -> Lp_model.Ge
        | 1 -> Lp_model.Eq
        | _ -> Lp_model.Le
      in
      ignore (Lp_model.add_row m sense (Prng.uniform prng (-2.) 6.) coeffs)
    end
  done;
  m

let test_random_differential () =
  for trial = 1 to 120 do
    let prng = Prng.of_string (Printf.sprintf "sparse-diff-%d" trial) in
    let nv = 2 + Prng.int prng 14 and nr = 1 + Prng.int prng 12 in
    let m = random_lp prng ~nv ~nr in
    check_differential (Printf.sprintf "random %d (%dx%d)" trial nv nr) m
  done

(* ---- sparse vs dense simplex: min-MLU over catalog topologies ---- *)

let mlu_model name npairs =
  let g = Flexile_net.Catalog.by_name name in
  let seed = Prng.of_string ("sparse-diff-" ^ name) in
  let pairs = Graph.pairs g in
  Prng.shuffle seed pairs;
  let pairs = Array.sub pairs 0 (min npairs (Array.length pairs)) in
  Array.sort compare pairs;
  let demands = Flexile_traffic.Gravity.matrix ~seed ~graph:g ~pairs in
  let model = Lp_model.create ~name:("mlu-" ^ name) () in
  let mu = Lp_model.add_var model ~obj:1. () in
  let per_edge = Array.make (Graph.nedges g) [] in
  Array.iteri
    (fun i pair ->
      if demands.(i) > 0. then begin
        let ts = Array.of_list (Tunnels.select_single_class g ~pair ~count:3) in
        let vars =
          Array.map
            (fun (t : Tunnels.t) ->
              let v = Lp_model.add_var model () in
              Array.iter
                (fun e -> per_edge.(e) <- (v, 1.) :: per_edge.(e))
                t.Tunnels.path;
              v)
            ts
        in
        ignore
          (Lp_model.add_row model Lp_model.Eq demands.(i)
             (Array.to_list (Array.map (fun v -> (v, 1.)) vars)))
      end)
    pairs;
  Array.iteri
    (fun e coeffs ->
      if coeffs <> [] then
        let cap = g.Graph.edges.(e).Graph.capacity in
        ignore (Lp_model.add_row model Lp_model.Le 0. ((mu, -.cap) :: coeffs)))
    per_edge;
  model

let test_topology_differential () =
  List.iter
    (fun (name, npairs) ->
      check_differential ("mlu " ^ name) (mlu_model name npairs))
    [ ("Sprint", 30); ("IBM", 40); ("GEANT", 40); ("Tinet", 60) ]

(* ---- eta updates vs refactorize-every-pivot, through the solver ----

   The same warm RHS walk, once with the default eta limit and once
   with an eta limit of 1 (every pivot triggers a fresh LU).  Both
   runs must report identical statuses and objectives to 1e-9: the
   product-form updates may not change results, only speed.  The
   refactorization counter proves the limit-1 walk really took the
   other path. *)

let walk_objs ?eta_limit m nsteps =
  let st = Simplex.make ?eta_limit m in
  let prng = Prng.of_string "sparse-eta-walk" in
  let first = Simplex.solve_warm st in
  let objs = ref [ (sparse_status first.Simplex.status, first.Simplex.obj) ] in
  for _ = 1 to nsteps do
    let rhs =
      Array.init (Lp_model.nrows m) (fun _ -> Prng.uniform prng (-2.) 8.)
    in
    let sol = Simplex.resolve_rhs st rhs in
    objs := (sparse_status sol.Simplex.status, sol.Simplex.obj) :: !objs
  done;
  List.rev !objs

let counting_refactorizations f =
  let before = Trace.value_by_name "simplex.refactorizations" in
  let r = f () in
  (r, Trace.value_by_name "simplex.refactorizations" - before)

let test_eta_vs_refactor_walk () =
  let model () =
    let prng = Prng.of_string "sparse-eta-model" in
    random_lp prng ~nv:12 ~nr:10
  in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) @@ fun () ->
  let with_eta, refactors_eta =
    counting_refactorizations (fun () -> walk_objs (model ()) 8)
  in
  let without_eta, refactors_one =
    counting_refactorizations (fun () -> walk_objs ~eta_limit:1 (model ()) 8)
  in
  Alcotest.(check bool)
    (Printf.sprintf "eta limit 1 refactorizes more (%d vs %d)" refactors_one
       refactors_eta)
    true
    (refactors_one > refactors_eta);
  List.iteri
    (fun i ((s1, o1), (s2, o2)) ->
      Alcotest.(check string) (Printf.sprintf "step %d status" i) s2 s1;
      if s1 = "optimal" && Float.abs (o1 -. o2) > 1e-9 *. (1. +. Float.abs o2)
      then
        Alcotest.failf "step %d: obj %.12g (eta) vs %.12g (refactor)" i o1 o2)
    (List.combine with_eta without_eta)

(* ---- allocation budget of a cold solve ----

   A solve allocates its workspaces once, O(n + m) words, and nothing
   per pivot (DESIGN.md section 11).  The dev profile compiles every
   module [-opaque], so one float-taking call across modules inside a
   per-element kernel (a [Float_cmp.nonzero] in [Basis.ftran], a
   callback over the pivot-row pattern) boxes on every pivot and blows
   this budget by an order of magnitude on an LP of this length. *)

let test_solve_alloc_budget () =
  let prng = Prng.of_string "sparse-alloc-budget" in
  let m = random_lp prng ~nv:300 ~nr:200 in
  (* first solve: builds the lazy CSC and any other one-time state *)
  ignore (Simplex.solve m);
  let w0 = Gc.minor_words () in
  let sol = Simplex.solve m in
  let words = Gc.minor_words () -. w0 in
  if sol.Simplex.iterations < 200 then
    Alcotest.failf "LP too short to measure the pivot loop: %d iterations"
      sol.Simplex.iterations;
  let n = Lp_model.nvars m and rows = Lp_model.nrows m in
  let budget = float_of_int ((64 * (n + (2 * rows))) + 8192) in
  if words > budget then
    Alcotest.failf
      "cold solve allocated %.0f minor words over %d iterations; the \
       budget is %.0f, independent of the iteration count"
      words sol.Simplex.iterations budget

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flexile_sparse"
    [
      ("svec", [ quick "accumulator semantics" test_svec ]);
      ( "kernel",
        [
          quick "factor/ftran/btran vs dense elimination" test_kernel_vs_dense;
          quick "singular factor patches dependent columns"
            test_singular_factor_patches;
          quick "eta update vs fresh factorization" test_eta_vs_fresh_factor;
        ] );
      ( "differential",
        [
          quick "random LPs: sparse = dense" test_random_differential;
          quick "catalog min-MLU: sparse = dense" test_topology_differential;
        ] );
      ( "eta-file",
        [ quick "warm walk: eta = refactor-every-pivot" test_eta_vs_refactor_walk ]
      );
      ( "allocation",
        [ quick "cold solve stays within its setup budget" test_solve_alloc_budget ]
      );
    ]
