module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex
module Tbl = Flexile_util.Tbl

let src = Logs.Src.create "flexile.lower_bound" ~doc:"PercLoss lower bound"

module Log = (val Logs.src_log src : Logs.LOG)

(* Maximum volume a single flow can push over a subset of its tunnels
   (each a fixed path) subject to edge capacities: a tiny LP per
   (flow, scenario). *)
let max_alone inst (f : Instance.flow) sid =
  let alive = inst.Instance.alive_tunnels.(sid).(f.Instance.cls).(f.Instance.pair) in
  if Array.length alive = 0 then 0.
  else begin
    let model = Lp_model.create ~name:"isolated" () in
    let vars = Array.map (fun _ -> Lp_model.add_var model ~obj:(-1.) ()) alive in
    let per_edge = Hashtbl.create 16 in
    Array.iteri
      (fun idx ti ->
        let t = inst.Instance.tunnels.(f.Instance.cls).(f.Instance.pair).(ti) in
        Array.iter
          (fun e ->
            let prev = try Hashtbl.find per_edge e with Not_found -> [] in
            Hashtbl.replace per_edge e ((vars.(idx), 1.) :: prev))
          t.Flexile_net.Tunnels.path)
      alive;
    (* Sorted edge order: the capacity rows land in the LP in a fixed
       sequence, so degenerate pivots cannot depend on bucket layout. *)
    Tbl.sorted_iter
      (fun e coeffs ->
        ignore
          (Lp_model.add_row model Lp_model.Le
             (Instance.edge_capacity inst ~sid e)
             coeffs))
      per_edge;
    (* cap at the demand so the LP stays bounded *)
    let demand = Instance.demand_in inst f sid in
    ignore
      (Lp_model.add_row model Lp_model.Le demand
         (Array.to_list (Array.map (fun v -> (v, 1.)) vars)));
    let sol = Simplex.solve model in
    match sol.Simplex.status with
    | Simplex.Optimal -> -.sol.Simplex.obj
    | _ ->
        (* an unsolved LP proves nothing: the demand cap (isolated loss
           0) is the only bound that stays sound *)
        Log.warn (fun m ->
            m "%s LP (flow %d, scenario %d) not solved to optimality; \
               assuming the demand cap %g"
              (Lp_model.name model) f.Instance.fid sid demand);
        demand
  end

let isolated_losses inst =
  let losses = Instance.alloc_losses inst in
  Array.iter
    (fun (f : Instance.flow) ->
      for sid = 0 to Instance.nscenarios inst - 1 do
        let demand = Instance.demand_in inst f sid in
        if demand <= 0. then losses.(f.Instance.fid).(sid) <- 0.
        else begin
          let m = max_alone inst f sid in
          losses.(f.Instance.fid).(sid) <-
            Float.max 0. (Float.min 1. (1. -. (m /. demand)))
        end
      done)
    inst.Instance.flows;
  losses

let perc_loss_lower_bound inst ~cls =
  let iso = isolated_losses inst in
  Metrics.perc_loss inst iso ~cls ()
