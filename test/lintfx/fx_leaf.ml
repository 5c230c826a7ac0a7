(* Leaf layer of the seeded i1 violations: raw primitives, two hops
   below the entry points in Fx_entry. *)

(* i1 positive seed: global RNG *)
let noise n = Random.int n

(* negative: deterministic arithmetic, reachable from an entry point *)
let pure x = (x * 7) + 3

(* i1 seed that must NOT be reported: nothing reachable from the
   analysis roots ever calls this *)
let clock () = Unix.gettimeofday ()

(* float-taking helper for the cross-unit boxing fixtures in Fx_kernel *)
let nonzero x = not (Float.equal x 0.)
