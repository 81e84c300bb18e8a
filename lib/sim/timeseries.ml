(* Sampled resource time-series, driven by the simulation clock.

   Subsystems register gauge thunks (queue depths, lock counts, flags);
   a periodic sampler polls every registered thunk at a fixed virtual
   interval and records (sim_time, value) points. Everything is keyed to
   the engine's clock — no wall time — so a run's timelines are exactly
   reproducible for a given seed. *)

type kind = Queue | Level | Flag | Waiters | Window

let kind_to_string = function
  | Queue -> "queue"
  | Level -> "level"
  | Flag -> "flag"
  | Waiters -> "waiters"
  | Window -> "window"

type point = { at : Simtime.t; value : float }

type series = {
  name : string;
  replica : int;
  kind : kind;
  unit_ : string;
  mutable points_rev : point list;
  mutable n_points : int;
  mutable thunks : (unit -> float) list;
}

type t = {
  engine : Engine.t;
  interval : Simtime.t;
  table : (string * int, series) Hashtbl.t;
  mutable order : (string * int) list; (* registration order, reversed *)
  mutable total_points : int; (* points recorded across all series *)
}

(* Points kept per series: a guard against runaway memory on long
   runs. *)
let max_points = 50_000

let interval t = t.interval

(* A registration after sampling has begun would leave the new series
   with fewer points than its peers; that is fine — points carry their
   own timestamps — but the cap guards runaway memory on long runs. *)
let register t ~name ~replica ~kind ?(unit_ = "count") thunk =
  let key = (name, replica) in
  match Hashtbl.find_opt t.table key with
  | Some s ->
      (* Same logical gauge registered twice (e.g. one per group member
         on the same node): sample the sum. *)
      s.thunks <- thunk :: s.thunks
  | None ->
      let s =
        { name; replica; kind; unit_; points_rev = []; n_points = 0; thunks = [ thunk ] }
      in
      Hashtbl.replace t.table key s;
      t.order <- key :: t.order

let sample_once t =
  let at = Engine.now t.engine in
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.table key with
      | None -> ()
      | Some s ->
          if s.n_points < max_points then begin
            let v = List.fold_left (fun acc f -> acc +. f ()) 0. s.thunks in
            s.points_rev <- { at; value = v } :: s.points_rev;
            s.n_points <- s.n_points + 1;
            t.total_points <- t.total_points + 1
          end)
    (List.rev t.order)

let create ?(interval = Simtime.of_ms 5) engine =
  let t =
    {
      engine;
      interval;
      table = Hashtbl.create 32;
      order = [];
      total_points = 0;
    }
  in
  (* Take a sample at t=0 too, so series start at the origin; periodic
     timers first fire one interval in. *)
  ignore
    (Engine.schedule engine ~label:"sim:sample" ~after:Simtime.zero (fun () ->
         sample_once t));
  ignore
    (Engine.periodic engine ~label:"sim:sample" ~every:interval (fun () ->
         sample_once t));
  t

let points s = List.rev s.points_rev
let total_points t = t.total_points

let series t =
  t.order |> List.rev
  |> List.filter_map (fun key -> Hashtbl.find_opt t.table key)
  |> List.sort (fun a b ->
         match String.compare a.name b.name with
         | 0 -> compare a.replica b.replica
         | c -> c)

let find t ~name ~replica = Hashtbl.find_opt t.table (name, replica)

(* JSON ------------------------------------------------------------- *)

(* Points render as [sim_us, value] pairs; integer-valued floats print
   exactly, so output is byte-stable across runs with the same seed. *)
let series_to_json (s : series) =
  let point p = Json.(Arr [ Int (Simtime.to_us p.at); Num p.value ]) in
  Json.(
    to_string
      (Obj
         [ ("type", Str "series"); ("metric", Str s.name); ("replica", Int s.replica);
           ("kind", Str (kind_to_string s.kind)); ("unit", Str s.unit_);
           ("points", Arr (List.map point (points s))) ]))

let max_value s =
  List.fold_left (fun acc p -> Stdlib.max acc p.value) 0. s.points_rev
