type mode = S | X

type grant = [ `Granted | `Waiting | `Deadlock ]

type waiter = { w_txn : int; w_mode : mode; w_cb : unit -> unit }

type entry = {
  holders : (int, mode) Hashtbl.t; (* txn -> strongest mode held *)
  mutable queue : waiter list; (* FIFO *)
}

type t = { entries : (Operation.key, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let entry t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = { holders = Hashtbl.create 4; queue = [] } in
      Hashtbl.replace t.entries key e;
      e

let compatible a b = a = S && b = S

let held_mode e txn = Hashtbl.find_opt e.holders txn

(* Can [txn] acquire [mode] given current holders (ignoring the queue)? *)
let grantable e ~txn ~mode =
  Hashtbl.fold
    (fun holder hmode ok ->
      ok && (holder = txn || compatible mode hmode))
    e.holders true

let do_grant e ~txn ~mode =
  let strongest =
    match held_mode e txn with
    | Some X -> X
    | Some S -> if mode = X then X else S
    | None -> mode
  in
  Hashtbl.replace e.holders txn strongest

(* ---- waits-for graph -------------------------------------------------- *)

(* [txn] (as a waiter with [mode]) waits for: conflicting holders, and
   conflicting earlier waiters (they will be granted first). *)
let blockers e ~txn ~mode =
  let holding =
    Hashtbl.fold
      (fun h hm acc ->
        if h <> txn && not (compatible mode hm) then h :: acc else acc)
      e.holders []
  in
  let queued =
    List.filter_map
      (fun w ->
        if w.w_txn <> txn && not (compatible mode w.w_mode) then Some w.w_txn
        else None)
      e.queue
  in
  holding @ queued

(* Edges of the full waits-for graph. *)
let waits_for t =
  Hashtbl.fold
    (fun _ e acc ->
      List.fold_left
        (fun acc w ->
          let bs = blockers e ~txn:w.w_txn ~mode:w.w_mode in
          List.fold_left (fun acc b -> (w.w_txn, b) :: acc) acc bs)
        acc e.queue)
    t.entries []

(* Would adding edges [txn -> b] for each blocker close a cycle back to
   [txn]? *)
let creates_cycle t ~txn new_blockers =
  let edges = waits_for t in
  let adj = Hashtbl.create 16 in
  let add (a, b) =
    let cur = Option.value ~default:[] (Hashtbl.find_opt adj a) in
    Hashtbl.replace adj a (b :: cur)
  in
  List.iter add edges;
  List.iter (fun b -> add (txn, b)) new_blockers;
  (* DFS from txn looking for a path back to txn. *)
  let visited = Hashtbl.create 16 in
  let rec reachable_from node =
    if Hashtbl.mem visited node then false
    else begin
      Hashtbl.replace visited node ();
      let succs = Option.value ~default:[] (Hashtbl.find_opt adj node) in
      List.exists (fun s -> s = txn || reachable_from s) succs
    end
  in
  let starts = Option.value ~default:[] (Hashtbl.find_opt adj txn) in
  List.exists (fun s -> s = txn || reachable_from s) starts

(* ---- granting --------------------------------------------------------- *)

(* After a release, confer queued requests in FIFO order while possible.
   An upgrade request (holder of S waiting for X) is considered first
   regardless of position, since it blocks everyone else anyway. *)
let rec confer e =
  match e.queue with
  | [] -> ()
  | w :: rest ->
      if grantable e ~txn:w.w_txn ~mode:w.w_mode then begin
        e.queue <- rest;
        do_grant e ~txn:w.w_txn ~mode:w.w_mode;
        w.w_cb ();
        confer e
      end

let acquire t ~txn ~key mode ~granted =
  let e = entry t key in
  match held_mode e txn with
  | Some X ->
      granted ();
      `Granted
  | Some S when mode = S ->
      granted ();
      `Granted
  | held -> (
      ignore held;
      let empty_queue_ahead =
        (* Fairness: even a compatible request waits behind earlier
           waiters, except lock upgrades which jump the queue. *)
        e.queue = [] || held_mode e txn <> None
      in
      if empty_queue_ahead && grantable e ~txn ~mode then begin
        do_grant e ~txn ~mode;
        granted ();
        `Granted
      end
      else
        let bs = blockers e ~txn ~mode in
        if creates_cycle t ~txn bs then `Deadlock
        else begin
          let w = { w_txn = txn; w_mode = mode; w_cb = granted } in
          (* Upgrades go to the front of the queue. *)
          if held_mode e txn <> None then e.queue <- w :: e.queue
          else e.queue <- e.queue @ [ w ];
          `Waiting
        end)

let release_all t ~txn =
  Hashtbl.iter
    (fun _ e ->
      Hashtbl.remove e.holders txn;
      e.queue <- List.filter (fun w -> w.w_txn <> txn) e.queue;
      confer e)
    t.entries

(* Sorted by txn so callers see a deterministic view regardless of hash
   bucket order. *)
let holders t key =
  match Hashtbl.find_opt t.entries key with
  | Some e ->
      Hashtbl.fold (fun txn m acc -> (txn, m) :: acc) e.holders []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  | None -> []

let waiting_count t =
  Hashtbl.fold (fun _ e acc -> acc + List.length e.queue) t.entries 0

let held_count t =
  Hashtbl.fold (fun _ e acc -> acc + Hashtbl.length e.holders) t.entries 0
