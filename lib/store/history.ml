type record = {
  tid : int;
  reads : (Operation.key * int) list;
  writes : (Operation.key * int) list;
  replica : int;
  committed_at : Sim.Simtime.t;
}

type t = {
  mutable rev_records : record list;
  mutable size : int;
  mutable subscribers : (record -> unit) list;
  parent_of : (int, int) Hashtbl.t;  (* sub tid -> cross-shard parent tid *)
  subs_of : (int, int list) Hashtbl.t;  (* parent tid -> sub tids, rev order *)
}

let create () =
  {
    rev_records = [];
    size = 0;
    subscribers = [];
    parent_of = Hashtbl.create 16;
    subs_of = Hashtbl.create 16;
  }

let add t r =
  t.rev_records <- r :: t.rev_records;
  t.size <- t.size + 1;
  List.iter (fun f -> f r) t.subscribers

let add_result t ~tid ~replica ~at (result : Apply.result) =
  add t
    {
      tid;
      reads = List.map (fun (k, _, version) -> (k, version)) result.reads;
      writes = List.map (fun (k, _, version) -> (k, version)) result.writes;
      replica;
      committed_at = at;
    }

let on_add t f = t.subscribers <- f :: t.subscribers

let link_parent t ~parent ~sub =
  Hashtbl.replace t.parent_of sub parent;
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.subs_of parent) in
  Hashtbl.replace t.subs_of parent (sub :: prev)

let parent_of t ~sub = Hashtbl.find_opt t.parent_of sub

let subs_of t ~parent =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.subs_of parent))

let records t = List.rev t.rev_records
let length t = t.size
