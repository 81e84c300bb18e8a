(** A group view: the composition of the group as perceived at some time
    (paper §3.1). Views are installed in sequence v0, v1, ... *)

type t = { id : int; members : int list }

let initial members = { id = 0; members = List.sort_uniq Int.compare members }

let next view ~members =
  { id = view.id + 1; members = List.sort_uniq Int.compare members }

let is_member view node = List.mem node view.members
