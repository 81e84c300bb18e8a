type t = {
  base : Kv.t;
  overlay : (Operation.key, int) Hashtbl.t;
  mutable rev_reads : (Operation.key * int * int) list;
  mutable rev_write_order : Operation.key list; (* first-write order *)
  mutable last_read_value : int option;
}

let create base =
  {
    base;
    overlay = Hashtbl.create 8;
    rev_reads = [];
    rev_write_order = [];
    last_read_value = None;
  }

let read t k =
  match Hashtbl.find_opt t.overlay k with
  | Some v ->
      t.last_read_value <- Some v;
      v
  | None ->
      let v, version = Kv.read t.base k in
      t.rev_reads <- (k, v, version) :: t.rev_reads;
      t.last_read_value <- Some v;
      v

let write t k v =
  if not (Hashtbl.mem t.overlay k) then
    t.rev_write_order <- k :: t.rev_write_order;
  Hashtbl.replace t.overlay k v

let exec_op ?(choose = fun _ -> 0) t op =
  match op with
  | Operation.Read k -> ignore (read t k)
  | Operation.Write (k, v) -> write t k v
  | Operation.Incr (k, delta) ->
      let v = read t k in
      write t k (v + delta)
  | Operation.Write_random k -> write t k (choose k)

let exec_ops ?choose t ops = List.iter (fun op -> exec_op ?choose t op) ops

let reads t = List.rev t.rev_reads

let writes t =
  List.rev_map (fun k -> (k, Hashtbl.find t.overlay k)) t.rev_write_order

let install t =
  List.map
    (fun (k, v) ->
      let version = Kv.write t.base k v in
      (k, v, version))
    (writes t)

let last_read t = t.last_read_value

let result t ~installed = { Apply.reads = reads t; writes = installed }
