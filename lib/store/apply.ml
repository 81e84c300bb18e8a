type result = {
  reads : (Operation.key * int * int) list;
  writes : (Operation.key * int * int) list;
}

let execute ?(choose = fun _ -> 0) kv ops =
  let reads = ref [] and writes = ref [] in
  let do_write k v =
    let version = Kv.write kv k v in
    writes := (k, v, version) :: !writes
  in
  List.iter
    (fun op ->
      match op with
      | Operation.Read k ->
          let v, version = Kv.read kv k in
          reads := (k, v, version) :: !reads
      | Operation.Write (k, v) -> do_write k v
      | Operation.Incr (k, delta) ->
          let v, version = Kv.read kv k in
          reads := (k, v, version) :: !reads;
          do_write k (v + delta)
      | Operation.Write_random k -> do_write k (choose k))
    ops;
  { reads = List.rev !reads; writes = List.rev !writes }

let apply_writes kv writes =
  List.iter
    (fun (k, value, version) -> Kv.install kv k ~value ~version)
    writes
