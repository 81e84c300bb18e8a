(* A record rather than a bare hashtable so observers (the consistency
   audit layer) can watch every installed write without the protocols
   knowing: [write]/[install]/[force] notify the watchers exactly when
   the copy actually changes. *)
type t = {
  table : (Operation.key, int * int) Hashtbl.t;
  mutable watchers : (Operation.key -> value:int -> version:int -> unit) list;
  mutable reset_watchers : (unit -> unit) list;
}

let create () =
  { table = Hashtbl.create 64; watchers = []; reset_watchers = [] }

let on_update t f = t.watchers <- f :: t.watchers
let on_reset t f = t.reset_watchers <- f :: t.reset_watchers

let notify t k ~value ~version =
  List.iter (fun f -> f k ~value ~version) t.watchers

let read t k =
  match Hashtbl.find_opt t.table k with Some vv -> vv | None -> (0, 0)

let write t k v =
  let _, version = read t k in
  let version = version + 1 in
  Hashtbl.replace t.table k (v, version);
  notify t k ~value:v ~version;
  version

let install t k ~value ~version =
  let _, current = read t k in
  if version >= current then begin
    Hashtbl.replace t.table k (value, version);
    notify t k ~value ~version
  end

let force t k ~value ~version =
  Hashtbl.replace t.table k (value, version);
  notify t k ~value ~version

let reset t =
  Hashtbl.reset t.table;
  List.iter (fun f -> f ()) t.reset_watchers

let version t k = snd (read t k)
let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.table []

let snapshot t =
  Hashtbl.fold (fun k vv acc -> (k, vv) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let equal a b = snapshot a = snapshot b

(* Copies are scratch state (state transfer, convergence checks); they
   do not inherit the original's watchers. *)
let copy t =
  { table = Hashtbl.copy t.table; watchers = []; reset_watchers = [] }

let pp ppf t =
  Format.fprintf ppf "{";
  List.iter
    (fun (k, (v, ver)) -> Format.fprintf ppf "%s=%d@v%d; " k v ver)
    (snapshot t);
  Format.fprintf ppf "}"
