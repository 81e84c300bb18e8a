(** Extensible message payload type.

    Each protocol layer extends [t] with its own constructors; a node's
    handler stack pattern-matches on the constructors it owns and passes the
    rest down (see {!Network.add_handler}). The few constructors that
    reach a handler stack several instances share carry an instance id
    from the run's network ({!Network.fresh_id}). *)

type t = ..

(* Constructors used by the simulator's own tests. *)
type t += Ping of int | Pong of int

(* How a registered constructor is named: by its label alone, around
   its payload's name, or with a count ("Order[3]") once the count
   reaches [shown_from]. *)
type shape =
  | Leaf
  | Wraps of (t -> t)
  | Counted of { count : t -> int; shown_from : int }

type kind = { label : string; shape : shape }

(* The name registry, keyed by extension constructor id. Constructors
   are registered only while modules initialise, so the table is frozen
   before any run starts. *)
let registry : (int, kind) Hashtbl.t = Hashtbl.create 64

let register ec label shape =
  Hashtbl.replace registry (Obj.Extension_constructor.id ec) { label; shape }

let leaf ec label = register ec label Leaf
let wrapper ec label payload = register ec label (Wraps payload)

let counted ?(shown_from = 0) ec label count =
  register ec label (Counted { count; shown_from })

let constructor msg = Obj.Extension_constructor.of_val msg

(* Fallback: the extension constructor's own name, module path stripped. *)
let default_name ec =
  let s = Obj.Extension_constructor.name ec in
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let kind_of ec =
  match Hashtbl.find_opt registry (Obj.Extension_constructor.id ec) with
  | Some k -> k
  | None -> { label = default_name ec; shape = Leaf }

let counted_name label ~shown_from k =
  if k >= shown_from then label ^ "[" ^ string_of_int k ^ "]" else label

let rec name msg =
  let { label; shape } = kind_of (constructor msg) in
  match shape with
  | Leaf -> label
  | Wraps payload -> label ^ "(" ^ name (payload msg) ^ ")"
  | Counted { count; shown_from } -> counted_name label ~shown_from (count msg)

(* The name cache: a trie over constructor paths. Each node is one
   constructor (or, below a counted constructor, one count) and knows its
   shape, so a lookup reads no registry; the node a path ends at holds
   the interned name. Children are few, so a list scanned by key beats a
   hash table. *)
type node = {
  key : int;  (** extension constructor id, or the count *)
  shape : shape;
  mutable interned : string;  (** [""] until a message ends here *)
  mutable kids : node list;
}

type names = { prefix : string; root : node; mutable built : int }

let names ~prefix =
  { prefix; root = { key = 0; shape = Leaf; interned = ""; kids = [] }; built = 0 }

let rec kid key = function
  | [] -> raise Not_found
  | n :: rest -> if n.key = key then n else kid key rest

let add_kid parent key shape =
  let n = { key; shape; interned = ""; kids = [] } in
  parent.kids <- n :: parent.kids;
  n

let ends_at names node whole =
  if String.length node.interned = 0 then begin
    node.interned <- names.prefix ^ name whole;
    names.built <- names.built + 1
  end;
  node.interned

(* One trie step per constructor, and one more for a count; every count
   below [shown_from] shares the bare label's node. Nothing is allocated
   once the path is known. *)
let rec walk names whole parent msg =
  let ec = constructor msg in
  let id = Obj.Extension_constructor.id ec in
  let node =
    match kid id parent.kids with
    | n -> n
    | exception Not_found -> add_kid parent id (kind_of ec).shape
  in
  match node.shape with
  | Leaf -> ends_at names node whole
  | Wraps payload -> walk names whole node (payload msg)
  | Counted { count; shown_from } ->
      let k = count msg in
      let k = if k >= shown_from then k else -1 in
      let leaf =
        match kid k node.kids with n -> n | exception Not_found -> add_kid node k Leaf
      in
      ends_at names leaf whole

let interned names msg = walk names msg names.root msg

let built names = names.built
