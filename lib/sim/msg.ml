(** Extensible message payload type.

    Each protocol layer extends [t] with its own constructors; a node's
    handler stack pattern-matches on the constructors it owns and passes the
    rest down (see {!Network.add_handler}). The few constructors that
    reach a handler stack several instances share carry an instance id
    from the run's network ({!Network.fresh_id}). *)

type t = ..

(* Constructors used by the simulator's own tests. *)
type t += Ping of int | Pong of int

(* Human-readable message names, used to label message spans. Layers that
   wrap payloads (stubborn channels, broadcast primitives) register a
   printer that unwraps recursively, e.g. "Data(Inject(Req))". Printers
   are registered only while modules initialise, so the list is frozen
   before any run starts. *)

let printers : (t -> string option) list ref = ref []
let register_printer f = printers := f :: !printers

(* Fallback: the extension constructor's own name, module path stripped. *)
let default_name msg =
  let s = Obj.Extension_constructor.(name (of_val msg)) in
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let name msg =
  let rec go = function
    | [] -> default_name msg
    | f :: rest -> ( match f msg with Some s -> s | None -> go rest)
  in
  go !printers
