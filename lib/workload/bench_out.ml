(* Machine-readable bench results: every perf* experiment accumulates
   (metric, technique, params, value) rows into one of these and writes
   BENCH_<name>.json next to the working directory. *)

type row = {
  metric : string;
  technique : string;
  unit_ : string;
  params : (string * string) list;
  value : float;
}

type t = {
  bench : string;
  seed : int;
  n_replicas : int;
  config : (string * string) list;
      (* non-default technique settings the bench ran under, echoed into
         the header so the file names the configuration that produced it *)
  mutable rows_rev : row list;
}

let create ?(config = []) ~bench ~seed ~n_replicas () =
  { bench; seed; n_replicas; config; rows_rev = [] }

let add t ~metric ~technique ?(unit_ = "") ?(params = []) value =
  t.rows_rev <- { metric; technique; unit_; params; value } :: t.rows_rev

let row_to_json r =
  Sim.Json.(
    Obj
      [ ("metric", Str r.metric); ("technique", Str r.technique); ("unit", Str r.unit_);
        ("params", Report.config_json r.params); ("value", Num r.value) ])

let to_json t =
  let config = if t.config = [] then [] else [ ("config", Report.config_json t.config) ] in
  Sim.Json.(
    to_string
      (Obj
         ([ ("type", Str "bench"); ("version", Str Report.version); ("bench", Str t.bench);
            ("seed", Int t.seed); ("n_replicas", Int t.n_replicas) ]
         @ config
         @ [ ("results", Arr (List.rev_map row_to_json t.rows_rev)) ])))

let filename t = "BENCH_" ^ t.bench ^ ".json"

let write ?(dir = ".") t =
  let path = Filename.concat dir (filename t) in
  let oc = open_out path in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc;
  path

(* The repository benchmark (benchmark/replibench.ml) names [parse] and
   the value constructors through this module; they are {!Sim.Json}'s. *)
type json = Sim.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse = Sim.Json.parse
