(* The one experiment path. Every perf* and abl* table is a declaration
   (id, title, body, reading) run through [run], which owns what each
   experiment would otherwise write itself: the banner, the
   BENCH_<id>.json file, the size variable and the closing reading. The
   body prints its table and records each printed number with [note]
   (or [count], [flag]), which returns the value it recorded, so a
   printed cell and its BENCH row read one value.

   OCaml evaluates function arguments right to left: bind each note with
   [let] before printing, or a row's metrics are recorded in reverse. *)

let banner title =
  let hr = String.make 78 '-' in
  Fmt.pr "%s@.%s@.%s@." hr title hr

(* The one way a bench builds a technique: its registry entry with [set]
   applied over the schema's defaults. Passthrough (wire traffic ==
   protocol message pattern) unless the experiment needs the stubborn
   channels' acks and retransmissions. *)
let factory ?(passthrough = true) ?(set = []) key =
  Protocols.Registry.configure_exn
    (Option.get (Protocols.Registry.find key))
    (("passthrough", string_of_bool passthrough) :: set)

(* [<ID>_TXNS] overrides a sized experiment's transaction count. A value
   that is set but is not a positive integer is a usage error (exit 2),
   never a silent run at the default size. *)
let size id ~default =
  let var = String.uppercase_ascii id ^ "_TXNS" in
  match Sys.getenv_opt var with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v > 0 -> v
      | _ ->
          Fmt.epr "bench %s: %s=%S is not a positive integer@." id var s;
          exit 2)

(* A table of [width]-wide right-aligned cells under a [header] row: one
   line per [rows] entry, labelled with its name, its cells rendered by
   [row name value]. *)
let table ?(corner = "technique") ~width header rows row =
  let line label cells =
    Fmt.pr "%-18s" label;
    List.iter (Fmt.pr "%*s" width) cells;
    Fmt.pr "@."
  in
  line corner header;
  List.iter (fun (name, r) -> line name (row name r)) rows

type ctx = {
  out : Workload.Bench_out.t;
  txns : int;  (** the resolved size; 0 for an experiment without one *)
}

type t = {
  id : string;
  title : int -> string;  (** from the resolved size *)
  default_txns : int option;  (** for a sized experiment *)
  n_replicas : int;
  config : (string * string) list;
  body : ctx -> unit;
  reading : string option;
}

let v ?(n_replicas = 3) ?(config = []) ?txns ?reading id title body =
  { id; title = Fun.const title; default_txns = txns; n_replicas; config;
    body; reading }

let note x ~metric ~technique ?unit_ ?params value =
  Workload.Bench_out.add x.out ~metric ~technique ?unit_ ?params value;
  value

let count x ~metric ~technique ?unit_ ?params n =
  ignore (note x ~metric ~technique ?unit_ ?params (float_of_int n));
  n

(* A verdict as a single 0/1 row, so a CI floor of 1 passes only when it
   held. *)
let flag x ~metric ?(technique = "all") b =
  ignore (note x ~metric ~technique ~unit_:"bool" (if b then 1. else 0.));
  b

let run e =
  let txns =
    Option.fold ~none:0 ~some:(fun default -> size e.id ~default) e.default_txns
  in
  banner (e.id ^ " — " ^ e.title txns);
  let out =
    Workload.Bench_out.create ~config:e.config ~bench:e.id ~seed:11
      ~n_replicas:e.n_replicas ()
  in
  e.body { out; txns };
  Option.iter (Fmt.pr "@.Reading: %s@.") e.reading;
  ignore (Workload.Bench_out.write out)
