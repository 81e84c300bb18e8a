(* Saturation/anomaly detection over sampled time-series.

   Each {!Timeseries.kind} has one detector shape:
   - Queue: a sustained non-decreasing run with a significant net rise
     (a backlog that keeps growing instead of draining);
   - Waiters: a convoy — the waiter count stays at/above a threshold for
     many consecutive samples;
   - Window: a condition that is healthy only briefly (2PC in-doubt)
     staying positive longer than its budget;
   - Level/Flag: no detector (monotone or informational). *)

type config = {
  queue_min_run : int;
  queue_min_rise : float;
  waiters_threshold : float;
  waiters_min_run : int;
  window_max : Simtime.t;
}

(* Defaults tuned so healthy closed-loop runs stay clean: startup and
   multicast bursts drain within a handful of samples, so a queue run
   must outlast them (10 samples = 50 ms at the default interval) and
   accumulate a real backlog before it counts. *)
let default =
  {
    queue_min_run = 10;
    queue_min_rise = 5.;
    waiters_threshold = 2.;
    waiters_min_run = 10;
    window_max = Simtime.of_ms 200;
  }

type finding = {
  detector : string;
  metric : string;
  replica : int;
  at : Simtime.t;
  until : Simtime.t;
  peak : float;
  detail : string;
}

(* Maximal runs of consecutive points satisfying [keep prev p] (with
   [start p] deciding whether a point can open a run); calls [emit] with
   each run in chronological order. *)
let runs ~start ~keep ~emit points =
  let flush run =
    match List.rev run with [] -> () | first :: _ as pts -> emit first pts
  in
  let rec go run prev = function
    | [] -> flush run
    | (p : Timeseries.point) :: rest -> (
        match (run, prev) with
        | [], _ -> if start p then go [ p ] (Some p) rest else go [] None rest
        | _, Some pr when keep pr p -> go (p :: run) (Some p) rest
        | _, _ ->
            flush run;
            if start p then go [ p ] (Some p) rest else go [] None rest)
  in
  go [] None points

let last = function [] -> invalid_arg "last" | l -> List.nth l (List.length l - 1)

let peak_of pts =
  List.fold_left (fun acc (p : Timeseries.point) -> Stdlib.max acc p.value) 0. pts

let queue_findings cfg (s : Timeseries.series) =
  let out = ref [] in
  runs
    ~start:(fun _ -> true)
    ~keep:(fun (pr : Timeseries.point) (p : Timeseries.point) ->
      p.value >= pr.value)
    ~emit:(fun (first : Timeseries.point) pts ->
      let lastp : Timeseries.point = last pts in
      let rise = lastp.value -. first.value in
      if List.length pts >= cfg.queue_min_run && rise >= cfg.queue_min_rise then
        out :=
          {
            detector = "queue_growth";
            metric = s.name;
            replica = s.replica;
            at = first.at;
            until = lastp.at;
            peak = peak_of pts;
            detail =
              Printf.sprintf "grew %g -> %g over %d samples without draining"
                first.value lastp.value (List.length pts);
          }
          :: !out)
    (Timeseries.points s);
  List.rev !out

let waiters_findings cfg (s : Timeseries.series) =
  let out = ref [] in
  let above (p : Timeseries.point) = p.value >= cfg.waiters_threshold in
  runs ~start:above
    ~keep:(fun _ p -> above p)
    ~emit:(fun (first : Timeseries.point) pts ->
      if List.length pts >= cfg.waiters_min_run then
        let lastp : Timeseries.point = last pts in
        out :=
          {
            detector = "waiter_convoy";
            metric = s.name;
            replica = s.replica;
            at = first.at;
            until = lastp.at;
            peak = peak_of pts;
            detail =
              Printf.sprintf ">= %g waiters for %d consecutive samples"
                cfg.waiters_threshold (List.length pts);
          }
          :: !out)
    (Timeseries.points s);
  List.rev !out

let window_findings cfg (s : Timeseries.series) =
  let out = ref [] in
  let positive (p : Timeseries.point) = p.value > 0. in
  runs ~start:positive
    ~keep:(fun _ p -> positive p)
    ~emit:(fun (first : Timeseries.point) pts ->
      let lastp : Timeseries.point = last pts in
      let dur = Simtime.sub lastp.at first.at in
      if Simtime.(dur > cfg.window_max) then
        out :=
          {
            detector = "window_overrun";
            metric = s.name;
            replica = s.replica;
            at = first.at;
            until = lastp.at;
            peak = peak_of pts;
            detail =
              Printf.sprintf "positive for %s (budget %s)"
                (Simtime.to_string dur)
                (Simtime.to_string cfg.window_max);
          }
          :: !out)
    (Timeseries.points s);
  List.rev !out

(* Replication lag must reach zero by the end of the run (the runner
   appends a quiescence period for exactly this): a [version_lag] series
   whose final sample is still positive means some replica never saw
   writes the rest of its group committed — unbounded staleness, the
   lazy-replication failure mode the audit layer exists to catch. *)
let lag_findings (s : Timeseries.series) =
  match List.rev (Timeseries.points s) with
  | ({ value; _ } : Timeseries.point) :: _ as rev_pts when value > 0. ->
      let rec run_start acc = function
        | (p : Timeseries.point) :: rest when p.value > 0. ->
            run_start p rest
        | _ -> acc
      in
      let first = run_start (List.hd rev_pts) (List.tl rev_pts) in
      let lastp = List.hd rev_pts in
      [
        {
          detector = "lag_undrained";
          metric = s.name;
          replica = s.replica;
          at = first.Timeseries.at;
          until = lastp.Timeseries.at;
          peak = peak_of rev_pts;
          detail =
            Printf.sprintf
              "version lag still %g at end of run (never drained)"
              lastp.Timeseries.value;
        };
      ]
  | _ -> []

let analyze_series cfg (s : Timeseries.series) =
  let lag = if s.name = "version_lag" then lag_findings s else [] in
  lag
  @
  match s.kind with
  | Timeseries.Queue -> queue_findings cfg s
  | Timeseries.Waiters -> waiters_findings cfg s
  | Timeseries.Window -> window_findings cfg s
  | Timeseries.Level | Timeseries.Flag -> []

let analyze ?(config = default) series =
  List.concat_map (analyze_series config) series

let finding_to_json f =
  Json.(
    to_string
      (Obj
         [ ("type", Str "finding"); ("detector", Str f.detector); ("metric", Str f.metric);
           ("replica", Int f.replica); ("at_us", Int (Simtime.to_us f.at));
           ("until_us", Int (Simtime.to_us f.until)); ("peak", Num f.peak);
           ("detail", Str f.detail) ]))

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %s r%d %s..%s peak=%g: %s" f.detector f.metric
    f.replica (Simtime.to_string f.at) (Simtime.to_string f.until) f.peak
    f.detail
