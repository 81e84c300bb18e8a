(* The consistency audit layer: turns client-visible staleness into a
   measured signal (see the .mli for the model). The audit observes a
   run from the outside — Kv watchers for per-replica apply times,
   History subscriptions for committed read/write versions, and the
   runner's reply callbacks for client-visible commit instants — so it
   is technique-agnostic: nothing in lib/protocols knows it exists. *)

open Sim

(* One distinct installed write, identified by its (key, version, value)
   triple. Version alone is not an identity: lazy update-everywhere
   replicas allocate local version numbers independently, so two
   concurrent commits can install the same (key, version) with different
   values at different sites. *)
type wrec = {
  w_origin_at : Simtime.t;  (* first install anywhere *)
  mutable w_applied : int list;  (* replicas holding it *)
  mutable w_last_apply : Simtime.t;
  mutable w_reply_at : Simtime.t option;  (* client-visible commit *)
  w_group : int;
}

(* Per-client session state for the online session-guarantee checkers.
   Entries are (completed_at, version): an operation A precedes B in
   session order only if A's reply was delivered before B was submitted,
   so overlapping (pipelined) requests never generate false positives. *)
type session = {
  s_wrote : (Store.Operation.key, (Simtime.t * int) list ref) Hashtbl.t;
  s_observed : (Store.Operation.key, (Simtime.t * int) list ref) Hashtbl.t;
}

(* A committed cross-shard transaction, reassembled from its per-group
   sub-transactions for the snapshot-skew scan. *)
type cross_txn = {
  x_reads : (Store.Operation.key * int) list;
  x_writes : (Store.Operation.key * int) list;
}

type t = {
  a_history : Store.History.t;
  a_groups : int list array;
  a_group_of : (int, int) Hashtbl.t;
  a_stores : (int, Store.Kv.t) Hashtbl.t;
  a_shard_map : Store.Shard_map.t option;
  a_writes : (Store.Operation.key * int * int, wrec) Hashtbl.t;
  a_by_kv : (Store.Operation.key * int, wrec list ref) Hashtbl.t;
  a_records : (int, Store.History.record) Hashtbl.t;
  a_committed_w : (Store.Operation.key, (Simtime.t * int) list ref) Hashtbl.t;
  a_sessions : (int, session) Hashtbl.t;
  a_vis : float list ref;
  a_vis_by_replica : (int, float list ref) Hashtbl.t;
  a_stale : float list ref;
  mutable a_session_window_max_ms : float;
  mutable a_stale_reads : int;
  mutable a_ryw : int;
  mutable a_mr : int;
  mutable a_reads_checked : int;
  mutable a_commits_seen : int;
  mutable a_cross_rev : cross_txn list;
}

type summary = {
  writes : int;
  fully_replicated : int;
  visibility_ms : Summary.t;
  visibility_by_replica : (int * Summary.t) list;
  post_commit_max_ms : float;
  stale_reads : int;
  staleness_ms : Summary.t;
  ryw_violations : int;
  mr_violations : int;
  session_window_max_ms : float;
  reads_checked : int;
  commits : int;
  skew_pairs : int;
  cross_txns : int;
  final_lag : (int * int) list;
  drained : bool;
}

let list_ref tbl k =
  match Hashtbl.find_opt tbl k with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace tbl k r;
      r

let session t client =
  match Hashtbl.find_opt t.a_sessions client with
  | Some s -> s
  | None ->
      let s =
        { s_wrote = Hashtbl.create 8; s_observed = Hashtbl.create 8 }
      in
      Hashtbl.replace t.a_sessions client s;
      s

let vis_recorder t replica =
  match Hashtbl.find_opt t.a_vis_by_replica replica with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace t.a_vis_by_replica replica r;
      r

(* A copy changed at [replica]: the first install of a triple anywhere
   stamps its origin; every later install at another replica is one
   visibility-latency sample (how long that site stayed stale for this
   write). Re-installs at the same replica (state transfer, lazy
   re-application) are not new samples. *)
let note_apply t ~replica ~at k ~value ~version =
  let triple = (k, version, value) in
  match Hashtbl.find_opt t.a_writes triple with
  | None ->
      let w =
        {
          w_origin_at = at;
          w_applied = [ replica ];
          w_last_apply = at;
          w_reply_at = None;
          w_group =
            Option.value ~default:0 (Hashtbl.find_opt t.a_group_of replica);
        }
      in
      Hashtbl.replace t.a_writes triple w;
      let l = list_ref t.a_by_kv (k, version) in
      l := w :: !l
  | Some w ->
      if not (List.mem replica w.w_applied) then begin
        w.w_applied <- replica :: w.w_applied;
        if Simtime.(at > w.w_last_apply) then w.w_last_apply <- at;
        let ms = Simtime.to_ms (Simtime.sub at w.w_origin_at) in
        t.a_vis := ms :: !(t.a_vis);
        let by_replica = vis_recorder t replica in
        by_replica := ms :: !by_replica
      end

let create ~engine ~history ~groups ~store_of ?(shards = 1) () =
  let t =
    {
      a_history = history;
      a_groups = Array.of_list groups;
      a_group_of = Hashtbl.create 16;
      a_stores = Hashtbl.create 16;
      a_shard_map =
        (if shards > 1 then Some (Store.Shard_map.create ~shards ())
         else None);
      a_writes = Hashtbl.create 256;
      a_by_kv = Hashtbl.create 256;
      a_records = Hashtbl.create 256;
      a_committed_w = Hashtbl.create 64;
      a_sessions = Hashtbl.create 8;
      a_vis = ref [];
      a_vis_by_replica = Hashtbl.create 16;
      a_stale = ref [];
      a_session_window_max_ms = 0.;
      a_stale_reads = 0;
      a_ryw = 0;
      a_mr = 0;
      a_reads_checked = 0;
      a_commits_seen = 0;
      a_cross_rev = [];
    }
  in
  List.iteri
    (fun g members ->
      List.iter
        (fun r ->
          Hashtbl.replace t.a_group_of r g;
          let store = store_of r in
          Hashtbl.replace t.a_stores r store;
          Store.Kv.on_update store (fun k ~value ~version ->
              note_apply t ~replica:r ~at:(Engine.now engine) k ~value
                ~version))
        members)
    groups;
  Store.History.on_add history (fun r ->
      Hashtbl.replace t.a_records r.Store.History.tid r);
  t

(* The earliest committed write of [k] that (a) installed a version the
   read missed and (b) whose commit was already client-visible when the
   read was submitted. Returns its commit instant — [at - rt] is then
   the longest the observed state is provably stale in real time. *)
let violated_commit entries ~v_read ~submitted_at =
  List.fold_left
    (fun acc (rt, vw) ->
      if vw > v_read && Simtime.(rt <= submitted_at) then
        match acc with
        | Some best when Simtime.(best <= rt) -> acc
        | _ -> Some rt
      else acc)
    None entries

let note_reply t ~client ~rid ~committed ~submitted_at ~at =
  if committed then begin
    t.a_commits_seen <- t.a_commits_seen + 1;
    let subs = Store.History.subs_of t.a_history ~parent:rid in
    let tids = match subs with [] -> [ rid ] | _ -> subs in
    let recs = List.filter_map (Hashtbl.find_opt t.a_records) tids in
    let reads = List.concat_map (fun r -> r.Store.History.reads) recs in
    let writes = List.concat_map (fun r -> r.Store.History.writes) recs in
    let s = session t client in
    (* Reads first: a transaction's own writes become client-visible
       only with this reply, so they never screen its own reads. *)
    List.iter
      (fun (k, v_read) ->
        t.a_reads_checked <- t.a_reads_checked + 1;
        (match
           violated_commit
             !(list_ref t.a_committed_w k)
             ~v_read ~submitted_at
         with
        | Some rt ->
            t.a_stale_reads <- t.a_stale_reads + 1;
            t.a_stale := Simtime.to_ms (Simtime.sub at rt) :: !(t.a_stale)
        | None -> ());
        (match
           violated_commit !(list_ref s.s_wrote k) ~v_read ~submitted_at
         with
        | Some rt ->
            t.a_ryw <- t.a_ryw + 1;
            t.a_session_window_max_ms <-
              Float.max t.a_session_window_max_ms
                (Simtime.to_ms (Simtime.sub at rt))
        | None -> ());
        (match
           violated_commit !(list_ref s.s_observed k) ~v_read ~submitted_at
         with
        | Some rt ->
            t.a_mr <- t.a_mr + 1;
            t.a_session_window_max_ms <-
              Float.max t.a_session_window_max_ms
                (Simtime.to_ms (Simtime.sub at rt))
        | None -> ());
        let l = list_ref s.s_observed k in
        l := (at, v_read) :: !l)
      reads;
    List.iter
      (fun (k, vw) ->
        (match Hashtbl.find_opt t.a_by_kv (k, vw) with
        | Some l ->
            List.iter
              (fun w ->
                match w.w_reply_at with
                | None -> w.w_reply_at <- Some at
                | Some prev ->
                    if Simtime.(at < prev) then w.w_reply_at <- Some at)
              !l
        | None -> ());
        let l = list_ref t.a_committed_w k in
        l := (at, vw) :: !l;
        let l = list_ref s.s_wrote k in
        l := (at, vw) :: !l)
      writes;
    if subs <> [] then
      t.a_cross_rev <- { x_reads = reads; x_writes = writes } :: t.a_cross_rev
  end

(* Residual version lag of [replica]: over every key any member of its
   group holds, how many installed versions the replica is missing.
   Computed from the live stores, not from watcher memory, so lazy
   re-versioning (reconciliation's [force]) cannot leave phantom lag. *)
let replica_lag t replica =
  match Hashtbl.find_opt t.a_group_of replica with
  | None -> 0
  | Some g ->
      let members = t.a_groups.(g) in
      let keys = Hashtbl.create 64 in
      List.iter
        (fun r ->
          match Hashtbl.find_opt t.a_stores r with
          | Some store ->
              List.iter (fun k -> Hashtbl.replace keys k ()) (Store.Kv.keys store)
          | None -> ())
        members;
      let mine = Hashtbl.find_opt t.a_stores replica in
      Hashtbl.fold
        (fun k () acc ->
          let newest =
            List.fold_left
              (fun best r ->
                match Hashtbl.find_opt t.a_stores r with
                | Some store -> Stdlib.max best (Store.Kv.version store k)
                | None -> best)
              0 members
          in
          let held =
            match mine with Some s -> Store.Kv.version s k | None -> 0
          in
          acc + Stdlib.max 0 (newest - held))
        keys 0

let register_series t ts =
  Array.iter
    (fun members ->
      List.iter
        (fun r ->
          Timeseries.register ts ~name:"version_lag" ~replica:r
            ~kind:Timeseries.Queue ~unit_:"versions" (fun () ->
              float_of_int (replica_lag t r)))
        members)
    t.a_groups

(* Cross-shard snapshot skew: a committed cross-shard reader R and a
   committed cross-shard writer W such that R observed W's write on one
   shard (read version >= installed version) but missed it on another
   (read version < installed version) — R's sub-reads together form a
   snapshot no serial order of whole transactions could produce. Each
   (R, W) pair counts once. *)
let skew_pairs t =
  match t.a_shard_map with
  | None -> 0
  | Some map ->
      let shards_of kvs =
        List.sort_uniq compare
          (List.map (fun (k, _) -> Store.Shard_map.shard_of_key map k) kvs)
      in
      let crosses = List.rev t.a_cross_rev in
      let writers =
        List.filter (fun c -> List.length (shards_of c.x_writes) >= 2) crosses
      in
      let readers =
        List.filter (fun c -> List.length (shards_of c.x_reads) >= 2) crosses
      in
      List.fold_left
        (fun acc r ->
          List.fold_left
            (fun acc w ->
              if r == w then acc
              else
                let overlap =
                  List.filter_map
                    (fun (k, vw) ->
                      match List.assoc_opt k r.x_reads with
                      | Some vr ->
                          Some (Store.Shard_map.shard_of_key map k, vr >= vw)
                      | None -> None)
                    w.x_writes
                in
                let torn =
                  List.exists
                    (fun (s1, seen1) ->
                      seen1
                      && List.exists
                           (fun (s2, seen2) -> (not seen2) && s2 <> s1)
                           overlap)
                    overlap
                in
                if torn then acc + 1 else acc)
            acc writers)
        0 readers

let finalize t =
  let writes_n = Hashtbl.length t.a_writes in
  let fully, post_commit_max =
    Hashtbl.fold
      (fun _ w (fully, pc) ->
        let members = t.a_groups.(w.w_group) in
        let everywhere =
          List.for_all (fun r -> List.mem r w.w_applied) members
        in
        let pc =
          match w.w_reply_at with
          | Some rt when Simtime.(w.w_last_apply > rt) ->
              Float.max pc (Simtime.to_ms (Simtime.sub w.w_last_apply rt))
          | _ -> pc
        in
        ((if everywhere then fully + 1 else fully), pc))
      t.a_writes (0, 0.)
  in
  let final_lag =
    Array.to_list t.a_groups
    |> List.concat_map (fun members ->
           List.map (fun r -> (r, replica_lag t r)) members)
    |> List.sort compare
  in
  let drained = List.for_all (fun (_, lag) -> lag = 0) final_lag in
  let skew = skew_pairs t in
  {
    writes = writes_n;
    fully_replicated = fully;
    visibility_ms = Summary.summarize !(t.a_vis);
    visibility_by_replica =
      Hashtbl.fold
        (fun r rec_ acc -> (r, Summary.summarize !rec_) :: acc)
        t.a_vis_by_replica []
      |> List.sort compare;
    post_commit_max_ms = post_commit_max;
    stale_reads = t.a_stale_reads;
    staleness_ms = Summary.summarize !(t.a_stale);
    ryw_violations = t.a_ryw;
    mr_violations = t.a_mr;
    session_window_max_ms = t.a_session_window_max_ms;
    reads_checked = t.a_reads_checked;
    commits = t.a_commits_seen;
    skew_pairs = skew;
    cross_txns = List.length t.a_cross_rev;
    final_lag;
    drained;
  }

let max_lag s = List.fold_left (fun acc (_, lag) -> max acc lag) 0 s.final_lag

(* The measured form of the paper's §4 windows (see the interface):
   real-time stale reads are reported, never judged. *)
let verdicts ~propagation ~shards s =
  let eager = propagation = Core.Technique.Eager in
  let session = s.ryw_violations > 0 || s.mr_violations > 0 in
  [
    Verdict.v "drained" s.drained
      (if s.drained then "version lag drained"
       else
         Printf.sprintf "version lag never drained (max residual %d)"
           (max_lag s));
    (if eager then
       Verdict.v "eager_window" (not session)
         (Printf.sprintf
            "eager technique with a%s inconsistency window: %d \
             read-your-writes + %d monotonic-reads violations (window %.3f ms)"
            (if session then " non-zero" else " zero")
            s.ryw_violations s.mr_violations s.session_window_max_ms)
     else
       Verdict.v "lazy_window" (s.post_commit_max_ms > 0.)
         (if s.post_commit_max_ms > 0. then
            Printf.sprintf "post-commit staleness window %.3f ms"
              s.post_commit_max_ms
          else
            "lazy technique measured no post-commit staleness window \
             (propagation should run after the reply)"));
    Verdict.v "unsharded_skew"
      (shards > 1 || s.skew_pairs = 0)
      (Printf.sprintf "%d snapshot-skew pairs at shards=%d%s" s.skew_pairs
         shards
         (if shards = 1 && s.skew_pairs <> 0 then " (must be impossible)"
          else ""));
  ]
