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

(* One key's (completed_at, version) entries in reply-time order, which
   is the order they are added in: the runner stamps a reply with the
   clock. [top.(i)] is the largest version among entries [0..i], so the
   earliest entry above a version is found by binary search. *)
module Reply_log = struct
  type t = {
    mutable at : Simtime.t array;
    mutable top : int array;
    mutable len : int;
  }

  let create () = { at = [||]; top = [||]; len = 0 }

  let add l at version =
    if l.len > 0 && Simtime.(at < l.at.(l.len - 1)) then
      invalid_arg "Audit.Reply_log.add: an instant earlier than the last";
    let cap = Array.length l.at in
    if l.len = cap then begin
      let cap' = max 4 (2 * cap) in
      let at' = Array.make cap' Simtime.zero and top' = Array.make cap' 0 in
      Array.blit l.at 0 at' 0 l.len;
      Array.blit l.top 0 top' 0 l.len;
      l.at <- at';
      l.top <- top'
    end;
    l.at.(l.len) <- at;
    l.top.(l.len) <-
      (if l.len = 0 then version else max version l.top.(l.len - 1));
    l.len <- l.len + 1

  (* The completion instant of the earliest entry whose version is above
     [v_read], if it completed no later than [submitted_at]: every later
     entry completed later still. *)
  let violated l ~v_read ~submitted_at =
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if l.top.(mid) > v_read then first lo mid else first (mid + 1) hi
    in
    let i = first 0 l.len in
    if i < l.len && Simtime.(l.at.(i) <= submitted_at) then Some l.at.(i)
    else None
end

(* Per-client session state for the online session-guarantee checkers.
   Entries are (completed_at, version): an operation A precedes B in
   session order only if A's reply was delivered before B was submitted,
   so overlapping (pipelined) requests never generate false positives. *)
type session = {
  s_wrote : (Store.Operation.key, Reply_log.t) Hashtbl.t;
  s_observed : (Store.Operation.key, Reply_log.t) Hashtbl.t;
}

(* The [version_lag] gauge of one replication group, kept current by the
   stores' watchers: each key's version at every member (by position),
   the sum over keys of the newest of them, and each member's sum of its
   own. A member's lag is the difference. *)
type lag = {
  versions : (Store.Operation.key, int array) Hashtbl.t;
  mutable newest : int;
  held : int array;
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
  a_shard_map : Store.Shard_map.t option;
  a_writes : (Store.Operation.key * int * int, wrec) Hashtbl.t;
  a_by_kv : (Store.Operation.key * int, wrec list ref) Hashtbl.t;
  a_records : (int, Store.History.record) Hashtbl.t;
  a_committed_w : (Store.Operation.key, Reply_log.t) Hashtbl.t;
  a_lag : lag array; (* by group *)
  a_pos : (int, int) Hashtbl.t; (* a replica's position in its group *)
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

let reply_log tbl k =
  match Hashtbl.find_opt tbl k with
  | Some l -> l
  | None ->
      let l = Reply_log.create () in
      Hashtbl.replace tbl k l;
      l

(* [replica]'s copy of [k] now has [version]. *)
let note_version t ~replica k version =
  let g = Hashtbl.find t.a_group_of replica in
  let lag = t.a_lag.(g) and pos = Hashtbl.find t.a_pos replica in
  let vs =
    match Hashtbl.find_opt lag.versions k with
    | Some vs -> vs
    | None ->
        let vs = Array.make (Array.length lag.held) 0 in
        Hashtbl.replace lag.versions k vs;
        vs
  in
  let before = Array.fold_left max 0 vs in
  lag.held.(pos) <- lag.held.(pos) + version - vs.(pos);
  vs.(pos) <- version;
  lag.newest <- lag.newest + Array.fold_left max 0 vs - before

(* [replica]'s store was emptied ([Kv.reset] notifies no update
   watcher). *)
let note_reset t ~replica =
  let lag = t.a_lag.(Hashtbl.find t.a_group_of replica)
  and pos = Hashtbl.find t.a_pos replica in
  Hashtbl.fold
    (fun k vs held -> if vs.(pos) <> 0 then k :: held else held)
    lag.versions []
  |> List.iter (fun k -> note_version t ~replica k 0)

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
      (match Hashtbl.find_opt t.a_by_kv (k, version) with
      | Some l -> l := w :: !l
      | None -> Hashtbl.replace t.a_by_kv (k, version) (ref [ w ]))
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
      a_shard_map =
        (if shards > 1 then Some (Store.Shard_map.create ~shards ())
         else None);
      a_writes = Hashtbl.create 256;
      a_by_kv = Hashtbl.create 256;
      a_records = Hashtbl.create 256;
      a_committed_w = Hashtbl.create 64;
      a_lag =
        Array.of_list
          (List.map
             (fun members ->
               {
                 versions = Hashtbl.create 64;
                 newest = 0;
                 held = Array.make (List.length members) 0;
               })
             groups);
      a_pos = Hashtbl.create 16;
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
      List.iteri
        (fun pos r ->
          Hashtbl.replace t.a_group_of r g;
          Hashtbl.replace t.a_pos r pos;
          let store = store_of r in
          List.iter
            (fun (k, (_, version)) -> note_version t ~replica:r k version)
            (Store.Kv.snapshot store);
          Store.Kv.on_update store (fun k ~value ~version ->
              note_version t ~replica:r k version;
              note_apply t ~replica:r ~at:(Engine.now engine) k ~value
                ~version);
          Store.Kv.on_reset store (fun () -> note_reset t ~replica:r))
        members)
    groups;
  Store.History.on_add history (fun r ->
      Hashtbl.replace t.a_records r.Store.History.tid r);
  t

(* For each read, [Reply_log.violated] finds the earliest committed
   write of its key that (a) installed a version the read missed and (b)
   whose commit was already client-visible when the read was submitted:
   with that commit instant [rt], [at - rt] is the longest the observed
   state is provably stale in real time. *)
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
           Reply_log.violated (reply_log t.a_committed_w k) ~v_read
             ~submitted_at
         with
        | Some rt ->
            t.a_stale_reads <- t.a_stale_reads + 1;
            t.a_stale := Simtime.to_ms (Simtime.sub at rt) :: !(t.a_stale)
        | None -> ());
        (match
           Reply_log.violated (reply_log s.s_wrote k) ~v_read ~submitted_at
         with
        | Some rt ->
            t.a_ryw <- t.a_ryw + 1;
            t.a_session_window_max_ms <-
              Float.max t.a_session_window_max_ms
                (Simtime.to_ms (Simtime.sub at rt))
        | None -> ());
        (match
           Reply_log.violated (reply_log s.s_observed k) ~v_read
             ~submitted_at
         with
        | Some rt ->
            t.a_mr <- t.a_mr + 1;
            t.a_session_window_max_ms <-
              Float.max t.a_session_window_max_ms
                (Simtime.to_ms (Simtime.sub at rt))
        | None -> ());
        Reply_log.add (reply_log s.s_observed k) at v_read)
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
        Reply_log.add (reply_log t.a_committed_w k) at vw;
        Reply_log.add (reply_log s.s_wrote k) at vw)
      writes;
    if subs <> [] then
      t.a_cross_rev <- { x_reads = reads; x_writes = writes } :: t.a_cross_rev
  end

(* Residual version lag of [replica]: over every key any member of its
   group holds, how many installed versions the replica is missing. The
   watchers see every change to the stores, [force]'s re-versioning and
   [reset] included, so the sums match the live stores. *)
let replica_lag t replica =
  match Hashtbl.find_opt t.a_group_of replica with
  | None -> 0
  | Some g ->
      let lag = t.a_lag.(g) in
      lag.newest - lag.held.(Hashtbl.find t.a_pos replica)

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
