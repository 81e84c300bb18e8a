(* Bechamel micro-benchmarks of the substrates every experiment rests on:
   event engine (plain, and with half its timers cancelled), RNG, lock
   table, serializability checker, certification, and a full ABCAST round
   in the simulator. One [Test.make] per substrate, all grouped in one
   run. *)

open Bechamel
open Toolkit

let bench_engine =
  Test.make ~name:"engine: schedule+run 1000 events"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create ~seed:1 () in
         for i = 1 to 1000 do
           ignore (Sim.Engine.schedule e ~after:(Sim.Simtime.of_us i) (fun () -> ()))
         done;
         ignore (Sim.Engine.run e)))

let bench_rng =
  let rng = Sim.Rng.create ~seed:7 in
  let sampler = Sim.Rng.Zipf.make ~n:1000 ~theta:0.9 in
  Test.make ~name:"rng: 1000 zipf draws"
    (Staged.stage (fun () ->
         for _ = 1 to 1000 do
           ignore (Sim.Rng.Zipf.draw rng sampler)
         done))

let bench_engine_cancel =
  Test.make ~name:"engine: schedule 1000, cancel half, run"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create ~seed:1 () in
         let timers =
           Array.init 1000 (fun i ->
               Sim.Engine.schedule e
                 ~after:(Sim.Simtime.of_us ((i * 7919) mod 1000))
                 (fun () -> ()))
         in
         Array.iteri (fun i tm -> if i land 1 = 0 then Sim.Engine.cancel tm) timers;
         ignore (Sim.Engine.run e)))

let bench_locks =
  Test.make ~name:"locks: 100 acquire/release rounds"
    (Staged.stage (fun () ->
         let lt = Store.Lock_table.create () in
         for txn = 1 to 100 do
           ignore
             (Store.Lock_table.acquire lt ~txn ~key:"a" Store.Lock_table.X
                ~granted:ignore);
           ignore
             (Store.Lock_table.acquire lt ~txn ~key:"b" Store.Lock_table.S
                ~granted:ignore);
           Store.Lock_table.release_all lt ~txn
         done))

let bench_serializability =
  let history = Store.History.create () in
  let () =
    let kv = Store.Kv.create () in
    for tid = 1 to 100 do
      let key = Printf.sprintf "k%d" (tid mod 10) in
      let result =
        Store.Apply.execute kv
          [ Store.Operation.Read key; Store.Operation.Write (key, tid) ]
      in
      Store.History.add_result history ~tid ~replica:0 ~at:Sim.Simtime.zero
        result
    done
  in
  Test.make ~name:"serializability: check 100-txn history"
    (Staged.stage (fun () -> ignore (Store.Serializability.check history)))

let bench_certification =
  Test.make ~name:"certification: 100 offers"
    (Staged.stage (fun () ->
         let kv = Store.Kv.create () in
         let cert = Core.Certification.create kv in
         for i = 1 to 100 do
           let v = Store.Kv.version kv "x" in
           ignore
             (Core.Certification.offer cert ~reads:[ ("x", v) ]
                ~writes:[ ("x", i, 0) ])
         done))

let bench_abcast =
  Test.make ~name:"abcast: full broadcast round (3 replicas, simulated)"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create ~seed:5 () in
         let net = Sim.Network.create e ~n:3 Exp.net in
         let group = Group.Abcast.create_group net ~members:[ 0; 1; 2 ] () in
         let delivered = ref 0 in
         List.iter
           (fun m ->
             Group.Abcast.on_deliver
               (Group.Abcast.handle group ~me:m)
               (fun ~origin:_ _ -> incr delivered))
           [ 0; 1; 2 ];
         Group.Abcast.broadcast (Group.Abcast.handle group ~me:0) (Sim.Msg.Ping 1);
         ignore (Sim.Engine.run ~until:(Sim.Simtime.of_ms 100) e)))

let tests =
  Test.make_grouped ~name:"substrates"
    [
      bench_engine;
      bench_rng;
      bench_engine_cancel;
      bench_locks;
      bench_serializability;
      bench_certification;
      bench_abcast;
    ]

let run () =
  Exp.banner "micro — Bechamel benchmarks of the substrates";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> Printf.sprintf "%12.0f ns/run" e
            | _ -> "            n/a"
          in
          Fmt.pr "  %-55s %s@." name estimate)
        tbl)
    results
