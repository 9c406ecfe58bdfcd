module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Histogram = Sl_util.Histogram
module Swsched = Sl_baseline.Swsched
module Openloop = Sl_workload.Openloop

type stats = {
  completed : int;
  latencies : Histogram.t;
  slowdowns : float array;
  elapsed_cycles : int;
  switch_overhead_cycles : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    sorted.(idx)
  end

type config = {
  params : Params.t;
  seed : int64;
  cores : int;
  rate_per_kcycle : float;
  service : Sl_util.Dist.t;
  count : int;
}

type recorder = { sojourns : Histogram.t; mutable slowdowns : float list }

let recorder () = { sojourns = Histogram.create (); slowdowns = [] }

let record r (req : Openloop.request) =
  let sojourn = Sim.now () - req.Openloop.arrival in
  Histogram.record r.sojourns sojourn;
  let demand = float_of_int (max 1 req.Openloop.service_cycles) in
  r.slowdowns <- (float_of_int sojourn /. demand) :: r.slowdowns

let finish r ~sim ~switch_overhead =
  let arr = Array.of_list r.slowdowns in
  Array.sort compare arr;
  {
    completed = Histogram.count r.sojourns;
    latencies = r.sojourns;
    slowdowns = arr;
    elapsed_cycles = Sim.time sim;
    switch_overhead_cycles = switch_overhead;
  }

(* --- software thread-per-request ---------------------------------------- *)

let run_software ?quantum cfg =
  let sim = Sim.create () in
  let sched = Swsched.create sim cfg.params ?quantum ~cores:cfg.cores () in
  let r = recorder () in
  let rng = Sl_util.Rng.create cfg.seed in
  Openloop.run sim rng
    ~interarrival:(Openloop.poisson ~rate_per_kcycle:cfg.rate_per_kcycle)
    ~service:cfg.service ~count:cfg.count
    ~sink:(fun req ->
      (* One fresh software thread per request. *)
      let worker = Swsched.thread sched () in
      Sim.fork (fun () ->
          Swsched.exec worker req.Openloop.service_cycles;
          record r req));
  Sim.run sim;
  finish r ~sim ~switch_overhead:(Swsched.switch_overhead_cycles sched)

(* --- hardware thread-per-request ---------------------------------------- *)

module Closedloop = Sl_workload.Closedloop
module Latency = Sl_workload.Latency

(* A pool worker, generic in the job it carries: the open-loop pool's
   jobs are bare requests, the closed loop's carry their client's
   completion callback. *)
type 'job worker = {
  bell : Memory.addr;
  mutable slot : 'job option;
  mutable enlisted : bool;  (* an entry for this worker sits in [free] *)
  mutable lives : int;
}

(* One world for both pool runners: [pool_per_core] hardware workers per
   core, each parked in mwait on its own doorbell, and a dispatcher that
   hands jobs from an inbox to free workers.  [source sim rng submit]
   starts the request stream, which feeds jobs in through [submit];
   [complete] runs on the worker once a job's service is done.  Returns
   the sim, run to quiescence (or to [horizon]), and [source]'s result. *)
let run_pool ?(pool_per_core = 64) ?horizon cfg ~request ~complete ~source =
  let sim = Sim.create () in
  let chip = Chip.create sim cfg.params ~cores:cfg.cores in
  let memory = Chip.memory chip in
  let free = Mailbox.create () in
  let inbox = Mailbox.create () in
  for core = 0 to cfg.cores - 1 do
    for i = 0 to pool_per_core - 1 do
      let ptid = (core * 1024) + i + 1 in
      let worker =
        { bell = Memory.alloc memory 1; slot = None; enlisted = false; lives = 0 }
      in
      let th = Chip.add_thread chip ~core ~ptid ~mode:Ptid.User () in
      Chip.attach th (fun th ->
          (* Pool workers park in mwait between requests by design; keep
             them out of the abandoned-process suspect report. *)
          Sim.set_daemon true;
          (* The body doubles as the cold-restart boot path.  Arm first —
             a bell rung before MONITOR executes is architecturally
             lost — then requeue any job orphaned by a crash-stop (died
             mid-request, or assigned into the dead window) so request
             conservation survives, and rejoin the free pool unless our
             entry is still queued there. *)
          Isa.monitor th worker.bell;
          worker.lives <- worker.lives + 1;
          if worker.lives > 1 then Sl_util.Recovery.bump "server.crash_restart";
          (match worker.slot with
          | Some job ->
            worker.slot <- None;
            Sl_util.Recovery.bump "server.crash_requeue";
            Mailbox.send inbox job
          | None -> ());
          if not worker.enlisted then begin
            worker.enlisted <- true;
            Mailbox.send free worker
          end;
          let rec serve () =
            let _ = Isa.mwait th in
            (match worker.slot with
            | Some job ->
              worker.slot <- None;
              Isa.exec th (request job).Openloop.service_cycles;
              complete job;
              worker.enlisted <- true;
              Mailbox.send free worker
            | None -> ());
            serve ()
          in
          serve ());
      Chip.boot th
    done
  done;
  (* Dispatch: hardware steering (smartNIC-style) — pick a parked worker
     and ring its doorbell; jobs queue when the pool is exhausted.  The
     dispatcher parks by design when the pool is exhausted, and it is
     unbounded on purpose: crash-stop requeues can push dispatches past
     [cfg.count]. *)
  Sim.spawn sim (fun () ->
      Sim.set_daemon true;
      while true do
        let job = Mailbox.recv inbox in
        let worker = Mailbox.recv free in
        (* No yield between the pop and the bell write, so a restarting
           worker always observes either (enlisted, no slot) or
           (assigned, slot set) — never the half-claimed state. *)
        worker.enlisted <- false;
        worker.slot <- Some job;
        Memory.write memory worker.bell (Int64.of_int (request job).Openloop.req_id)
      done);
  let src = source sim (Sl_util.Rng.create cfg.seed) (Mailbox.send inbox) in
  Sim.run ?until:horizon sim;
  (sim, src)

let run_hw_pool ?pool_per_core cfg =
  let r = recorder () in
  let sim, () =
    run_pool ?pool_per_core cfg ~request:Fun.id ~complete:(record r)
      ~source:(fun sim rng sink ->
        Openloop.run sim rng
          ~interarrival:(Openloop.poisson ~rate_per_kcycle:cfg.rate_per_kcycle)
          ~service:cfg.service ~count:cfg.count ~sink)
  in
  finish r ~sim ~switch_overhead:0.0

(* --- closed-loop clients against the hardware pool ----------------------- *)

type closed_stats = {
  clients : int;
  issued : int;
  finished : int;
  c_timed_out : int;
  lat : Latency.summary;
  wall_cycles : int;
}

let run_hw_pool_closed ?pool_per_core ?timeout ?slo ?horizon ~clients ~think cfg =
  if clients <= 0 then
    invalid_arg "Server.run_hw_pool_closed: clients must be positive";
  let sim, cl =
    run_pool ?pool_per_core ?horizon cfg ~request:fst
      ~complete:(fun (_, complete) -> complete ())
      ~source:(fun sim rng submit ->
        Closedloop.start ?timeout ?slo sim rng ~clients ~think ~service:cfg.service
          ~count:cfg.count
          ~submit:(fun req ~complete -> submit (req, complete)))
  in
  {
    clients;
    issued = Closedloop.issued cl;
    finished = Closedloop.completed cl;
    c_timed_out = Closedloop.timed_out cl;
    lat = Latency.summarize (Closedloop.latency cl) ~elapsed:(Sim.time sim);
    wall_cycles = Sim.time sim;
  }
