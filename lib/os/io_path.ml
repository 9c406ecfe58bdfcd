module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Smt_core = Switchless.Smt_core
module Memory = Switchless.Memory
module Histogram = Sl_util.Histogram
module Nic = Sl_dev.Nic
module Notify = Sl_dev.Notify
module Apic_timer = Sl_dev.Apic_timer
module Swsched = Sl_baseline.Swsched
module Irq = Sl_baseline.Irq
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals
module Latency = Sl_workload.Latency

type stats = {
  processed : int;
  dropped : int;
  latencies : Histogram.t;
  elapsed_cycles : int;
  useful_cycles : float;
  poll_cycles : float;
  overhead_cycles : float;
  background_cycles : float;
}

let wasted_fraction s =
  let total = s.useful_cycles +. s.poll_cycles +. s.overhead_cycles in
  if total = 0.0 then 0.0 else (s.poll_cycles +. s.overhead_cycles) /. total

type config = {
  params : Params.t;
  seed : int64;
  rate_per_kcycle : float;
  per_packet_work : int;
  count : int;
  background : bool;
}

let default_config =
  {
    params = Params.default;
    seed = 1L;
    rate_per_kcycle = 0.5;
    per_packet_work = 500;
    count = 2000;
    background = false;
  }

type load_config = {
  params : Params.t;
  seed : int64;
  arrivals : Arrivals.t;
  service : Sl_util.Dist.t;
  count : int;
  slo : int;
}

type load_stats = { lat : Latency.summary; io : stats }

let default_load_config =
  {
    params = Params.default;
    seed = 1L;
    arrivals = Arrivals.poisson ~rate_per_kcycle:0.25;
    service = Sl_util.Dist.Exponential 2000.0;
    count = 2000;
    slo = 30_000;
  }

(* The fixed-count shape is the open-loop workload with Poisson arrivals
   and constant service: same RNG stream, same schedule.  It names no
   SLO, so none is counted. *)
let load_of_config (c : config) =
  {
    params = c.params;
    seed = c.seed;
    arrivals = Arrivals.poisson ~rate_per_kcycle:c.rate_per_kcycle;
    service = Sl_util.Dist.Constant (float_of_int c.per_packet_work);
    count = c.count;
    slo = max_int;
  }

type design =
  | Mwait
  | Mwait_hardened
  | Mwait_rss of int
  | Polling
  | Irq_wake
  | Irq_napi
  | Irq_deliver
  | Flexsc

(* The hardened design's knobs and what it counts. *)
type hardening = {
  wait_budget : int;
  miss_threshold : int;
  with_watchdog : bool;
  mutable watchdog : Watchdog.t option;
  mutable lives : int;
  mutable mwait_timeouts : int;
  mutable missed_wakeups : int;
  mutable fallbacks : int;
  mutable recoveries : int;
}

let hardening ?(wait_budget = 20_000) ?(miss_threshold = 3) ?(with_watchdog = false) () =
  {
    wait_budget;
    miss_threshold;
    with_watchdog;
    watchdog = None;
    lives = 0;
    mwait_timeouts = 0;
    missed_wakeups = 0;
    fallbacks = 0;
    recoveries = 0;
  }

(* Cycles an empty check costs a spinning thread: read the tail, compare,
   loop. *)
let poll_gap = 20

(* Consecutive empty checks after which degraded polling trusts the
   wakeup path again. *)
let poll_recovery_checks = 64

(* FlexSC's accumulation delay per batch. *)
let batch_window = 500

let background_chunk = 200

(* --- what every serving loop shares -------------------------------------- *)

(* One run's workload, its latency recorder and its progress.  Progress
   lives outside the serving bodies: a crash-stopped thread restarts cold,
   re-runs its body from scratch, and must not forget the packets already
   served (the NIC ring still holds the unserved ones). *)
type world = {
  cfg : load_config;
  lat : Latency.t;
  services : int array;
      (* Each request's sampled demand by packet id: ids are assigned in
         injection order, which is arrival order (one injector, strictly
         increasing arrival instants). *)
  mutable processed : int;
  mutable stop : bool;  (* a serving loop returned: the background job quits *)
  mutable background_work : float;
}

(* Runs cycles (default [Useful]) on the calling thread, whatever kind of
   thread the design provides. *)
type exec = ?kind:Smt_core.kind -> int -> unit

let serve_packet w (exec : exec) (pkt : Nic.packet) =
  exec w.services.(pkt.Nic.pkt_id);
  Latency.record w.lat (Sim.now () - pkt.Nic.injected_at);
  w.processed <- w.processed + 1

let rec drain w exec nic q =
  match Nic.poll_queue nic q with
  | Some pkt ->
    serve_packet w exec pkt;
    drain w exec nic q
  | None -> ()

let background_job w (exec : exec) =
  while not w.stop do
    exec background_chunk;
    w.background_work <- w.background_work +. float_of_int background_chunk
  done

(* --- the serving loops: the only per-design code --------------------------- *)

(* The paper's design: park in mwait on the RX tail of queue [q]; the
   tail DMA write wakes the thread.  One thread per queue under RSS. *)
let serve_mwait w nic th exec q =
  Isa.monitor th (Nic.queue_tail_addr nic q);
  while w.processed < w.cfg.count do
    if Nic.pending_queue nic q = 0 then ignore (Isa.mwait th : Memory.addr);
    drain w exec nic q
  done

(* mwait that survives a faulty wakeup substrate: deadline waits, a
   polling fallback after repeated missed wakeups, recovery once polling
   sees a quiet stretch. *)
let serve_hardened w nic th (exec : exec) h =
  Isa.monitor th (Nic.rx_tail_addr nic);
  h.lives <- h.lives + 1;
  if h.lives > 1 then Sl_util.Recovery.bump "io.crash_restart";
  (* Lost packets (descriptor-DMA drops, ring-full drops) never arrive;
     counting them towards completion is what keeps the loop from
     waiting forever for a packet that no longer exists. *)
  let accounted () = w.processed + Nic.dma_dropped nic + Nic.dropped nic in
  let consecutive_misses = ref 0 in
  let empty_checks = ref 0 in
  let polling = ref false in
  while accounted () < w.cfg.count do
    (if !polling then begin
       (* Degraded mode: the wakeup path proved unreliable, so spin
          like a kernel-bypass stack until it looks healthy again. *)
       if Nic.pending nic = 0 then begin
         exec ~kind:Smt_core.Poll poll_gap;
         incr empty_checks;
         if !empty_checks >= poll_recovery_checks then begin
           polling := false;
           h.recoveries <- h.recoveries + 1;
           Sl_util.Recovery.bump "io.recovery";
           consecutive_misses := 0
         end
       end
       else empty_checks := 0
     end
     else if Nic.pending nic = 0 then
       let deadline = Sim.now () + h.wait_budget in
       match Isa.mwait_for th ~deadline with
       | Some _ -> consecutive_misses := 0
       | None ->
         h.mwait_timeouts <- h.mwait_timeouts + 1;
         Sl_util.Recovery.bump "io.mwait_timeout";
         (* Data present but no doorbell woke us: a missed wakeup.
            A timeout with an empty queue is just idleness. *)
         if Nic.pending nic > 0 then begin
           h.missed_wakeups <- h.missed_wakeups + 1;
           Sl_util.Recovery.bump "io.missed_wakeup";
           incr consecutive_misses;
           if !consecutive_misses >= h.miss_threshold then begin
             polling := true;
             h.fallbacks <- h.fallbacks + 1;
             Sl_util.Recovery.bump "io.fallback";
             empty_checks := 0
           end
         end);
    drain w exec nic 0
  done

(* The kernel-bypass status quo: spin on the queue. *)
let serve_polling w nic (exec : exec) =
  while w.processed < w.cfg.count do
    match Nic.poll nic with
    | Some pkt -> serve_packet w exec pkt
    | None -> exec ~kind:Smt_core.Poll poll_gap
  done

(* IRQ wake: the handler rings [doorbell]; the woken app drains. *)
let serve_irq_wake w nic exec doorbell =
  while w.processed < w.cfg.count do
    if Nic.pending nic = 0 then Mailbox.recv doorbell;
    drain w exec nic 0
  done

(* NAPI: the first packet raises an IRQ that masks further ones; the app
   drains and re-enables interrupts only when the queue runs dry. *)
let serve_irq_napi w nic (exec : exec) doorbell irq_enabled =
  let rec napi_drain () =
    match Nic.poll nic with
    | Some pkt ->
      serve_packet w exec pkt;
      napi_drain ()
    | None ->
      (* Queue dry: re-enable interrupts (a device register write) and
         re-check for the race where a packet landed meanwhile. *)
      exec ~kind:Smt_core.Overhead w.cfg.params.Params.nic_doorbell_cycles;
      irq_enabled := true;
      if Nic.pending nic > 0 then begin
        irq_enabled := false;
        napi_drain ()
      end
  in
  while w.processed < w.cfg.count do
    if Nic.pending nic = 0 then Mailbox.recv doorbell;
    napi_drain ()
  done

(* IRQ deliver: each hardirq hands its packet to the app's backlog. *)
let serve_irq_deliver w exec backlog =
  while w.processed < w.cfg.count do
    serve_packet w exec (Mailbox.recv backlog)
  done

(* FlexSC batching: sleep a batch window after the first posted entry,
   then run everything posted by then back-to-back; later posts wait for
   the next batch. *)
let serve_flexsc w (exec : exec) entries =
  let serve (req : Openloop.request) =
    exec req.Openloop.service_cycles;
    Latency.record w.lat (Sim.now () - req.Openloop.arrival);
    w.processed <- w.processed + 1
  in
  while true do
    let first = Mailbox.recv entries in
    Sim.delay batch_window;
    let batch = Mailbox.length entries in
    serve first;
    for _ = 1 to batch do
      serve (Mailbox.recv entries)
    done
  done

(* --- the one world scaffold ------------------------------------------------ *)

let flexsc_worker_ptid = 777_777

(* One core, a NIC (except under FlexSC, where requests are posted to a
   shared page), the serving threads, the optional 0.25-weight
   background job (not under FlexSC, whose daemon worker never returns
   to end it), and the open-loop generator; then run and collect. *)
let run_world ?horizon ?(hardening = hardening ()) ~background design (cfg : load_config) =
  let sim = Sim.create () in
  let w =
    {
      cfg;
      lat = Latency.create ~slo:cfg.slo ();
      services = Array.make (max 1 cfg.count) 0;
      processed = 0;
      stop = false;
      background_work = 0.0;
    }
  in
  let inject nic (req : Openloop.request) =
    w.services.(req.Openloop.req_id) <- req.Openloop.service_cycles;
    Sim.fork (fun () -> Nic.inject nic)
  in
  let core, nic, sink =
    match design with
    | Mwait | Mwait_hardened | Mwait_rss _ | Polling ->
      let queues = match design with Mwait_rss q -> q | _ -> 1 in
      if queues <= 0 then invalid_arg "Io_path: Mwait_rss needs a positive queue count";
      let chip = Chip.create sim cfg.params ~cores:1 in
      let nic = Nic.create sim cfg.params (Chip.memory chip) ~queues ~queue_depth:4096 () in
      if design = Mwait_hardened && hardening.with_watchdog then
        hardening.watchdog <- Some (Watchdog.create chip ~core:0 ~ptid:99 ());
      let thread ~ptid ~mode ?weight body =
        let th = Chip.add_thread chip ~core:0 ~ptid ~mode ?weight () in
        Chip.attach th (fun th -> body th (fun ?kind n -> Isa.exec th ?kind n));
        Chip.boot th
      in
      for q = 0 to queues - 1 do
        thread ~ptid:(q + 1) ~mode:Ptid.Supervisor (fun th exec ->
            (match design with
            | Mwait_hardened -> serve_hardened w nic th exec hardening
            | Polling -> serve_polling w nic exec
            | _ -> serve_mwait w nic th exec q);
            w.stop <- true;
            Option.iter Watchdog.stop hardening.watchdog)
      done;
      if background then
        thread ~ptid:(queues + 1) ~mode:Ptid.User ~weight:0.25 (fun _ exec ->
            background_job w exec);
      Option.iter Watchdog.start hardening.watchdog;
      (Chip.exec_core chip 0, Some nic, inject nic)
    | Irq_wake | Irq_napi | Irq_deliver ->
      let sched = Swsched.create sim cfg.params ~cores:1 () in
      let irq = Irq.create sim cfg.params ~cores:(Swsched.cores sched) in
      let wake = Mailbox.create () in
      let backlog = Mailbox.create () in
      let irq_enabled = ref true in
      let napi = design = Irq_napi and deliver = design = Irq_deliver in
      let nic = ref None in
      (* The hardirq runs the scheduler decision, then either rings the
         app (wake, NAPI) or hands it the packet (deliver).  Under
         deliver a packet is invisible to the app until its hardirq has
         run; handlers serialize on the IRQ context, so the delivery
         path itself caps at 1000 / (entry + sched + exit) packets per
         kcycle, and past that load the backlog delay is what blows the
         SLO. *)
      let handler ~exec =
        exec cfg.params.Params.sched_decision_cycles;
        if not deliver then Mailbox.send wake ()
        else
          match Option.bind !nic Nic.poll with
          | Some pkt -> Mailbox.send backlog pkt
          | None -> ()
      in
      let line () =
        if not napi then Irq.raise_irq irq ~core:0 ~handler
        else if !irq_enabled then begin
          (* Mask further interrupts until the poll loop runs dry. *)
          irq_enabled := false;
          Irq.raise_irq irq ~core:0 ~handler
        end
      in
      let dev =
        Nic.create sim cfg.params (Memory.create ()) ~notify:(Notify.Irq_line line)
          ~queue_depth:4096 ()
      in
      nic := Some dev;
      let thread body =
        let th = Swsched.thread sched () in
        Sim.spawn sim (fun () -> body (fun ?kind n -> Swsched.exec th ?kind n))
      in
      thread (fun exec ->
          (match design with
          | Irq_napi -> serve_irq_napi w dev exec wake irq_enabled
          | Irq_deliver -> serve_irq_deliver w exec backlog
          | _ -> serve_irq_wake w dev exec wake);
          w.stop <- true);
      if background then thread (background_job w);
      ((Swsched.cores sched).(0), Some dev, inject dev)
    | Flexsc ->
      if background then invalid_arg "Io_path: Flexsc runs no background job";
      let core = Smt_core.create sim cfg.params ~core_id:0 in
      let entries = Mailbox.create () in
      let ptid = flexsc_worker_ptid in
      Sim.spawn sim ~name:"flexsc-worker" ~daemon:true (fun () ->
          Smt_core.set_runnable core ~ptid ~weight:1.0 true;
          serve_flexsc w
            (fun ?(kind = Smt_core.Useful) n -> Smt_core.execute core ~ptid ~kind n)
            entries);
      (core, None, Mailbox.send entries)
  in
  Openloop.run_arrivals sim (Sl_util.Rng.create cfg.seed) ~arrivals:cfg.arrivals
    ~service:cfg.service ~count:cfg.count ~sink;
  Sim.run ?until:horizon sim;
  let io =
    {
      processed = Latency.count w.lat;
      dropped = (match nic with Some nic -> Nic.dropped nic | None -> 0);
      latencies = Latency.hist w.lat;
      elapsed_cycles = Sim.time sim;
      useful_cycles = Smt_core.work_done core Smt_core.Useful;
      poll_cycles = Smt_core.work_done core Smt_core.Poll;
      overhead_cycles = Smt_core.work_done core Smt_core.Overhead;
      background_cycles = w.background_work;
    }
  in
  ({ lat = Latency.summarize w.lat ~elapsed:io.elapsed_cycles; io }, nic)

let run design (cfg : config) =
  let s, _ = run_world ~background:cfg.background design (load_of_config cfg) in
  s.io

let run_load design cfg = fst (run_world ~background:false design cfg)

let run_load_mwait = run_load Mwait
let run_load_polling = run_load Polling
let run_load_interrupt = run_load Irq_deliver
let run_load_flexsc = run_load Flexsc

type hardened_stats = {
  base : stats;
  dma_dropped : int;
  mwait_timeouts : int;
  missed_wakeups : int;
  fallbacks : int;
  recoveries : int;
  watchdog_sweeps : int;
  watchdog_nudges : int;
}

let run_mwait_hardened ?wait_budget ?miss_threshold ?with_watchdog ?horizon (cfg : config) =
  let h = hardening ?wait_budget ?miss_threshold ?with_watchdog () in
  let s, nic =
    run_world ?horizon ~background:cfg.background ~hardening:h Mwait_hardened
      (load_of_config cfg)
  in
  {
    base = s.io;
    dma_dropped = (match nic with Some nic -> Nic.dma_dropped nic | None -> 0);
    mwait_timeouts = h.mwait_timeouts;
    missed_wakeups = h.missed_wakeups;
    fallbacks = h.fallbacks;
    recoveries = h.recoveries;
    watchdog_sweeps = (match h.watchdog with Some wd -> Watchdog.sweeps wd | None -> 0);
    watchdog_nudges = (match h.watchdog with Some wd -> Watchdog.nudges wd | None -> 0);
  }

(* --- timer-tick wakeup latency ------------------------------------------ *)

let timer_wakeup_mwait params ~ticks ~period =
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores:1 in
  let timer = Apic_timer.create sim params (Chip.memory chip) ~period () in
  let latencies = Histogram.create () in
  let sched_thread = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach sched_thread (fun th ->
      Isa.monitor th (Apic_timer.count_addr timer);
      for i = 1 to ticks do
        let _ = Isa.mwait th in
        (* The tick fired at i * period; we are running now. *)
        Histogram.record latencies
          (Sim.now () - (i * period))
      done;
      Apic_timer.stop timer);
  Chip.boot sched_thread;
  Apic_timer.start timer;
  Sim.run sim;
  latencies

let timer_wakeup_interrupt params ~ticks ~period =
  let sim = Sim.create () in
  let sched = Swsched.create sim params ~cores:1 () in
  let irq = Irq.create sim params ~cores:(Swsched.cores sched) in
  let memory = Memory.create () in
  let doorbell = Mailbox.create () in
  let timer =
    Apic_timer.create sim params memory
      ~notify:
        (Notify.Irq_line
           (fun () ->
             Irq.raise_irq irq ~core:0 ~handler:(fun ~exec ->
                 exec params.Params.sched_decision_cycles;
                 Mailbox.send doorbell ())))
      ~period ()
  in
  let latencies = Histogram.create () in
  let kernel_thread = Swsched.thread sched () in
  Sim.spawn sim (fun () ->
      for i = 1 to ticks do
        Mailbox.recv doorbell;
        (* Getting back on CPU requires the context (and its switch). *)
        Swsched.exec kernel_thread 1;
        Histogram.record latencies
          (Sim.now () - (i * period))
      done;
      Apic_timer.stop timer);
  Apic_timer.start timer;
  Sim.run sim;
  latencies
