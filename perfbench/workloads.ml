(* The four seeded workloads.  Each is a sequence of independent
   episodes; an episode generates its inputs from its own seed, builds
   one or more simulation worlds through the public library APIs, drives
   them, and checks the simulated outcome against an oracle.  Why each
   workload exists is stated in README.md and BENCHMARK.json. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module State_store = Switchless.State_store
module Lock = Sl_sync.Lock
module Atomics = Sl_sync.Atomics
module Io_path = Sl_os.Io_path
module Server = Sl_dist.Server
module Arrivals = Sl_workload.Arrivals
module Histogram = Sl_util.Histogram
module Rng = Sl_util.Rng
module Dist = Sl_util.Dist

(* Simulated latency of an episode's ops, in cycles: every sample when
   the workload sees them, else the percentiles its runner reports. *)
type latency = Samples of Histogram.t | Summary of { p50 : int; p99 : int }

type result = {
  ops : int;  (** Operations the episode attempted (the workload's op). *)
  failure : string option;  (** The first oracle violated, if any. *)
  latency : latency;
  digest : string;  (** Rendering of every simulated result checked for replay. *)
  counts : (string * float) list;  (** Per-layer counts read through accessors. *)
}

type t = {
  name : string;
  black_box : bool;
      (** The runner builds its own worlds; set-up is then timed from
          [Sim.create] to the world's first event. *)
  prepare : int64 -> unit -> result;
      (** [prepare seed] generates the episode's inputs (untimed); the
          returned closure builds and runs the worlds. *)
  inputs_digest : int64 -> string;
}

(* Episodes, from the first, whose simulated results, allocation and
   counts are reported: a fixed set, so those numbers repeat for a seed
   whatever the host speed (allocation to within 0.1%, since promotion
   depends on where minor collections fall). *)
let reporting_episodes = 48

let make ~name ~black_box gen run =
  {
    name;
    black_box;
    prepare =
      (fun seed ->
        let inputs = gen (Rng.create seed) in
        fun () -> run inputs);
    inputs_digest =
      (fun seed -> Digest.to_hex (Digest.string (Marshal.to_string (gen (Rng.create seed)) [])));
  }

let first_failure checks =
  List.find_map (fun (ok, what) -> if ok then None else Some what) checks

(* One episode result from those of its worlds, each with its samples. *)
let combine results =
  let lat = Histogram.create () in
  List.iter
    (fun r -> match r.latency with Samples h -> Histogram.merge_into ~dst:lat h | Summary _ -> ())
    results;
  {
    ops = List.fold_left (fun acc r -> acc + r.ops) 0 results;
    failure = List.find_map (fun r -> r.failure) results;
    latency = Samples lat;
    digest = String.concat "\n" (List.map (fun r -> r.digest) results);
    counts = List.concat_map (fun r -> r.counts) results;
  }

let hist_digest h =
  Printf.sprintf "n=%d,mean=%h,p50=%d,p99=%d,p999=%d,max=%d" (Histogram.count h)
    (Histogram.mean h) (Histogram.quantile h 0.5) (Histogram.quantile h 0.99)
    (Histogram.quantile h 0.999) (Histogram.max_value h)

(* --- wake-fanout ------------------------------------------------------- *)

(* About 2000 hardware threads on 4 cores, each parked on its own
   doorbell.  Half of the contexts carry vector state, and the L3 slice
   is shrunk so that 512 contexts per core spill past the register file
   through L2 and L3 into DRAM: wakes exercise every state-store tier. *)
let fanout_threads = 2048
let fanout_cores = 4
let fanout_rounds = 8
let fanout_params = { Params.default with Params.l3_state_capacity_bytes = 64 * 1024 }

type fanout_inputs = {
  vector : bool array;
  work : int array array;  (** [work.(r).(i)]: thread [i]'s cycles after wake [r]. *)
  order : int array;  (** Doorbell targets, [fanout_rounds] passes over all threads. *)
  gaps : int array;  (** Cycles before each write. *)
}

(* Each pass shuffles the threads within the halves of the previous
   pass, so a thread's wake comes between half a pass and a pass and a
   half after its previous one: the recency of the woken context varies
   (and with it its tier) while no doorbell is ever rung twice before
   its thread has parked again. *)
let fanout_gen rng =
  let n = fanout_threads in
  let order = Array.make (fanout_rounds * n) 0 in
  let pass = Array.init n Fun.id in
  Rng.shuffle rng pass;
  for r = 0 to fanout_rounds - 1 do
    if r > 0 then begin
      let lo = Array.sub pass 0 (n / 2) and hi = Array.sub pass (n / 2) (n - (n / 2)) in
      Rng.shuffle rng lo;
      Rng.shuffle rng hi;
      Array.blit lo 0 pass 0 (n / 2);
      Array.blit hi 0 pass (n / 2) (n - (n / 2))
    end;
    Array.blit pass 0 order (r * n) n
  done;
  {
    vector = Array.init n (fun _ -> Rng.bool rng);
    work = Array.init fanout_rounds (fun _ -> Array.init n (fun _ -> 40 + Rng.int rng 360));
    order;
    gaps = Array.init (fanout_rounds * n) (fun _ -> 20 + Rng.int rng 80);
  }

let fanout_run inp =
  let n = fanout_threads in
  let writes = Array.length inp.order in
  let lat = Histogram.create () in
  let written_at = Array.make n 0 in
  let woke = Array.make n 0 in
  let sim, chip, bells, threads =
    Meter.setup (fun () ->
        let sim = Sim.create () in
        let chip = Chip.create sim fanout_params ~cores:fanout_cores in
        let memory = Chip.memory chip in
        let bells = Array.init n (fun _ -> Memory.alloc memory 1) in
        let threads =
          Array.init n (fun i ->
              let th =
                Chip.add_thread chip ~core:(i mod fanout_cores) ~ptid:(i + 1) ~mode:Ptid.User
                  ~vector:inp.vector.(i) ()
              in
              Chip.attach th (fun t ->
                  Isa.monitor t bells.(i);
                  for r = 0 to fanout_rounds - 1 do
                    ignore (Isa.mwait t);
                    woke.(i) <- woke.(i) + 1;
                    Histogram.record lat (Sim.now () - written_at.(i));
                    Isa.exec t inp.work.(r).(i)
                  done);
              Chip.boot th;
              th)
        in
        (* Boot until every thread has armed its doorbell and parked:
           the queue drains exactly then. *)
        Sim.run sim;
        (sim, chip, bells, threads))
  in
  let memory = Chip.memory chip in
  let next = ref 0 in
  let rec ring () =
    let i = inp.order.(!next) in
    written_at.(i) <- Sim.time sim;
    Memory.write memory bells.(i) 1L;
    incr next;
    if !next < writes then Sim.schedule sim ~at:(Sim.time sim + inp.gaps.(!next)) ring
  in
  Sim.schedule sim ~at:(Sim.time sim + inp.gaps.(0)) ring;
  Sim.run sim;
  let stores = List.init fanout_cores (Chip.state_store chip) in
  let failure =
    first_failure
      [
        ( Array.for_all (fun w -> w = fanout_rounds) woke
          && Array.for_all (fun th -> Chip.wakeup_count th = fanout_rounds) threads,
          "wakes per thread differ from the writes aimed at it" );
        (Sim.suspects sim = [], "a thread is blocked at the end of the episode");
        (Chip.halted chip = None, "the chip halted");
        (List.for_all (fun s -> State_store.check s = []) stores, "State_store.check failed");
      ]
  in
  let st = Chip.stats chip in
  {
    ops = writes;
    failure;
    latency = Samples lat;
    digest =
      Printf.sprintf "%s|t=%d|wakes=%d|rf=%d|l2=%d|l3=%d|dram=%d|dem=%d" (hist_digest lat)
        (Sim.time sim) st.Chip.total_wakeups st.Chip.rf_wakes st.Chip.l2_wakes st.Chip.l3_wakes
        st.Chip.dram_wakes st.Chip.demotions;
    counts = [];
  }

let wake_fanout =
  make ~name:"wake-fanout" ~black_box:false fanout_gen fanout_run

(* --- lock-contend ------------------------------------------------------ *)

let lock_kinds = [ Lock.Mcs_mwait; Lock.Park_mwait ]
let lock_cores = 2
let lock_contenders = 32
let lock_iterations = 48

(* [cs.(i).(j)]: contender [i]'s [j]th critical section, in cycles. *)
let lock_gen rng =
  Array.init lock_contenders (fun _ -> Array.init lock_iterations (fun _ -> 30 + Rng.int rng 170))

(* One world: contenders park on a start doorbell (set-up ends when all
   have), then a callback rings it and each runs [lock_iterations]
   acquire / read-modify-write of a shared counter / release cycles. *)
let lock_world cs kind =
  let name = "lock." ^ Lock.kind_name kind in
  Meter.span name (fun () ->
      let total = lock_contenders * lock_iterations in
      let sim, chip, lock, counter, go =
        Meter.setup (fun () ->
            let sim = Sim.create () in
            let chip = Chip.create sim Params.default ~cores:lock_cores in
            let lock = Lock.create chip kind in
            let memory = Chip.memory chip in
            let counter = Memory.alloc memory 1 in
            let go = Memory.alloc memory 1 in
            for i = 0 to lock_contenders - 1 do
              let th =
                Chip.add_thread chip ~core:(i mod lock_cores) ~ptid:(i + 1) ~mode:Ptid.User ()
              in
              Chip.attach th (fun t ->
                  Isa.monitor t go;
                  ignore (Isa.mwait t);
                  for j = 0 to lock_iterations - 1 do
                    Lock.acquire lock t;
                    let v = Atomics.read ~kind:Switchless.Smt_core.Useful chip t counter in
                    Isa.exec t cs.(i).(j);
                    Atomics.write chip t counter (Int64.succ v);
                    Lock.release lock t
                  done);
              Chip.boot th
            done;
            Sim.run sim;
            (sim, chip, lock, counter, go))
      in
      Sim.schedule sim ~at:(Sim.time sim) (fun () -> Memory.write (Chip.memory chip) go 1L);
      Sim.run sim;
      let st = Lock.stats lock in
      {
        ops = total;
        failure =
          first_failure
            [
              (Int64.to_int (Atomics.peek chip counter) = total, name ^ ": counter lost an update");
              (st.Lock.acquires = total, name ^ ": acquires differ from contenders x iterations");
              (Sim.suspects sim = [], name ^ ": a contender is blocked at the end");
              (Chip.halted chip = None, name ^ ": the chip halted");
            ];
        latency = Samples st.Lock.handoff;
        digest =
          Printf.sprintf "%s|t=%d|%s|acq=%d|cont=%d|parks=%d|wakes=%d|fifo=%h" name (Sim.time sim)
            (hist_digest st.Lock.handoff) st.Lock.acquires st.Lock.contended st.Lock.parks
            st.Lock.wakes st.Lock.fifo_distance_mean;
        counts =
          [
            (name ^ ".acquires", float_of_int st.Lock.acquires);
            (name ^ ".contended", float_of_int st.Lock.contended);
            (name ^ ".wakes", float_of_int st.Lock.wakes);
            (name ^ ".handoffs", float_of_int (Histogram.count st.Lock.handoff));
          ];
      })

let lock_run cs = combine (List.map (lock_world cs) lock_kinds)

let lock_contend = make ~name:"lock-contend" ~black_box:false lock_gen lock_run

(* --- io-openloop ------------------------------------------------------- *)

let io_designs =
  [
    ("mwait", Io_path.run_load_mwait);
    ("polling", fun cfg -> Io_path.run_load_polling cfg);
    ("irq", Io_path.run_load_interrupt);
    ("flexsc", fun cfg -> Io_path.run_load_flexsc cfg);
  ]

let io_requests = 3000

(* Bursty arrivals averaging 56% of one serving pipeline, 78% in the
   high phase of a burst, with lognormal service (mean 2040 cycles,
   CV^2 0.9, a heavy tail): the high phase runs the IRQ design's
   delivery path 87% busy.  Short burst phases (5000 cycles on average)
   keep the pooled p99 steady from seed to seed. *)
let io_gen rng =
  {
    Io_path.default_load_config with
    Io_path.seed = Rng.next_int64 rng;
    arrivals = Arrivals.bursty ~rate_per_kcycle:0.28 ~amplitude:0.4 ~mean_dwell:5_000.0;
    service = Dist.Lognormal { mu = 7.3; sigma = 0.8 };
    count = io_requests;
  }

let io_design cfg (design, run) =
  let name = "io." ^ design in
  let io = (Meter.span name (fun () -> run cfg)).Io_path.io in
  let count = cfg.Io_path.count in
  {
    ops = count;
    failure =
      (if io.Io_path.processed + io.Io_path.dropped = count then None
       else Some (name ^ ": processed + dropped differs from the request count"));
    latency = Samples io.Io_path.latencies;
    digest =
      Printf.sprintf "%s|t=%d|%s|done=%d|drop=%d|u=%h|p=%h|o=%h" name io.Io_path.elapsed_cycles
        (hist_digest io.Io_path.latencies) io.Io_path.processed io.Io_path.dropped
        io.Io_path.useful_cycles io.Io_path.poll_cycles io.Io_path.overhead_cycles;
    counts =
      [
        (name ^ ".requests", float_of_int count);
        (name ^ ".wasted_cycles", io.Io_path.poll_cycles +. io.Io_path.overhead_cycles);
        ( name ^ ".busy_cycles",
          io.Io_path.useful_cycles +. io.Io_path.poll_cycles +. io.Io_path.overhead_cycles );
      ];
  }

let io_run cfg = combine (List.map (io_design cfg) io_designs)

let io_openloop = make ~name:"io-openloop" ~black_box:true io_gen io_run

(* --- pool-closedloop --------------------------------------------------- *)

let pool_cores = 2
let pool_per_core = 16
let pool_requests = 12000

type pool_inputs = {
  cfg : Server.config;
  clients : int;
  think : Dist.t;
  timeout : int;
}

(* More clients than pool workers, so requests queue for a worker; the
   client timeout (4M-67M cycles) parks one far-future timer per request
   in the timing wheel's outer levels or its overflow heap. *)
let pool_gen rng =
  let capacity = pool_cores * pool_per_core in
  {
    cfg =
      {
        Server.params = Params.default;
        seed = Rng.next_int64 rng;
        cores = pool_cores;
        rate_per_kcycle = 0.0;
        service = Dist.Exponential 3000.0;
        count = pool_requests;
      };
    clients = capacity + 16;
    think = Dist.Exponential 1000.0;
    timeout = (1 lsl 22) + Rng.int rng ((1 lsl 26) - (1 lsl 22));
  }

let pool_run inp =
  let s =
    Meter.span "pool.run" (fun () ->
        Server.run_hw_pool_closed ~pool_per_core ~timeout:inp.timeout ~slo:30_000
          ~clients:inp.clients ~think:inp.think inp.cfg)
  in
  let lat = s.Server.lat in
  {
    ops = inp.cfg.Server.count;
    failure =
      first_failure
        [
          ( s.Server.issued = s.Server.finished + s.Server.c_timed_out,
            "issued differs from finished + timed out" );
          (s.Server.issued = inp.cfg.Server.count, "issued differs from the request count");
        ];
    latency = Summary { p50 = lat.Sl_workload.Latency.p50; p99 = lat.Sl_workload.Latency.p99 };
    digest =
      Printf.sprintf "t=%d|issued=%d|done=%d|timeout=%d|n=%d|mean=%h|p50=%d|p99=%d|p999=%d|max=%d"
        s.Server.wall_cycles s.Server.issued s.Server.finished s.Server.c_timed_out
        lat.Sl_workload.Latency.count lat.Sl_workload.Latency.mean lat.Sl_workload.Latency.p50
        lat.Sl_workload.Latency.p99 lat.Sl_workload.Latency.p999 lat.Sl_workload.Latency.max_v;
    counts =
      [
        ("pool.requests", float_of_int inp.cfg.Server.count);
        ("pool.issued", float_of_int s.Server.issued);
        ("pool.timed_out", float_of_int s.Server.c_timed_out);
      ];
  }

let pool_closedloop =
  make ~name:"pool-closedloop" ~black_box:true pool_gen pool_run

let all = [ wake_fanout; lock_contend; io_openloop; pool_closedloop ]
let find name = List.find_opt (fun w -> w.name = name) all
