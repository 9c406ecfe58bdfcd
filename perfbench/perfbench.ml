(* The benchmark program for the switchless simulator.

     perfbench run --workload W --seed N --seconds S --trace 0|1
     perfbench selftest

   [run] prints a report and, as its last line, one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  README.md defines
   every metric and how they interact. *)

module W = Workloads
module Chip = Switchless.Chip
module Memory = Switchless.Memory
module Smt_core = Switchless.Smt_core
module Nic = Sl_dev.Nic
module Fault = Sl_fault.Fault
module Json = Sl_util.Json
module Histogram = Sl_util.Histogram
module Rng = Sl_util.Rng

let median = Kernels.median

let episode_seed workload_seed i =
  let mixed = Int64.mul (Int64.of_int workload_seed) 0x9E3779B97F4A7C15L in
  Rng.next_int64 (Rng.create (Int64.logxor mixed (Int64.of_int i)))

(* --- one episode -------------------------------------------------------- *)

type sample = {
  index : int;
  res : W.result;
  total_ns : int;  (** Host time of the episode: set-up plus timed work. *)
  setup_ns : int;
  build_ns : int;  (** World construction, [Sim.create] to first event. *)
  speed : float;
      (** The machine's speed around the episode: the reference kernel's
          nominal time over its measured time (see [scaled]). *)
  events : int;
  alloc : float;  (** Words allocated during the episode. *)
  booked : (string * int) list;  (** Events per layer span (traced run). *)
  layer : (string * float) list;  (** Chip/NIC/probe counts (traced run). *)
}

let percentiles = function
  | W.Samples h -> (Histogram.quantile h 0.5, Histogram.quantile h 0.99)
  | W.Summary { p50; p99 } -> (p50, p99)

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let layer_counts () =
  let cores chip = List.init (Chip.core_count chip) (Chip.exec_core chip) in
  let chips = !Meter.chips in
  let stat f = sum_by (fun c -> float_of_int (f (Chip.stats c))) chips in
  let work kind =
    sum_by (fun c -> sum_by (fun core -> Smt_core.work_done core kind) (cores c)) chips
  in
  [
    ("chip.wakeups", stat (fun s -> s.Chip.total_wakeups));
    ("chip.wakes.rf", stat (fun s -> s.Chip.rf_wakes));
    ("chip.wakes.l2", stat (fun s -> s.Chip.l2_wakes));
    ("chip.wakes.l3", stat (fun s -> s.Chip.l3_wakes));
    ("chip.wakes.dram", stat (fun s -> s.Chip.dram_wakes));
    ("state_store.demotions", stat (fun s -> s.Chip.demotions));
    ("memory.writes", sum_by (fun c -> float_of_int (Memory.write_count (Chip.memory c))) chips);
    ("smt.useful_cycles", work Smt_core.Useful);
    ("smt.poll_cycles", work Smt_core.Poll);
    ("smt.overhead_cycles", work Smt_core.Overhead);
    ("nic.delivered", sum_by (fun n -> float_of_int (Nic.delivered n)) !Meter.nics);
    ("nic.dropped", sum_by (fun n -> float_of_int (Nic.dropped n)) !Meter.nics);
    ("probe.mwait_parked", float_of_int !Meter.mwait_parked);
    ("probe.mwait_woke", float_of_int !Meter.mwait_woke);
    ("probe.mwait_immediate", float_of_int !Meter.mwait_immediate);
    ("probe.monitor_armed", float_of_int !Meter.monitor_armed);
  ]

let run_episode (w : W.t) ~seed i =
  let episode = w.W.prepare (episode_seed seed i) in
  Meter.reset_episode i;
  let a0 = Meter.alloc_words () in
  let t0 = Meter.now_ns () in
  let res = Meter.span "episode" (fun () -> episode ()) in
  let t1 = Meter.now_ns () in
  let alloc = Meter.alloc_words () -. a0 in
  let worlds = !Meter.worlds in
  let booked =
    if not !Meter.traced then []
    else
      List.fold_left
        (fun acc (wd : Meter.world) ->
          let n = Meter.world_events wd in
          match List.assoc_opt wd.Meter.booked_to acc with
          | Some m -> (wd.Meter.booked_to, m + n) :: List.remove_assoc wd.Meter.booked_to acc
          | None -> (wd.Meter.booked_to, n) :: acc)
        [] worlds
  in
  (* Only the reporting episodes keep their latency samples. *)
  let res =
    if i < W.reporting_episodes then res
    else
      let p50, p99 = percentiles res.W.latency in
      { res with W.latency = W.Summary { p50; p99 } }
  in
  {
    index = i;
    res;
    total_ns = t1 - t0;
    setup_ns = (if w.W.black_box then !Meter.build_ns else !Meter.setup_ns);
    build_ns = !Meter.build_ns;
    speed = 1.0;
    events = List.fold_left (fun acc wd -> acc + Meter.world_events wd) 0 worlds;
    alloc;
    booked;
    layer = (if !Meter.traced then layer_counts () else []);
  }

(* --- a timed phase -------------------------------------------------------- *)

type phase = {
  samples : sample list;  (** In episode order. *)
  minor_gcs : int;
  major_gcs : int;
}

(* Episodes 0, 1, 2, ... until [seconds] have passed and at least
   [min_episodes] have run.  The reference kernel runs before the first
   episode and after each one; an episode's speed is taken from the two
   runs that bracket it.  Collections the kernel triggers are not
   counted. *)
let timed_phase w ~seed ~seconds ~min_episodes =
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let kernel_minor = ref 0 and kernel_major = ref 0 in
  let reference () =
    let g0 = Gc.quick_stat () in
    let ns = Kernels.reference () in
    let g1 = Gc.quick_stat () in
    kernel_minor := !kernel_minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
    kernel_major := !kernel_major + g1.Gc.major_collections - g0.Gc.major_collections;
    ns
  in
  let deadline = Meter.wall_ns () + int_of_float (seconds *. 1e9) in
  let rec loop i before acc =
    if i >= min_episodes && Meter.wall_ns () >= deadline then List.rev acc
    else begin
      let s = run_episode w ~seed i in
      let after = reference () in
      let speed = Kernels.reference_ns /. ((before +. after) /. 2.0) in
      loop (i + 1) after ({ s with speed } :: acc)
    end
  in
  let samples = loop 0 (reference ()) [] in
  let gc1 = Gc.quick_stat () in
  {
    samples;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections - !kernel_minor;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections - !kernel_major;
  }

let reporting p = List.filter (fun s -> s.index < W.reporting_episodes) p.samples
let ops_of samples = List.fold_left (fun acc s -> acc + s.res.W.ops) 0 samples

(* Host time [ns] of an episode, scaled to the reference speed: what it
   would take on a machine where the reference kernel takes
   [Kernels.reference_ns].  README.md, "Host time and the machine's
   speed", says why. *)
let scaled s ns = float_of_int ns *. s.speed

let ops_per_s p =
  let drive = sum_by (fun s -> scaled s (s.total_ns - s.setup_ns)) p.samples in
  float_of_int (ops_of p.samples) /. (Float.max 1.0 drive /. 1e9)

let failed_ops samples =
  List.fold_left (fun acc s -> if s.res.W.failure = None then acc else acc + s.res.W.ops) 0 samples

let sim_digest samples =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun s -> s.res.W.digest) samples)))

(* Episode 0 is run untimed before the timed phase (warm-up) and again
   after it (replay); all three runs must produce the same simulated
   results. *)
let replay_ok ~warm ~replay p =
  match p.samples with
  | first :: _ -> warm.res.W.digest = first.res.W.digest && replay.res.W.digest = first.res.W.digest
  | [] -> false

(* --- report ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; kind : string }

let metric_json m =
  let v = if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "0" in
  Json.obj [ ("value", v); ("unit", Json.quote m.unit_) ]

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-34s %-10s %18.6f %s\n" m.name m.kind m.value m.unit_)
    metrics;
  print_endline
    (Json.obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", Json.obj (List.map (fun m -> (m.name, metric_json m)) metrics));
       ])

let sorted_ms samples =
  let a = Array.of_list (List.map (fun s -> scaled s s.total_ns /. 1e6) samples) in
  Array.sort compare a;
  a

(* Pooled percentiles over the reporting episodes when every one kept its
   samples; otherwise the median over them of each episode's own
   percentiles. *)
let sim_latency rep =
  let hists =
    List.filter_map
      (fun s -> match s.res.W.latency with W.Samples h -> Some h | W.Summary _ -> None)
      rep
  in
  if List.length hists = List.length rep then begin
    let pooled = Histogram.create () in
    List.iter (fun h -> Histogram.merge_into ~dst:pooled h) hists;
    let p50, p99 = percentiles (W.Samples pooled) in
    (float_of_int p50, float_of_int p99)
  end
  else
    let each = List.map (fun s -> percentiles s.res.W.latency) rep in
    ( median (List.map (fun (p50, _) -> float_of_int p50) each),
      median (List.map (fun (_, p99) -> float_of_int p99) each) )

(* The highest percentile with at least 10 episodes beyond it: the 11th
   largest episode time (the largest when there are no more than 10). *)
let tail a =
  let n = Array.length a in
  if n > 10 then (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)
  else (a.(n - 1), 100.0)

let end_to_end p ~failed ~attempted =
  let rep = reporting p in
  let ms = sorted_ms p.samples in
  let tail_ms, tail_pct = tail ms in
  let lat_p50, lat_p99 = sim_latency rep in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.printf "  episode_ms.tail is p%.2f over %d episodes\n" tail_pct (Array.length ms);
  Printf.printf "  reference kernel %.4f ms (median; host times are scaled to %.4f ms)\n"
    (median (List.map (fun s -> Kernels.reference_ns /. s.speed) p.samples) /. 1e6)
    (Kernels.reference_ns /. 1e6);
  Printf.printf "  unscaled episode_ms.p50 %.4f\n"
    (median (List.map (fun s -> float_of_int s.total_ns /. 1e6) p.samples));
  Printf.printf "  failed_frac %.6g (%d of %d ops)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  [
    { name = "ops_per_s"; value = ops_per_s p; unit_ = "1/s"; kind = "host" };
    { name = "episode_ms.p50"; value = median (Array.to_list ms); unit_ = "ms"; kind = "host" };
    { name = "episode_ms.tail"; value = tail_ms; unit_ = "ms"; kind = "host" };
    {
      name = "alloc_words_per_op";
      value = sum_by (fun s -> s.alloc) rep /. float_of_int (ops_of rep);
      unit_ = "words/op";
      kind = "host";
    };
    {
      name = "peak_heap_mb";
      value = float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6;
      unit_ = "MB";
      kind = "host";
    };
    {
      name = "setup_s";
      value = median (List.map (fun s -> scaled s s.setup_ns /. 1e9) p.samples);
      unit_ = "s";
      kind = "host";
    };
    {
      name = "sim_latency_cycles.p50";
      value = lat_p50;
      unit_ = "cycles";
      kind = "simulated";
    };
    {
      name = "sim_latency_cycles.p99";
      value = lat_p99;
      unit_ = "cycles";
      kind = "simulated";
    };
  ]

(* --- per-layer metrics (traced run) --------------------------------------- *)

let count_of name s =
  match List.assoc_opt name s.res.W.counts with
  | Some v -> v
  | None -> Option.value ~default:0.0 (List.assoc_opt name s.layer)

let total name samples = sum_by (count_of name) samples
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Spans are recorded only during the traced phase. *)
let span_ns name =
  List.filter_map
    (fun (sp : Meter.span) ->
      if sp.Meter.name = name then Some (float_of_int (sp.Meter.stop_ns - sp.Meter.start_ns))
      else None)
    !Meter.spans

let booked_events name samples =
  sum_by (fun s -> float_of_int (Option.value ~default:0 (List.assoc_opt name s.booked))) samples

let per_layer ~plain ~traced ~switch_ns ~trigger_ns =
  let rep = reporting traced in
  let plain_rep = reporting plain in
  let ops = float_of_int (ops_of rep) in
  let kops = float_of_int (ops_of plain.samples) /. 1000.0 in
  let events = sum_by (fun s -> float_of_int s.events) rep in
  let plain_events = sum_by (fun s -> float_of_int s.events) plain.samples in
  let m name unit_ value = { name; value; unit_; kind = "layer" } in
  let t n = total n rep in
  let lock kind =
    let k = "lock." ^ Sl_sync.Lock.kind_name kind in
    [
      m (k ^ ".acquires") "count" (t (k ^ ".acquires"));
      m (k ^ ".contended") "count" (t (k ^ ".contended"));
      m (k ^ ".wakes_per_handoff") "wakes/handoff" (ratio (t (k ^ ".wakes")) (t (k ^ ".handoffs")));
      m (k ^ ".host_ns_per_handoff") "ns"
        (ratio (sum_by Fun.id (span_ns k)) (total (k ^ ".handoffs") traced.samples));
    ]
  in
  let io (design, _) =
    let k = "io." ^ design in
    [
      m (k ^ ".run_s") "s" (median (span_ns k) /. 1e9);
      m (k ^ ".events_per_request") "events/req"
        (ratio (booked_events k rep) (t (k ^ ".requests")));
      m (k ^ ".wasted_frac") "frac" (ratio (t (k ^ ".wasted_cycles")) (t (k ^ ".busy_cycles")));
    ]
  in
  let smt = t "smt.useful_cycles" +. t "smt.poll_cycles" +. t "smt.overhead_cycles" in
  [
    m "engine.events_per_op" "events/op" (ratio events ops);
    m "engine.ns_per_event" "ns"
      (ratio (sum_by (fun s -> scaled s (s.total_ns - s.build_ns)) plain.samples) plain_events);
    m "engine.switch_ns" "ns" switch_ns;
    m "engine.alloc_words_per_event" "words/event"
      (ratio (sum_by (fun s -> s.alloc) plain_rep)
         (sum_by (fun s -> float_of_int s.events) plain_rep));
    m "gc.minor_per_kop" "1/kop" (ratio (float_of_int plain.minor_gcs) kops);
    m "gc.major_per_kop" "1/kop" (ratio (float_of_int plain.major_gcs) kops);
    m "monitor.trigger_ns" "ns" trigger_ns;
    m "chip.wakeups_per_op" "wakes/op" (ratio (t "chip.wakeups") ops);
    m "memory.writes_per_op" "writes/op" (ratio (t "memory.writes") ops);
    m "probe.mwait_parked" "count" (t "probe.mwait_parked");
    m "probe.mwait_woke" "count" (t "probe.mwait_woke");
    m "probe.monitor_armed" "count" (t "probe.monitor_armed");
    m "chip.immediate_wake_frac" "frac" (ratio (t "probe.mwait_immediate") (t "probe.mwait_woke"));
    m "chip.wakes.rf" "count" (t "chip.wakes.rf");
    m "chip.wakes.l2" "count" (t "chip.wakes.l2");
    m "chip.wakes.l3" "count" (t "chip.wakes.l3");
    m "chip.wakes.dram" "count" (t "chip.wakes.dram");
    m "state_store.demotions" "count" (t "state_store.demotions");
    m "smt.useful_cycles" "cycles" (t "smt.useful_cycles");
    m "smt.poll_cycles" "cycles" (t "smt.poll_cycles");
    m "smt.overhead_cycles" "cycles" (t "smt.overhead_cycles");
    m "smt.useful_frac" "frac" (ratio (t "smt.useful_cycles") smt);
  ]
  @ List.concat_map lock W.lock_kinds
  @ List.concat_map io W.io_designs
  @ [
      m "nic.delivered" "count" (t "nic.delivered");
      m "nic.dropped" "count" (t "nic.dropped");
      m "pool.run_s" "s" (median (span_ns "pool.run") /. 1e9);
      m "pool.events_per_request" "events/req"
        (ratio (booked_events "pool.run" rep) (t "pool.requests"));
      m "pool.timed_out_frac" "frac" (ratio (t "pool.timed_out") (t "pool.issued"));
      m "trace.overhead_frac" "frac" (ratio (ops_per_s plain) (ops_per_s traced) -. 1.0);
    ]

let write_trace (w : W.t) ~seed metrics =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" dir w.W.name seed in
  let span_json (sp : Meter.span) =
    Json.obj
      [
        ("id", string_of_int sp.Meter.id);
        ("name", Json.quote sp.Meter.name);
        ("start_ns", string_of_int sp.Meter.start_ns);
        ("end_ns", string_of_int sp.Meter.stop_ns);
        ("parent", string_of_int sp.Meter.parent);
        ("episode", string_of_int sp.Meter.episode);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.obj
           [
             ("workload", Json.quote w.W.name);
             ("seed", string_of_int seed);
             ("spans", Json.arr (List.rev_map span_json !Meter.spans));
             ("metrics", Json.obj (List.map (fun m -> (m.name, metric_json m)) metrics));
           ]);
      output_char oc '\n');
  Printf.printf "  trace written to %s (%d spans)\n" path (List.length !Meter.spans)

(* --- run --------------------------------------------------------------------- *)

let run (w : W.t) ~seed ~seconds ~trace =
  Meter.install_sim_hook ();
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" w.W.name seed seconds
    (if trace then 1 else 0);
  let warm = run_episode w ~seed 0 in
  let plain =
    timed_phase w ~seed ~seconds:(if trace then seconds /. 2.0 else seconds)
      ~min_episodes:W.reporting_episodes
  in
  let traced =
    if not trace then None
    else begin
      Meter.install_layer_hooks ();
      let p = timed_phase w ~seed ~seconds:(seconds /. 2.0) ~min_episodes:W.reporting_episodes in
      Meter.traced := false;
      Some p
    end
  in
  let replay = run_episode w ~seed 0 in
  let phases = plain :: Option.to_list traced in
  let replayed = List.for_all (replay_ok ~warm ~replay) phases in
  let samples = List.concat_map (fun p -> p.samples) phases in
  let attempted = ops_of samples in
  let failed =
    failed_ops samples + if replayed then 0 else (List.hd plain.samples).res.W.ops
  in
  List.iter
    (fun s ->
      Option.iter (Printf.printf "  episode %d FAILED: %s\n" s.index) s.res.W.failure)
    samples;
  if not replayed then print_endline "  replay of episode 0 FAILED: simulated results differ";
  Printf.printf "  episodes %d (reporting %d), ops %d\n" (List.length plain.samples)
    W.reporting_episodes (ops_of plain.samples);
  Printf.printf "sim_digest %s %s\n" w.W.name (sim_digest (reporting plain));
  let metrics =
    match traced with
    | None -> end_to_end plain ~failed ~attempted
    | Some tp ->
      let switch_ns = Kernels.switch_ns () in
      let trigger_ns = Kernels.trigger_ns () in
      let ms = per_layer ~plain ~traced:tp ~switch_ns ~trigger_ns in
      write_trace w ~seed ms;
      ms
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

(* --- the benchmark's own tests ---------------------------------------------- *)

let selftest () =
  Meter.install_sim_hook ();
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  List.iter
    (fun (w : W.t) ->
      let a = run_episode w ~seed:7 0 and b = run_episode w ~seed:7 0 in
      check
        (w.W.name ^ ": same seed gives the same simulated results")
        (a.res.W.digest = b.res.W.digest);
      check (w.W.name ^ ": the oracle passes") (a.res.W.failure = None);
      check
        (w.W.name ^ ": a different seed gives different inputs")
        (w.W.inputs_digest (episode_seed 7 0) <> w.W.inputs_digest (episode_seed 8 0)
        && w.W.inputs_digest (episode_seed 7 0) <> w.W.inputs_digest (episode_seed 7 1)))
    W.all;
  let lossy = Fault.create { Fault.none with Fault.seed = 11L; mwait_lost = 0.01 } in
  let p =
    Fault.with_ambient lossy (fun () ->
        timed_phase W.wake_fanout ~seed:7 ~seconds:0.0 ~min_episodes:2)
  in
  check "wake-fanout under mwait.lost: failed_frac > 0" (failed_ops p.samples > 0);
  if !failures > 0 then exit 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref 0 in
  let mode = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "perfbench (run --workload W --seed N --seconds S --trace 0|1 | selftest)" in
  Arg.parse spec (fun m -> mode := m) usage;
  match !mode with
  | "selftest" -> selftest ()
  | "run" -> (
    match W.find !workload with
    | Some w when !seed >= 0 && !seconds > 0.0 && (!trace = 0 || !trace = 1) ->
      run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    | _ ->
      prerr_endline usage;
      exit 2)
  | _ ->
    prerr_endline usage;
    exit 2
