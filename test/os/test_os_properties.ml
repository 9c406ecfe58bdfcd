(* Property tests over the OS layer: channels never deadlock or lose
   requests under random client interleavings; I/O paths conserve
   packets. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Hw_channel = Sl_os.Hw_channel
module Io_path = Sl_os.Io_path
module Histogram = Sl_util.Histogram

(* Property 1: N clients with random think times all complete their calls
   through one shared channel — serialization never deadlocks and the
   server serves exactly the submitted number of requests. *)
let prop_channel_serves_all_clients =
  QCheck.Test.make ~name:"hw channel serves all under random interleavings" ~count:40
    QCheck.(list_of_size Gen.(1 -- 6) (pair (int_range 1 4) (int_range 1 2000)))
    (fun clients ->
      let sim = Sim.create () in
      let chip = Chip.create sim Params.default ~cores:2 in
      let channel = Hw_channel.create chip ~core:1 ~server_ptid:500 () in
      let total = List.fold_left (fun acc (calls, _) -> acc + calls) 0 clients in
      let completed = ref 0 in
      List.iteri
        (fun i (calls, think) ->
          let client =
            Chip.add_thread chip ~core:0 ~ptid:(i + 1) ~mode:Ptid.Supervisor ()
          in
          Chip.attach client (fun th ->
              for _ = 1 to calls do
                Sim.delay think;
                Hw_channel.call channel ~client:th ~work:100 ();
                incr completed
              done);
          Chip.boot client)
        clients;
      Sim.run ~until:50_000_000 sim;
      !completed = total && Hw_channel.served channel = total)

(* Property 2: the mwait I/O path conserves packets at any load: processed
   + dropped = injected, and every latency is at least the hardware
   minimum (DMA + match + restart). *)
let prop_io_conservation =
  QCheck.Test.make ~name:"io path conserves packets at any load" ~count:25
    QCheck.(pair (int_range 1 50) (int_range 50 400))
    (fun (rate_tenths, count) ->
      let cfg =
        {
          Io_path.default_config with
          Io_path.count;
          rate_per_kcycle = float_of_int rate_tenths /. 10.0;
          per_packet_work = 200;
        }
      in
      let s = Io_path.run Io_path.Mwait cfg in
      s.Io_path.processed = count
      && s.Io_path.dropped = 0
      && Histogram.min_value s.Io_path.latencies >= 200)

(* Property 3: work conservation across designs — total useful cycles
   equal packets x work for every design. *)
let prop_designs_do_same_useful_work =
  QCheck.Test.make ~name:"all designs do identical useful work" ~count:15
    QCheck.(int_range 50 300)
    (fun count ->
      let cfg =
        {
          Io_path.default_config with
          Io_path.count;
          rate_per_kcycle = 0.4;
          per_packet_work = 300;
        }
      in
      let expected = float_of_int count *. 300.0 in
      let close s = abs_float (s.Io_path.useful_cycles -. expected) < 2.0 *. float_of_int count in
      close (Io_path.run Io_path.Mwait cfg)
      && close (Io_path.run Io_path.Polling cfg)
      && close (Io_path.run Io_path.Irq_wake cfg)
      && close (Io_path.run Io_path.Irq_napi cfg))

(* Property 4: the fixed-count workload is the open-loop one with Poisson
   arrivals and constant service — a [config] run and the matching
   [load_config] run give the same elapsed time, cycle split and latency
   distribution. *)
let prop_fixed_count_is_poisson_constant =
  QCheck.Test.make ~name:"fixed-count config = Poisson arrivals + constant service"
    ~count:20
    QCheck.(quad (int_range 0 1000) (int_range 1 30) (int_range 20 300) (int_range 100 1000))
    (fun (seed, rate_tenths, count, work) ->
      let rate = float_of_int rate_tenths /. 10.0 in
      let cfg =
        {
          Io_path.default_config with
          Io_path.seed = Int64.of_int seed;
          count;
          rate_per_kcycle = rate;
          per_packet_work = work;
        }
      in
      let load =
        {
          Io_path.default_load_config with
          Io_path.seed = Int64.of_int seed;
          arrivals = Sl_workload.Arrivals.poisson ~rate_per_kcycle:rate;
          service = Sl_util.Dist.Constant (float_of_int work);
          count;
        }
      in
      let same design =
        let a = Io_path.run design cfg in
        let b = (Io_path.run_load design load).Io_path.io in
        let q s p = Histogram.quantile s.Io_path.latencies p in
        a.Io_path.elapsed_cycles = b.Io_path.elapsed_cycles
        && a.Io_path.processed = b.Io_path.processed
        && a.Io_path.useful_cycles = b.Io_path.useful_cycles
        && a.Io_path.poll_cycles = b.Io_path.poll_cycles
        && a.Io_path.overhead_cycles = b.Io_path.overhead_cycles
        && List.for_all (fun p -> q a p = q b p) [ 0.0; 0.5; 0.99; 1.0 ]
      in
      same Io_path.Mwait && same Io_path.Polling)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_channel_serves_all_clients;
        prop_io_conservation;
        prop_designs_do_same_useful_work;
        prop_fixed_count_is_poisson_constant;
      ]
  in
  Alcotest.run "os_properties" [ ("properties", qsuite) ]
