(* Floor kernels: the smallest loops that isolate one simulator cost,
   timed over many repetitions, median of several rounds. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* engine.switch_ns: two processes hand control to each other through
   [Sim.await] — the ping-pong of a user-level ctx_swap stopwatch.  Each
   handoff is one suspension, one resume and one event: the simulator's
   own context switch, which every simulated wake pays. *)
let handoffs = 200_000

let switch_round () =
  let sim = Sim.create () in
  let waiting = [| None; None |] in
  let resumed = ref 0 in
  let player me =
    let other = 1 - me in
    for _ = 1 to handoffs / 2 do
      (match waiting.(other) with
      | Some resume ->
        waiting.(other) <- None;
        incr resumed;
        resume ()
      | None -> ());
      Sim.await (fun resume -> waiting.(me) <- Some resume)
    done;
    match waiting.(other) with
    | Some resume ->
      waiting.(other) <- None;
      incr resumed;
      resume ()
    | None -> ()
  in
  Sim.spawn sim (fun () -> player 0);
  Sim.spawn sim (fun () -> player 1);
  let t0 = Meter.now_ns () in
  Sim.run sim;
  float_of_int (Meter.now_ns () - t0) /. float_of_int (max 1 !resumed)

let switch_ns () = median (List.init 7 (fun _ -> switch_round ()))

(* monitor.trigger_ns: a [Sim.schedule] callback writes, with raw [Memory.write],
   every doorbell of 512 threads parked in mwait on 4 cores; the write
   returns after the monitor match has scheduled the wake, so the timed
   loop covers match and wake scheduling and no simulated time passes
   inside it.  The wakes then run untimed and the threads park again. *)
let trigger_ns () =
  let threads = 512 and batches = 41 in
  let sim = Sim.create () in
  let chip = Chip.create sim Params.default ~cores:4 in
  let memory = Chip.memory chip in
  let bells = Array.init threads (fun _ -> Memory.alloc memory 1) in
  for i = 0 to threads - 1 do
    let th = Chip.add_thread chip ~core:(i mod 4) ~ptid:(i + 1) ~mode:Ptid.User () in
    Chip.attach th (fun t ->
        Sim.set_daemon true;
        Isa.monitor t bells.(i);
        while true do
          ignore (Isa.mwait t)
        done);
    Chip.boot th
  done;
  Sim.run sim;
  let per_write = ref [] in
  for _ = 1 to batches do
    Sim.schedule sim ~at:(Sim.time sim + 1) (fun () ->
        let t0 = Meter.now_ns () in
        Array.iter (fun bell -> Memory.write memory bell 1L) bells;
        per_write := (float_of_int (Meter.now_ns () - t0) /. float_of_int threads) :: !per_write);
    Sim.run sim
  done;
  median !per_write

(* The reference kernel: a fixed piece of work that uses only the OCaml
   standard library, so no change to the simulator can change it.  Its
   time measures how fast this machine is running at the moment;
   perfbench runs it between episodes and scales the episodes' host times
   by it (see [Perfbench.scaled] and README.md, "Host time and the
   machine's speed").  It mixes short-lived allocation, formatting and
   hash-table probes, whose times followed the simulator's through the
   machine's fast and slow phases.  Each round starts on an empty minor
   heap and allocates less than one, so the kernel is never charged for a
   collection, and the simulator's garbage cannot slow it. *)

let probe_table = Hashtbl.create 2048

let () =
  for k = 0 to 2047 do
    Hashtbl.replace probe_table k k
  done

let lists r =
  let l = List.init 100 (fun i -> (i, r)) in
  List.fold_left (fun acc (x, y) -> acc + x + y) 0 (List.rev l)

let formatting buf i =
  Buffer.clear buf;
  Printf.bprintf buf "%d:%s:%x;%5d" i "abc" (i * 31) (i land 1023);
  Buffer.length buf + Char.code (Buffer.nth buf 2)

let probes seed =
  let x = ref seed and acc = ref 0 in
  for _ = 1 to 10_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 2047 in
    acc := !acc + Hashtbl.find probe_table k;
    Hashtbl.replace probe_table k (!x land 0xffff)
  done;
  !acc

let reference_rounds = 4
let sink = ref 0

let reference_round buf round =
  let acc = ref 0 in
  for r = 1 to 100 do
    acc := !acc + lists r
  done;
  for i = 1 to 1000 do
    acc := !acc + formatting buf i
  done;
  sink := !sink + !acc + probes round

(* Host ns of one run of the reference kernel.  An untimed first round
   brings its code and table back into the caches after an episode, so
   the time does not depend on how much of them the episode evicted. *)
let reference () =
  let buf = Buffer.create 64 in
  let ns = ref 0 in
  for round = 0 to reference_rounds do
    Gc.minor ();
    let t0 = Meter.now_ns () in
    reference_round buf round;
    if round > 0 then ns := !ns + (Meter.now_ns () - t0)
  done;
  float_of_int !ns

(* The reference kernel's time at the speed the scaled host times are
   given in: about its time on the machine the benchmark was built on,
   in that machine's fast phase. *)
let reference_ns = 4.0e6

