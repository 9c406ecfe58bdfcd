(* Runtime allocation budgets for the simulator's suspend/resume hot
   paths.  The static [zero-alloc] rule (switchless-sim check) sees only
   syntactic allocation in annotated bodies: it cannot see what an
   effect, a captured continuation or a boxed float costs.  These tests
   measure [Gc.minor_words] over steady-state loops instead and pin the
   words per iteration; a change that makes a cycle allocate more fails
   here.  Lower a budget when an optimisation lands; never raise one to
   make a test pass without saying why in the change. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory
module Ptid = Switchless.Ptid
module Smt_core = Switchless.Smt_core

(* Pinned budgets, in minor-heap words per iteration (64-bit native).
   What each one pays for is spelled out at its test. *)
let budget_delay = 5.0
let budget_await_pingpong = 21.0
let budget_mwait_cycle = 8.0
let budget_lockstep_round = 8.0

let iterations = 20_000
let warmup = 2_000

(* Words allocated by [Sim.run ~until] over the measured window, per
   completed iteration. *)
let measure sim ~count ~until_warm ~until =
  Sim.run ~until:until_warm sim;
  let n0 = !count in
  let w0 = Gc.minor_words () in
  Sim.run ~until sim;
  let w1 = Gc.minor_words () in
  let n = !count - n0 in
  if n < iterations / 2 then Alcotest.failf "only %d iterations measured" n;
  (w1 -. w0) /. float_of_int n

let check_budget name budget words =
  Printf.printf "%s: %.2f words/iteration (budget %.1f)\n" name words budget;
  if words > budget +. 0.01 then
    Alcotest.failf "%s: %.2f words/iteration, budget %.1f" name words budget

(* [Sim.delay]: the [Delay_eff] block (3 words: an extensible-variant
   constructor carries its identity) and the continuation (2).  The wake
   is the process's preallocated [run_k]. *)
let test_delay_loop () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      while true do
        Sim.delay 10;
        incr count
      done);
  let words =
    measure sim ~count ~until_warm:(10 * warmup) ~until:(10 * (warmup + iterations))
  in
  check_budget "Sim.delay loop" budget_delay words

(* Two processes hand control back and forth through [Sim.await].  Per
   handoff, [Sim.await] itself costs 14 words: two continuations (the
   world lookup and the park, 2 each), the value cell and its [Some v]
   (2 each) and the resume closure (6).  The test's own [register]
   closure (5) and the [Some resume] it stores (2) make up the rest. *)
let test_await_pingpong () =
  let sim = Sim.create () in
  let count = ref 0 in
  let waiting = [| None; None |] in
  let player me =
    let other = 1 - me in
    while true do
      (match waiting.(other) with
      | Some resume ->
        waiting.(other) <- None;
        resume ()
      | None -> ());
      Sim.await (fun resume -> waiting.(me) <- Some resume);
      incr count;
      Sim.delay 1
    done
  in
  Sim.spawn sim (fun () -> player 0);
  Sim.spawn sim (fun () -> player 1);
  let words =
    measure sim ~count ~until_warm:warmup ~until:(warmup + iterations)
  in
  (* Each handoff also carries the [Sim.delay 1] that spaces it out. *)
  check_budget "Sim.await ping-pong" (budget_await_pingpong +. budget_delay) words

(* One hardware thread loops monitor -> mwait -> exec while a callback
   rings its doorbell every 200 cycles.  Per cycle, exactly the four
   continuations its suspensions capture, 2 words each: the SMT-core
   parks of monitor, mwait-arm and exec, and the wake-cell park.  The
   park, the wake, the completion event, the SMT accounting and the
   doorbell callback allocate nothing. *)
let test_mwait_cycle () =
  let sim = Sim.create () in
  let chip = Chip.create sim Params.default ~cores:1 in
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let count = ref 0 in
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach th (fun th ->
      while true do
        Isa.monitor th addr;
        ignore (Isa.mwait th : Memory.addr);
        Isa.exec th 10;
        incr count
      done);
  Chip.boot th;
  let rec ring () =
    Memory.write mem addr 1L;
    Sim.schedule sim ~at:(Sim.time sim + 200) ring
  in
  Sim.schedule sim ~at:200 ring;
  let words =
    measure sim ~count ~until_warm:(200 * warmup) ~until:(200 * (warmup + iterations))
  in
  check_budget "mwait -> wake -> exec cycle" budget_mwait_cycle words

(* Four threads on a four-wide core execute 10 cycles at a time in
   lockstep, so every round ends with four jobs finishing in the same
   instant: the multi-finish path of [Smt_core.advance], which sorts the
   finished jobs into their legacy resume order.  Per round, only the
   four [execute] parks' continuations, 2 words each; the sort works in
   preallocated scratch. *)
let test_lockstep_round () =
  let sim = Sim.create () in
  let params = { Params.default with Params.smt_width = 4 } in
  let core = Smt_core.create sim params ~core_id:0 in
  let count = ref 0 in
  for ptid = 1 to 4 do
    Sim.spawn sim (fun () ->
        Smt_core.set_runnable core ~ptid ~weight:1.0 true;
        while true do
          Smt_core.execute core ~ptid ~kind:Smt_core.Useful 10;
          if ptid = 1 then incr count
        done)
  done;
  let words =
    measure sim ~count ~until_warm:(10 * warmup) ~until:(10 * (warmup + iterations))
  in
  check_budget "lockstep execute round" budget_lockstep_round words

let () =
  Alcotest.run "alloc_budget"
    [
      ( "alloc budget",
        [
          Alcotest.test_case "Sim.delay loop" `Quick test_delay_loop;
          Alcotest.test_case "Sim.await ping-pong" `Quick test_await_pingpong;
          Alcotest.test_case "mwait wake exec cycle" `Quick test_mwait_cycle;
          Alcotest.test_case "lockstep execute round" `Quick test_lockstep_round;
        ] );
    ]
