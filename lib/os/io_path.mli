(** I/O event delivery: wake design × workload (§2 "No More Interrupts" /
    "Fast I/O without Inefficient Polling").

    Every run builds one world — one core, a NIC, an open-loop packet
    stream, an optional best-effort background job — and differs only in
    the {!design} that serves the stream:

    {v
    design          serving thread            woken by
    --------------  ------------------------  ---------------------------------
    Mwait           hw thread, mwait on tail  the RX tail DMA write (the paper)
    Mwait_hardened  same, deadline waits      tail write; timeouts, polling
                                              fallback, optional watchdog
    Mwait_rss q     one hw thread per queue   its queue's tail write (§4 RSS)
    Polling         hw thread spinning        nothing: burns Poll cycles
    Irq_wake        sw thread (scheduler)     IRQ handler rings it; it drains
    Irq_napi        sw thread (scheduler)     one IRQ, masked until queue dry
    Irq_deliver     sw thread (scheduler)     each IRQ hands it one packet
    Flexsc          kernel worker, batching   first posted entry + batch window
    v}

    and the {e workload} it serves: {!config} (Poisson arrivals, constant
    per-packet work, optional background job) through {!run}, or
    {!load_config} (any arrival process, sampled service demand, an SLO)
    through {!run_load}.  The fixed-count shape is the open-loop one with
    [Arrivals.poisson] and [Dist.Constant]: same RNG stream, same run.

    Each run reports per-packet latency (arrival at the device →
    processing complete) plus a cycle-accounting breakdown; the background
    job shows whether the design lets other work proceed (the paper's
    co-location argument). *)

type stats = {
  processed : int;
  dropped : int;
  latencies : Sl_util.Histogram.t;
  elapsed_cycles : Sl_engine.Sim.Time.t;
  useful_cycles : float;  (** Packet + background work. *)
  poll_cycles : float;  (** Pure spinning waste. *)
  overhead_cycles : float;  (** Mode switches, IRQ paths, wake costs. *)
  background_cycles : float;  (** Portion of useful done by the batch job. *)
}

val wasted_fraction : stats -> float
(** (poll + overhead) / (useful + poll + overhead). *)

type design =
  | Mwait
      (** A hardware thread monitors the RX tail and sleeps in [mwait];
          the tail DMA write wakes it. *)
  | Mwait_hardened
      (** {!Mwait} with default hardening; see {!run_mwait_hardened}. *)
  | Mwait_rss of int
      (** Multi-queue (§4's smartNIC steering): the NIC spreads packets
          over this many RX queues by flow hash and one hardware thread
          parks on each queue's tail — per-flow service parallelism with
          no software dispatcher.  The count must be positive. *)
  | Polling
      (** A thread spins on the RX queue, burning 20 [Poll] cycles per
          empty check (the kernel-bypass status quo). *)
  | Irq_wake
      (** The NIC raises a legacy IRQ; the handler runs the scheduler to
          wake the blocked software thread, which drains the queue (the
          kernel status quo). *)
  | Irq_napi
      (** Linux-NAPI-style coalescing: the first packet raises an IRQ,
          which masks further interrupts; the thread drains the queue and
          re-enables interrupts only when it runs dry.  The fairest
          conventional baseline at high load. *)
  | Irq_deliver
      (** A packet is invisible to the blocked thread until its hardirq
          has run: the handler pulls the descriptor, runs the scheduler
          and publishes the packet to the thread's backlog.  One IRQ per
          packet, serialized on the IRQ context, so the delivery path
          itself caps throughput and the knee arrives earlier than under
          {!Irq_wake}, whose thread drains everything pending per wake. *)
  | Flexsc
      (** FlexSC-style exception-less serving: requests are posted to a
          shared page and a kernel worker wakes per batch, runs the
          accumulated requests back-to-back after a 500-cycle batch
          window — no per-request notification, so its mechanism tax is
          pure delay.  No NIC: [dropped] is 0.  Runs no background job:
          [run] raises [Invalid_argument] when [background] is set. *)

type config = {
  params : Switchless.Params.t;
  seed : int64;
  rate_per_kcycle : float;  (** Packet arrival rate (per 1000 cycles). *)
  per_packet_work : Sl_engine.Sim.Time.t;
  count : int;
  background : bool;  (** Run a best-effort batch job alongside. *)
}

val default_config : config

val run : design -> config -> stats
(** [run design cfg] serves [cfg.count] packets with [cfg.per_packet_work]
    cycles each, arriving as a Poisson stream. *)

(** {2 Load sweeps: per-request service demand + SLO accounting (E16)}

    The same designs with each request's service demand drawn from a
    distribution (the Shinjuku/Shenango heavy-tail methodology) and
    SLO-aware latency summaries, so an offered-load sweep can locate each
    design's saturation knee.  No background job. *)

type load_config = {
  params : Switchless.Params.t;
  seed : int64;
  arrivals : Sl_workload.Arrivals.t;  (** Arrival process (Poisson, MMPP, …). *)
  service : Sl_util.Dist.t;  (** Per-request service demand (cycles). *)
  count : int;
  slo : int;  (** Latency SLO in cycles for goodput/miss accounting. *)
}

type load_stats = {
  lat : Sl_workload.Latency.summary;
      (** Sojourn quantiles + SLO misses + goodput. *)
  io : stats;  (** The usual cycle-accounting breakdown. *)
}

val default_load_config : load_config
(** Poisson at 0.25/kcycle, exponential 2000-cycle service (offered load
    0.5 of a single serving pipe), 10 µs SLO (30 000 cycles @ 3 GHz). *)

val run_load : design -> load_config -> load_stats

(** The four designs E16 and perfbench's io-openloop workload compare. *)

val run_load_mwait : load_config -> load_stats
(** [run_load Mwait]. *)

val run_load_polling : load_config -> load_stats
(** [run_load Polling]. *)

val run_load_interrupt : load_config -> load_stats
(** [run_load Irq_deliver]. *)

val run_load_flexsc : load_config -> load_stats
(** [run_load Flexsc]. *)

(** {2 Failure-hardened delivery} *)

type hardened_stats = {
  base : stats;
  dma_dropped : int;  (** Packets lost to injected descriptor-DMA drops. *)
  mwait_timeouts : int;  (** mwait deadline expiries (incl. pure idleness). *)
  missed_wakeups : int;  (** Expiries that found data already pending. *)
  fallbacks : int;  (** mwait → polling degradations. *)
  recoveries : int;  (** polling → mwait restorations. *)
  watchdog_sweeps : int;
  watchdog_nudges : int;
}

val run_mwait_hardened :
  ?wait_budget:Sl_engine.Sim.Time.t -> ?miss_threshold:int -> ?with_watchdog:bool ->
  ?horizon:Sl_engine.Sim.Time.t -> config -> hardened_stats
(** [run Mwait_hardened] with its knobs and counters.  The network
    thread waits with {!Switchless.Isa.mwait_for} ([wait_budget] cycles,
    default 20_000); a timeout that finds data pending is a missed
    wakeup, and after [miss_threshold] (default 3) consecutive misses the
    thread degrades to polling — 20 cycles per empty check, like
    {!Polling} — until 64 consecutive empty checks suggest the storm has
    passed and it returns to mwait.  Packets lost to injected
    descriptor-DMA or ring-full drops are counted towards completion, so
    the run terminates even when requests vanish.  Progress survives
    crash-stops: a cold-restarted network thread re-arms its monitor and
    resumes from the shared processed count.  [with_watchdog] (default
    false) additionally runs a {!Watchdog} thread on the same core.
    [horizon], when given, bounds the simulated time
    ([Sl_engine.Sim.run ~until]) so a run wedged by an injected fault
    schedule returns — with the shortfall visible in its counts — instead
    of spinning forever; the explorer's no-stuck-sim oracle depends on
    it. *)

(** {2 Timer-tick wakeups (the "no more interrupts" microbench)} *)

val timer_wakeup_mwait : Switchless.Params.t -> ticks:int -> period:Sl_engine.Sim.Time.t -> Sl_util.Histogram.t
(** A kernel thread mwaits on the APIC tick counter; returns the
    distribution of tick-to-running latency. *)

val timer_wakeup_interrupt : Switchless.Params.t -> ticks:int -> period:Sl_engine.Sim.Time.t -> Sl_util.Histogram.t
(** The conventional path: timer IRQ → handler → scheduler wake of the
    blocked kernel thread. *)
