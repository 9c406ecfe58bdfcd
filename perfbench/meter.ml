(* Host-side measurement of episodes, from outside the simulator.

   The untraced run only reads the clock around whole episodes and
   set-up calls, plus one creation hook on [Sim] (to count events and to
   time world construction for black-box runners).  The traced run adds
   spans around every call the workloads make into a layer, and reads
   chip, NIC and probe counts through the [Chip]/[Nic] creation hooks.
   Spans and counts stay in memory until the run ends. *)

module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Probe = Switchless.Probe
module Nic = Sl_dev.Nic

(* Host time is this process's CPU time (getrusage, through [Sys.time]).
   The simulator runs on one thread and never blocks, so that is its
   whole cost; wall-clock time would also count the time a shared
   virtual machine's hypervisor gives to other guests (steal time), which
   comes in bursts of seconds and is noise about the machine, not the
   program. *)
let now_ns () = int_of_float (Sys.time () *. 1e9)

(* Wall-clock time, which sets the length of the timed phase. *)
let wall_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated by this domain so far. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = {
  id : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (** Id of the enclosing span, -1 for an episode root. *)
  episode : int;
}

let traced = ref false
let episode = ref 0
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

(* Innermost open layer span; worlds created inside it are booked to it. *)
let layer = ref ""

let record_span ~retag name f =
  if not !traced then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let saved_layer = !layer in
    open_spans := id :: !open_spans;
    if retag then layer := name;
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      open_spans := List.tl !open_spans;
      layer := saved_layer;
      spans := { id; name; start_ns; stop_ns; parent; episode = !episode } :: !spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* [span name f] runs [f] inside a named trace span (free when tracing
   is off); worlds created inside it are booked to [name]. *)
let span name f = record_span ~retag:true name f

(* --- worlds, world construction time and set-up time ---------------- *)

type world = { sim : Sim.t; booked_to : string }

let worlds : world list ref = ref []
let build_ns = ref 0
let setup_ns = ref 0

(* Every world gets one marker event at time 0, scheduled before any
   model event, so it fires first: the host time from [Sim.create] to it
   is the world's construction.  It shifts no other event's order; its
   one extra event is subtracted from the world's count. *)
let install_sim_hook () =
  Sim.set_creation_hook (fun sim ->
      let t0 = now_ns () in
      worlds := { sim; booked_to = !layer } :: !worlds;
      Sim.schedule sim ~at:0 (fun () -> build_ns := !build_ns + (now_ns () - t0)))

let world_events w = Sim.events_processed w.sim - 1

(* [setup f] runs [f] and books its host time as set-up: the workloads
   that build their own worlds call it around construction and boot. *)
let setup f =
  record_span ~retag:false "setup" (fun () ->
      let t0 = now_ns () in
      let v = f () in
      setup_ns := !setup_ns + (now_ns () - t0);
      v)

(* --- traced-run layer hooks --------------------------------------------- *)

let chips : Chip.t list ref = ref []
let nics : Nic.t list ref = ref []
let mwait_parked = ref 0
let mwait_woke = ref 0
let mwait_immediate = ref 0
let monitor_armed = ref 0

let probe = function
  | Probe.Mwait_parked _ -> incr mwait_parked
  | Probe.Mwait_woke { immediate; _ } ->
    incr mwait_woke;
    if immediate then incr mwait_immediate
  | Probe.Monitor_armed _ -> incr monitor_armed
  | _ -> ()

let install_layer_hooks () =
  traced := true;
  Chip.add_creation_hook ~key:"perfbench" (fun chip ->
      chips := chip :: !chips;
      Chip.set_probe chip probe);
  Nic.set_creation_hook (fun nic -> nics := nic :: !nics)

let reset_episode i =
  episode := i;
  worlds := [];
  chips := [];
  nics := [];
  build_ns := 0;
  setup_ns := 0;
  mwait_parked := 0;
  mwait_woke := 0;
  mwait_immediate := 0;
  monitor_armed := 0
