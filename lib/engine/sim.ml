open Effect
open Effect.Deep

(* Simulated time as an immediate 63-bit int — see the .mli and
   DESIGN.md ("Tick representation") for why this suffices and what the
   overflow policy is.  Everything downstream of Sim states times in
   terms of this module so the representation is written down exactly
   once. *)
module Time = struct
  type t = int

  let zero = 0
  let max_tick = max_int
  (* The int-identity ops sit on the hot event loop; the budget keeps
     them from regressing into boxing (e.g. an accidental int64). *)
  let of_int n = n [@@sl.zero_alloc]
  let to_int n = n [@@sl.zero_alloc]
  let to_float = float_of_int
  let add = ( + ) [@@sl.zero_alloc]
  let compare = Int.compare [@@sl.zero_alloc]
  let pp ppf n = Format.pp_print_int ppf n
  let to_string = string_of_int
end

type blocked = { pid : int; name : string option; blocked_since : Time.t }

(* Process states.  [Running] covers "executing" and "spawned, first
   event not yet popped"; [Parked] is the only state {!wake} accepts and
   the only one {!stuck} reports; [Queued] means the process's [run_k]
   event is in the queue (woken, or sleeping in {!delay}); [Sentinel] is
   [no_proc]'s, which is never any of those. *)
type state = Running | Parked | Queued | Sentinel

(* What {!stuck} reads about a process.  The world's [procs] table holds
   these and never the continuation, so a parked process that nothing
   can wake any more is garbage even while its world is still alive —
   its stack, and whatever model state the stack references, with it. *)
type info = {
  pid : int;
  pname : string option;
  mutable state : state;
  mutable since : Time.t;  (* when the current park began *)
  mutable daemon : bool;
      (* parked-by-design (servers, IRQ loops): excluded from {!suspects} *)
}

type proc = {
  info : info;
  mutable k : (unit, unit) continuation;
      (* the suspension slot; left as is once resumed (a spent
         continuation holds no stack), so a wake writes no pointer *)
  mutable run_k : unit -> unit;  (* preallocated event: resume [k] *)
}

type t = {
  mutable now : Time.t;
  mutable seq : int;
  queue : (unit -> unit) Wheel.t;
  mutable next_pid : int;
  procs : (int, info) Hashtbl.t;  (* live (not yet returned) processes *)
  mutable events : int;  (* events popped by {!run}, for perf accounting *)
  mutable cur : proc;
      (* the running process — or, between events, the last one to run
         (its state then says it is not running); [no_proc] once it
         returned and when {!run} returns *)
  mutable delay_d : Time.t;  (* [Delay_eff]'s payload, handed to [delay_k] *)
  mutable handler : (unit, unit) handler;
}

(* The engine's three effects.  Every suspension goes through the
   process's one continuation slot: [Park_eff] fills it and waits for
   {!wake}, [Delay_eff] fills it and queues [run_k] itself.  [World_eff]
   only reads the world back (for {!now}, {!fork}, {!await} and
   {!set_daemon}) and continues at once. *)
type _ Effect.t +=
  | World_eff : t Effect.t
  | Park_eff : unit Effect.t
  | Delay_eff : Time.t -> unit Effect.t

(* Lets the bench harness observe every simulation world an experiment
   builds (for end-of-run stuck reporting) without the experiments
   threading the worlds out themselves.  Domain-local: each runner domain
   installs (and sees) only its own hook, so experiments fanned out over
   [Domain.spawn] never observe one another's worlds. *)
let creation_hook : (t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_creation_hook f = Domain.DLS.set creation_hook (Some f)
let clear_creation_hook () = Domain.DLS.set creation_hook None

let nop () = ()

type _ Effect.t += Capture_eff : unit Effect.t

(* Filler for empty continuation slots: a continuation captured once at
   module initialisation and never resumed ([run_k] only fires after a
   suspension has stored the real one). *)
let dummy_k : (unit, unit) continuation =
  let slot : (unit, unit) continuation option ref = ref None in
  match_with perform Capture_eff
    {
      retc = nop;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Capture_eff -> Some (fun (k : (a, unit) continuation) -> slot := Some k)
          | _ -> None);
    };
  match !slot with Some k -> k | None -> assert false

let no_proc =
  {
    info = { pid = 0; pname = None; state = Sentinel; since = Time.zero; daemon = false };
    k = dummy_k;
    run_k = nop;
  }

let time t = t.now
let events_processed t = t.events

let push t ~at thunk =
  t.seq <- t.seq + 1;
  Wheel.push t.queue ~time:at ~seq:t.seq thunk

let schedule t ~at thunk =
  if at < t.now then invalid_arg "Sim.schedule: time in the past";
  push t ~at thunk

(* [run_k]'s body: hand the slot's continuation back to the process. *)
let resume_proc t p =
  p.info.state <- Running;
  if t.cur != p then t.cur <- p;
  continue p.k ()
[@@sl.zero_alloc]

let new_proc t ?name ?(daemon = false) () =
  t.next_pid <- t.next_pid + 1;
  let info =
    { pid = t.next_pid; pname = name; state = Running; since = Time.zero; daemon }
  in
  let proc = { info; k = dummy_k; run_k = nop } in
  proc.run_k <- (fun () -> resume_proc t proc);
  Hashtbl.replace t.procs info.pid info;
  proc

(* The running process leaves (returns or raises). *)
let retire t =
  Hashtbl.remove t.procs t.cur.info.pid;
  t.cur <- no_proc

(* [Park_eff]: fill the slot.  A process already [Queued] was woken
   from inside its own {!await} registration, before it parked; its
   [run_k] is queued and it does not count as blocked. *)
let park_k t k =
  let p = t.cur in
  p.k <- k;
  let i = p.info in
  match i.state with
  | Running ->
    i.state <- Parked;
    i.since <- t.now
  | Parked | Queued | Sentinel -> ()
[@@sl.zero_alloc]

(* [Delay_eff]: fill the slot and queue [run_k] at the wake time. *)
let delay_k t k =
  let p = t.cur in
  p.k <- k;
  p.info.state <- Queued;
  push t ~at:(t.now + t.delay_d) p.run_k
[@@sl.zero_alloc]

(* One handler and one set of [effc] results per world, not per process:
   the current process is [t.cur], so the handlers need capture nothing
   else, and parked processes keep only their slot and [run_k] alive. *)
let world_handler t =
  let world_h = Some (fun k -> continue k t) in
  let park_h = Some (fun k -> park_k t k) in
  let delay_h = Some (fun k -> delay_k t k) in
  {
    retc = (fun () -> retire t);
    exnc = (fun e -> retire t; raise e);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Park_eff -> park_h
        | Delay_eff d ->
          t.delay_d <- d;
          delay_h
        | World_eff -> world_h
        | _ -> None);
  }

(* [create]'s placeholder until the world's own handler exists. *)
let no_handler = { retc = nop; exnc = raise; effc = (fun _ -> None) }

let create () =
  let t =
    {
      now = Time.zero;
      seq = 0;
      queue = Wheel.create ~dummy:nop;
      next_pid = 0;
      procs = Hashtbl.create 32;
      events = 0;
      cur = no_proc;
      delay_d = 0;
      handler = no_handler;
    }
  in
  t.handler <- world_handler t;
  (match Domain.DLS.get creation_hook with Some f -> f t | None -> ());
  t

(* Run [f] as a coroutine of [proc]: every suspension stores its
   continuation in [proc]'s slot and returns here (to the event loop). *)
let start t proc f =
  t.cur <- proc;
  match_with f () t.handler

let spawn ?name ?daemon t f =
  let proc = new_proc t ?name ?daemon () in
  push t ~at:t.now (fun () -> start t proc f)

let self t =
  match t.cur.info.state with
  | Running -> t.cur
  | Parked | Queued | Sentinel -> invalid_arg "Sim.self: no process is running"

let wake t p =
  match p.info.state with
  | Parked ->
    p.info.state <- Queued;
    push t ~at:t.now p.run_k
  | Running | Queued | Sentinel -> invalid_arg "Sim.wake: process is not parked"
[@@sl.zero_alloc]

let blocked_procs t ~include_daemons =
  Hashtbl.fold
    (fun _ (i : info) acc ->
      match i.state with
      | Parked when include_daemons || not i.daemon ->
        { pid = i.pid; name = i.pname; blocked_since = i.since } :: acc
      | Parked | Running | Queued | Sentinel -> acc)
    t.procs []
  |> List.sort (fun (a : blocked) (b : blocked) -> compare a.pid b.pid)

let stuck t = blocked_procs t ~include_daemons:true
let suspects t = blocked_procs t ~include_daemons:false

let describe_blocked b =
  match b.name with
  | Some n -> Printf.sprintf "%s (pid %d, since %d)" n b.pid b.blocked_since
  | None -> Printf.sprintf "pid %d (since %d)" b.pid b.blocked_since

let summary_of = function
  | [] -> None
  | blocked ->
    Some
      (Printf.sprintf "%d process(es) still blocked: %s" (List.length blocked)
         (String.concat ", " (List.map describe_blocked blocked)))

let stuck_summary t = summary_of (stuck t)
let suspect_summary t = summary_of (suspects t)

(* The hot loop: one [is_empty]/[min_time]/[pop_min] triple per event, no
   option or tuple boxing.  Whichever way a bounded run ends — future
   event left beyond the horizon, or queue drained dry — the clock parks
   at the horizon, so [time] agrees between the two endings (it never
   moves backwards: a second bounded run with an earlier horizon is a
   no-op on the clock). *)
let run ?until t =
  let park_at_horizon () =
    match until with Some h when h > t.now -> t.now <- h | _ -> ()
  in
  let within_horizon time =
    match until with None -> true | Some h -> time <= h
  in
  let rec loop () =
    if Wheel.is_empty t.queue then park_at_horizon ()
    else begin
      let time = Wheel.min_time t.queue in
      if within_horizon time then begin
        let thunk = Wheel.pop_min t.queue in
        t.now <- time;
        t.events <- t.events + 1;
        thunk ();
        loop ()
      end
      else
        (* Leave future events unprocessed; clock parks at the horizon. *)
        park_at_horizon ()
    end
  in
  loop ();
  (* Drop the last process to run: a world kept after its run must not
     keep that process's continuation alive (see [info]). *)
  t.cur <- no_proc

let park () = perform Park_eff
let now () = (perform World_eff).now

let delay d =
  if d < 0 then invalid_arg "Sim.delay: negative delay";
  perform (Delay_eff d)

let fork f =
  let t = perform World_eff in
  let child = new_proc t () in
  push t ~at:t.now (fun () -> start t child f)

(* A thin wrapper over the slot: the value travels in a per-await cell,
   the process parks as usual.  A [resume] issued from inside [register]
   finds the process still running and queues its [run_k] then and
   there, so the wake lands at the same (time, seq) as a later one
   would; the [Park_eff] that follows sees [Queued] and only fills
   the slot. *)
let await register =
  let t = perform World_eff in
  let p = t.cur in
  let cell = ref None in
  register (fun v ->
      (match !cell with
      | Some _ -> invalid_arg "Sim.await: resume called twice"
      | None -> cell := Some v);
      match p.info.state with
      | Running ->
        p.info.state <- Queued;
        push t ~at:t.now p.run_k
      | Parked | Queued | Sentinel -> wake t p);
  park ();
  match !cell with Some v -> v | None -> assert false

let yield () = delay 0
let set_daemon d = (perform World_eff).cur.info.daemon <- d
