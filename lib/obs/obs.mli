(** One campaign's instrumentation: the single span primitive behind both
    the phase profile and the trace.

    An [Obs.t] holds a campaign's virtual clock and, when the campaign is
    profiled, its {!Profile.t}. {!span} is the only span primitive in
    lib/: a site names its phase once and every armed sink sees the same
    span — the profile charges its self-time, the trace gets one complete
    event ([ph] ["X"]) as it closes. Each clock is read once per span
    boundary and that reading feeds both sinks, so folding a trace's
    close events by phase (count, virtual self-time) reproduces the
    profile exactly.

    Purely observational: reads the virtual and wall clocks, never
    advances either. With profiling and tracing off, {!span} and
    {!charge} cost one guard — no profile, no sink armed — before running
    [f]. An [Obs.t] is owned by one campaign and touched by one domain at
    a time — it holds no locks. *)

type t

val create : ?profile:bool -> Nyx_sim.Clock.t -> t
(** Instrumentation over [clock]; [profile] (default false) attaches a
    fresh {!Profile.t}. *)

val clock : t -> Nyx_sim.Clock.t
val profile : t -> Profile.t option

val span :
  t -> Profile.phase -> ?attrs:('a -> (string * Trace.value) list) -> (unit -> 'a) -> 'a
(** [span o phase ~attrs f] runs [f] as one span of [phase] — or of the
    {!charge} override, when one is in force. On close the profile (if
    any) records the span's self-time and the trace (if on) writes one
    event named {!Profile.phase_name} of the effective phase, stamped
    with the start [vt], the virtual [dur], the nesting [depth] (spans
    of [o] still open around it) and the start [wt]. [attrs] turns [f]'s
    result into the event's fields; it runs only when tracing is on.
    When [f] raises the span is still recorded, without [attrs], and the
    exception propagates. *)

val charge : t -> Profile.phase -> (unit -> 'a) -> 'a
(** Attribute every span opened during [f] to [phase], whatever phase
    its site names — how trim charges its internal resets and executions
    to [Trim]. Restores the previous override on exit. *)

val event : t -> string -> (string * Trace.value) list -> unit
(** An instant stamped from [o]'s clock at the current nesting depth.
    Guard the call with [Trace.on ()] so fields are built only when
    tracing. *)
