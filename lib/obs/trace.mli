(** Structured tracing: the JSONL event sink behind {!Obs}.

    Off by default and zero-cost when off: every event site is guarded by
    [if Trace.on () then ...], a single load + branch, and field lists are
    only allocated inside that guard. Setting [NYX_TRACE=<path>] in the
    environment (read once at load, like [NYX_SANITIZE]) arms the tracer
    and appends one JSON object per line to [<path>].

    A span is written once, when it closes, as one complete event
    ([ph] ["X"]) carrying its start [vt], its virtual duration [dur] and
    its nesting [depth]; {!Obs.span} is the only place lib/ opens one.
    Instants ([ph] ["I"]) mark points. Every event carries two clocks:
    [vt], the deterministic virtual-time stamp (same-seed runs produce
    identical [vt] sequences), and [wt], wall-clock ns since the sink was
    armed (informational only — determinism tests mask it).

    Domain-safety: each domain accumulates events into its own buffer
    (domain-local storage); buffers are flushed to the shared sink under
    a mutex, so lines from concurrent domains never interleave
    mid-record. The [dom] field identifies the emitting domain. *)

type value = Int of int | Str of string | Bool of bool

type event = {
  name : string;
  ph : [ `X  (** complete span, written at its close *) | `I  (** instant *) ];
  dom : int;  (** emitting domain id *)
  depth : int;  (** spans of the same {!Obs.t} enclosing this one *)
  vns : int;  (** virtual-time stamp (a span's start); deterministic *)
  dur : int;  (** a span's virtual extent; 0 for instants *)
  wall_ns : int;  (** wall ns since the sink was armed; masked in tests *)
  fields : (string * value) list;
}

val on : unit -> bool
(** Whether a sink is armed ([NYX_TRACE] at load, or a test sink). The
    guard every event site checks before building fields. *)

val instant : ?vns:int -> ?depth:int -> string -> (string * value) list -> unit
(** Emit a point event (default [vns] and [depth] 0). No-op when off. *)

val complete :
  string -> vns:int -> dur:int -> depth:int -> wall:float -> (string * value) list -> unit
(** Emit one closed span: [name] started at virtual [vns] and wall time
    [wall] (seconds, as [Unix.gettimeofday]) and lasted [dur] virtual ns.
    No-op when off. {!Obs.span} calls it for phase spans; the campaign,
    fleet and sync-epoch spans call it directly at their close. *)

val flush : unit -> unit
(** Flush the calling domain's buffer to the sink. Buffers also flush
    when they exceed an internal size threshold and when their domain
    exits; campaigns and fleets flush the calling domain as they end. *)

val event_json : event -> string
(** The JSONL encoding of one event (no trailing newline) — the format
    the file sink writes. Exposed for tests and external consumers. *)

val with_memory_sink : (unit -> 'a) -> 'a * event list
(** Run [f] with tracing temporarily armed into an in-memory sink and
    return the events emitted (in emission order). Test-only: replaces
    any file sink for the duration and restores it afterwards. Events
    from all domains are collected under a mutex. *)

val with_file_sink : string -> (unit -> 'a) -> 'a
(** Run [f] with tracing armed into a fresh file at [path] (test helper;
    restores the previous sink and closes the file afterwards). *)

val inject_flush_failure : unit -> unit
(** Fault hook: the next file-sink flush fails as if the descriptor had
    been closed. A failed flush never raises into the campaign — the sink
    disables itself with a single stderr warning and subsequent event
    sites see tracing off. *)
