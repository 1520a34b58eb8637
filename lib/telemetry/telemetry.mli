(** Zero-dependency tracing: named spans with wall-clock timestamps, event
    sinks, and Chrome [trace_event]-compatible output.

    The design centre is the disabled case: until a sink is installed every
    entry point is a branch on one [ref] and costs a few nanoseconds, so
    hot paths (solver loops, oracle queries, grid cells) stay instrumented
    permanently.  With a sink installed, each span is emitted as one
    Chrome "complete" event ([ph:"X"]) carrying its start timestamp and
    duration; nesting is recovered from containment, exactly as
    [about://tracing] and Perfetto render it.

    Timestamps come from [Unix.gettimeofday] relative to the trace epoch
    and are clamped to be non-decreasing per process (gettimeofday is the
    only wall clock the stdlib offers; the clamp protects traces from NTP
    steps).  All sinks serialise internally and are safe to use from
    multiple [Domain]s, e.g. inside [Runner.pool] workers. *)

(** Argument values attached to events ([args] in the Chrome format). *)
type value = Int of int | Float of float | String of string | Bool of bool

type phase =
  | Complete  (** a span: [ts_us] start + [dur_us] duration (Chrome "X") *)
  | Instant  (** a point event (Chrome "i") *)
  | Counter  (** a sampled counter track (Chrome "C") *)

type event = {
  phase : phase;
  name : string;
  ts_us : float;  (** microseconds since the trace epoch *)
  dur_us : float;  (** [Complete] only; 0 otherwise *)
  tid : int;  (** emitting domain id *)
  args : (string * value) list;
}

(** {1 Sinks} *)

type sink

(** Counts events, emits nothing — the no-op sink used by the overhead
    benchmark to price the instrumentation itself. *)
val null : unit -> sink

(** In-memory sink; the second component returns the events captured so
    far, in emission order. *)
val memory : unit -> sink * (unit -> event list)

(** One JSON object per line, each a Chrome trace_event object
    ([{"ph":"X","name":...,"ts":...,"dur":...,"pid":1,"tid":...,"args":{...}}]).
    The strict parser in {!Trace} round-trips every line; {!Trace.to_chrome}
    wraps such a file into a directly loadable Chrome trace. *)
val jsonl : string -> sink

(** Chrome trace_event JSON array ([\[event, event, ...\]]) written
    incrementally; loadable as-is in [about://tracing] or Perfetto once the
    sink is closed (and by Perfetto even when truncated). *)
val chrome : string -> sink

(** {1 Global installation} *)

(** Install [sink] as the process-wide event destination.  Installing over
    an existing sink closes the old one.  Install before spawning worker
    domains; the sink itself is domain-safe. *)
val install : sink -> unit

(** Flush and close the current sink and disable tracing. *)
val shutdown : unit -> unit

(** [true] iff a sink is installed.  Instrumentation sites use this to
    skip timestamping entirely when tracing is off. *)
val enabled : unit -> bool

(** [with_sink sink f] installs, runs [f], and shuts down (also on
    exceptions). *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** {1 Emission} *)

(** Microseconds since the trace epoch (non-decreasing). *)
val now_us : unit -> float

(** [span ?args ?exit_args name f] times [f] and emits one [Complete]
    event.  [exit_args] derives additional args from the result (e.g.
    solver-statistics deltas).  When disabled this is exactly [f ()].  If
    [f] raises, the span is emitted with an ["error"] arg and the
    exception re-raised. *)
val span :
  ?args:(string * value) list ->
  ?exit_args:('a -> (string * value) list) ->
  string ->
  (unit -> 'a) ->
  'a

(** Emit a [Complete] event from an explicit start time (callers that
    already timed the region). *)
val complete :
  ?args:(string * value) list -> name:string -> ts_us:float -> dur_us:float -> unit -> unit

val instant : ?args:(string * value) list -> string -> unit

(** Emit a Chrome counter sample (its own track in the viewer). *)
val counter_sample : string -> float -> unit

(** {1 Rendering} *)

(** [s] escaped for the inside of a JSON string literal: quote, backslash,
    [\n], [\r], [\t] and other control bytes become escapes; every other
    byte is copied. *)
val escape : string -> string

(** The event as a single-line Chrome trace_event JSON object — the JSONL
    sink's line format. *)
val event_to_json : event -> string
