(** Strict reader for the {!Telemetry.jsonl} sink's event stream.

    The parser accepts exactly the line format {!Telemetry.event_to_json}
    emits — one Chrome trace_event object per line — and rejects anything
    else with a reason.  CI uses {!validate_file} to assert that a traced
    smoke run produced a well-formed stream; {!to_chrome} wraps a JSONL
    stream into a JSON array loadable directly in [about://tracing] or
    Perfetto. *)

type error = {
  line_no : int;  (** 1-based *)
  line : string;
  reason : string;
}

val pp_error : Format.formatter -> error -> unit

(** One JSON value as {!parse_object} reads it. *)
type json =
  | Jstring of string
  | Jnumber of float * bool  (** value, had a fractional/exponent part *)
  | Jbool of bool
  | Jnull
  | Jobject of (string * json) list

(** Parse a line holding exactly one JSON object whose values are scalars
    or (one level deep) objects of scalars; fields in line order.
    [Error reason] on anything else: duplicate keys, trailing bytes, a bad
    escape, a raw control character in a string, ... *)
val parse_object : string -> ((string * json) list, string) result

(** Parse one line.  [Error reason] if the line deviates from the emitted
    format in any way (unknown key, missing field, trailing bytes, bad
    escape, [dur] on a non-span, ...). *)
val parse_line : string -> (Telemetry.event, string) result

(** All events of a JSONL trace, in file order.  Blank lines are not
    tolerated: the sink never writes them. *)
val read_file : string -> (Telemetry.event list, error) result

(** Strictly parse every line; [Ok n] is the number of events. *)
val validate_file : string -> (int, error) result

(** Convert a JSONL trace to a Chrome trace_event JSON array file.
    Validates as it goes; on error the destination is still written but
    truncated at the offending line. *)
val to_chrome : src:string -> dst:string -> (int, error) result
