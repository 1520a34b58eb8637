(** Worker-domain count for the grid subcommands' [--jobs]. *)

(** [clamp ~cores jobs] lowers [jobs] to [cores], the domain count the
    machine recommends: extra domains only time-slice the same cores, and
    every minor GC stops them all.  [0] (all cores) and anything at or
    below [cores] pass through unchanged. *)
let clamp ~cores jobs = if jobs > cores then cores else jobs
