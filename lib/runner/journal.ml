(** See journal.mli. *)

type entry = { key : string; id : string; data : string }

let escape = Orap_telemetry.Telemetry.escape

let format_line ~key ~id ~data =
  Printf.sprintf "{\"key\":\"%s\",\"id\":\"%s\",\"data\":\"%s\"}" (escape key)
    (escape id) (escape data)

(* the emitted shape: one object whose key/id/data fields are strings *)
let parse_line (line : string) : entry option =
  let module Trace = Orap_telemetry.Trace in
  match Trace.parse_object line with
  | Error _ -> None
  | Ok fields -> (
    let get k =
      match List.assoc_opt k fields with
      | Some (Trace.Jstring s) -> Some s
      | _ -> None
    in
    match (get "key", get "id", get "data") with
    | Some key, Some id, Some data -> Some { key; id; data }
    | _ -> None)

(* --- file I/O --- *)

let fold_lines path f acc =
  if not (Sys.file_exists path) then acc
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let acc = ref acc in
        (try
           while true do
             acc := f !acc (input_line ic)
           done
         with End_of_file -> ());
        !acc)
  end

let load path =
  List.rev
    (fold_lines path
       (fun acc line ->
         (* skip blank and corrupt (e.g. crash-truncated) lines *)
         if String.trim line = "" then acc
         else match parse_line line with Some e -> e :: acc | None -> acc)
       [])

let scan path =
  fold_lines path
    (fun (ok, bad) line ->
      if String.trim line = "" then (ok, bad)
      else match parse_line line with Some _ -> (ok + 1, bad) | None -> (ok, bad + 1))
    (0, 0)

type t = { oc : out_channel; mutex : Mutex.t }

(* a crash can leave the file without a final newline (a half-written
   line); appending straight after it would merge the first new entry into
   the corrupt line and lose both.  Start on a fresh line instead. *)
let ends_with_newline path =
  match (Unix.stat path).Unix.st_size with
  | 0 -> true
  | size ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        seek_in ic (size - 1);
        input_char ic = '\n')
  | exception Unix.Unix_error _ -> true

let open_append path =
  let needs_newline = Sys.file_exists path && not (ends_with_newline path) in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  if needs_newline then output_char oc '\n';
  { oc; mutex = Mutex.create () }

let append t ~key ~id ~data =
  let line = format_line ~key ~id ~data in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc)

let close t = close_out_noerr t.oc
