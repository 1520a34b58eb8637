(** See journal.mli. *)

type entry = { key : string; id : string; data : string }

let escape = Orap_telemetry.Telemetry.escape

let format_line ~key ~id ~data =
  Printf.sprintf "{\"key\":\"%s\",\"id\":\"%s\",\"data\":\"%s\"}" (escape key)
    (escape id) (escape data)

(* --- strict line parser for exactly the object shape we emit --- *)

exception Bad

let parse_line (line : string) : entry option =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else raise Bad in
  let advance () = incr pos in
  let expect c = if peek () <> c then raise Bad else advance () in
  let parse_string () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then raise Bad;
          let hex = String.sub line !pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c when c < 0x100 -> c
            | Some _ | None -> raise Bad
          in
          Buffer.add_char b (Char.chr code);
          pos := !pos + 4
        | _ -> raise Bad);
        go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  try
    expect '{';
    let fields = ref [] in
    let rec members () =
      let k = parse_string () in
      expect ':';
      let v = parse_string () in
      fields := (k, v) :: !fields;
      match peek () with
      | ',' -> advance (); members ()
      | '}' -> advance ()
      | _ -> raise Bad
    in
    members ();
    if !pos <> n then raise Bad;
    let get k = List.assoc_opt k !fields in
    match (get "key", get "id", get "data") with
    | Some key, Some id, Some data -> Some { key; id; data }
    | _ -> None
  with Bad | Invalid_argument _ -> None

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
