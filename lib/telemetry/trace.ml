(** See trace.mli. *)

type error = { line_no : int; line : string; reason : string }

let pp_error ppf e =
  Format.fprintf ppf "line %d: %s (%S)" e.line_no e.reason e.line

(* Recursive-descent parser for the exact object shape event_to_json
   emits: one flat object whose values are strings, numbers, booleans,
   null, or (for "args" only) one nested object of scalars. *)

exception Bad of string

type json =
  | Jstring of string
  | Jnumber of float * bool (* value, had a fractional/exponent part *)
  | Jbool of bool
  | Jnull
  | Jobject of (string * json) list

let parse_json_line (line : string) : (string * json) list =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else raise (Bad "truncated") in
  let advance () = incr pos in
  let expect c =
    if peek () <> c then raise (Bad (Printf.sprintf "expected %C" c))
    else advance ()
  in
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
          if !pos + 4 > n then raise (Bad "truncated \\u escape");
          let hex = String.sub line !pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c when c < 0x100 -> c
            | Some _ | None -> raise (Bad "bad \\u escape")
          in
          Buffer.add_char b (Char.chr code);
          pos := !pos + 4
        | _ -> raise (Bad "bad escape"));
        go ()
      | c when Char.code c < 0x20 -> raise (Bad "raw control char in string")
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let fractional = ref false in
    let continue_ = ref true in
    while !continue_ && !pos < n do
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' -> advance ()
      | '.' | 'e' | 'E' ->
        fractional := true;
        advance ()
      | _ -> continue_ := false
    done;
    if !pos = start then raise (Bad "expected number");
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some f -> Jnumber (f, !fractional)
    | None -> raise (Bad "malformed number")
  in
  let rec parse_value ~depth =
    match peek () with
    | '"' -> Jstring (parse_string ())
    | 't' ->
      if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
        pos := !pos + 4;
        Jbool true
      end
      else raise (Bad "bad literal")
    | 'f' ->
      if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
        pos := !pos + 5;
        Jbool false
      end
      else raise (Bad "bad literal")
    | 'n' ->
      if !pos + 4 <= n && String.sub line !pos 4 = "null" then begin
        pos := !pos + 4;
        Jnull
      end
      else raise (Bad "bad literal")
    | '{' ->
      if depth > 0 then raise (Bad "object nested too deep")
      else Jobject (parse_object ~depth:(depth + 1))
    | _ -> parse_number ()
  and parse_object ~depth =
    expect '{';
    if peek () = '}' then begin
      advance ();
      []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        let k = parse_string () in
        expect ':';
        if List.mem_assoc k !fields then
          raise (Bad (Printf.sprintf "duplicate key %S" k));
        let v = parse_value ~depth in
        fields := (k, v) :: !fields;
        match peek () with
        | ',' -> advance (); members ()
        | '}' -> advance ()
        | _ -> raise (Bad "expected ',' or '}'")
      in
      members ();
      List.rev !fields
    end
  in
  let fields = parse_object ~depth:0 in
  if !pos <> n then raise (Bad "trailing bytes after object");
  fields

(* --- lift the generic object into a Telemetry.event, strictly --- *)

let event_of_fields (fields : (string * json) list) : Telemetry.event =
  let known =
    [ "ph"; "name"; "ts"; "dur"; "pid"; "tid"; "args" ]
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k known) then
        raise (Bad (Printf.sprintf "unknown key %S" k)))
    fields;
  let get k = List.assoc_opt k fields in
  let require k =
    match get k with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "missing key %S" k))
  in
  let phase =
    match require "ph" with
    | Jstring "X" -> Telemetry.Complete
    | Jstring "i" -> Telemetry.Instant
    | Jstring "C" -> Telemetry.Counter
    | Jstring s -> raise (Bad (Printf.sprintf "unknown phase %S" s))
    | _ -> raise (Bad "\"ph\" must be a string")
  in
  let name =
    match require "name" with
    | Jstring s -> s
    | _ -> raise (Bad "\"name\" must be a string")
  in
  let number k =
    match require k with
    | Jnumber (f, _) -> f
    | _ -> raise (Bad (Printf.sprintf "%S must be a number" k))
  in
  let ts_us = number "ts" in
  let dur_us =
    match (phase, get "dur") with
    | Telemetry.Complete, Some (Jnumber (f, _)) -> f
    | Telemetry.Complete, Some _ -> raise (Bad "\"dur\" must be a number")
    | Telemetry.Complete, None -> raise (Bad "span without \"dur\"")
    | _, Some _ -> raise (Bad "\"dur\" on a non-span event")
    | _, None -> 0.0
  in
  (match require "pid" with
  | Jnumber (1.0, false) -> ()
  | _ -> raise (Bad "\"pid\" must be 1"));
  let tid =
    match require "tid" with
    | Jnumber (f, false) when Float.is_integer f && f >= 0.0 ->
      int_of_float f
    | _ -> raise (Bad "\"tid\" must be a non-negative integer")
  in
  let args =
    match get "args" with
    | None -> []
    | Some (Jobject kvs) ->
      if kvs = [] then raise (Bad "empty \"args\" object is never emitted");
      List.map
        (fun (k, v) ->
          let value =
            match v with
            | Jstring s -> Telemetry.String s
            | Jbool b -> Telemetry.Bool b
            | Jnumber (f, true) -> Telemetry.Float f
            | Jnumber (f, false) ->
              if Float.is_integer f && Float.abs f <= 1e15 then
                Telemetry.Int (int_of_float f)
              else Telemetry.Float f
            | Jnull -> Telemetry.Float Float.nan
            | Jobject _ -> raise (Bad "nested object inside \"args\"")
          in
          (k, value))
        kvs
    | Some _ -> raise (Bad "\"args\" must be an object")
  in
  if ts_us < 0.0 then raise (Bad "negative timestamp");
  if dur_us < 0.0 then raise (Bad "negative duration");
  { Telemetry.phase; name; ts_us; dur_us; tid; args }

let parse_object line =
  match parse_json_line line with
  | fields -> Ok fields
  | exception Bad reason -> Error reason

let parse_line line =
  match event_of_fields (parse_json_line line) with
  | e -> Ok e
  | exception Bad reason -> Error reason

(* --- files --- *)

let fold_file path f acc =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let acc = ref acc and line_no = ref 0 and stop = ref None in
      (try
         while !stop = None do
           let line = input_line ic in
           incr line_no;
           match f !acc ~line_no:!line_no ~line with
           | Ok a -> acc := a
           | Error e -> stop := Some e
         done
       with End_of_file -> ());
      match !stop with Some e -> Error e | None -> Ok !acc)

let read_file path =
  Result.map List.rev
    (fold_file path
       (fun acc ~line_no ~line ->
         match parse_line line with
         | Ok e -> Ok (e :: acc)
         | Error reason -> Error { line_no; line; reason })
       [])

let validate_file path =
  fold_file path
    (fun n ~line_no ~line ->
      match parse_line line with
      | Ok _ -> Ok (n + 1)
      | Error reason -> Error { line_no; line; reason })
    0

let to_chrome ~src ~dst =
  let oc = open_out dst in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_char oc '[';
      let r =
        fold_file src
          (fun n ~line_no ~line ->
            match parse_line line with
            | Ok _ ->
              if n > 0 then output_string oc ",\n";
              output_string oc line;
              Ok (n + 1)
            | Error reason -> Error { line_no; line; reason })
          0
      in
      output_string oc "]\n";
      r)
