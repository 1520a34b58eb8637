(** Structural Verilog writer (gate-level, primitive instantiations), for
    interoperability with commercial flows. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let wire_name (t : Netlist.t) i = sanitize (Netlist.node_name t i)

let of_netlist ?(module_name = "top") (t : Netlist.t) : string =
  let buf = Buffer.create 4096 in
  let inputs = Netlist.inputs t in
  let outputs = Netlist.outputs t in
  let out_name j = Printf.sprintf "po%d" j in
  let ports =
    Array.to_list (Array.map (wire_name t) inputs)
    @ List.init (Array.length outputs) out_name
  in
  Buffer.add_string buf
    (Printf.sprintf "module %s(%s);\n" (sanitize module_name)
       (String.concat ", " ports));
  Array.iter
    (fun i -> Buffer.add_string buf (Printf.sprintf "  input %s;\n" (wire_name t i)))
    inputs;
  for j = 0 to Array.length outputs - 1 do
    Buffer.add_string buf (Printf.sprintf "  output %s;\n" (out_name j))
  done;
  for i = 0 to Netlist.num_nodes t - 1 do
    match Netlist.kind t i with
    | Gate.Input -> ()
    | _ -> Buffer.add_string buf (Printf.sprintf "  wire %s;\n" (wire_name t i))
  done;
  let instance = ref 0 in
  let prim name out args =
    incr instance;
    Buffer.add_string buf
      (Printf.sprintf "  %s g%d(%s, %s);\n" name !instance out
         (String.concat ", " args))
  in
  for i = 0 to Netlist.num_nodes t - 1 do
    let out = wire_name t i in
    let args =
      Array.to_list (Array.map (wire_name t) (Netlist.fanins t i))
    in
    match Netlist.kind t i with
    | Gate.Input -> ()
    | Gate.Const0 -> Buffer.add_string buf (Printf.sprintf "  assign %s = 1'b0;\n" out)
    | Gate.Const1 -> Buffer.add_string buf (Printf.sprintf "  assign %s = 1'b1;\n" out)
    | Gate.Buf -> prim "buf" out args
    | Gate.Not -> prim "not" out args
    | Gate.And -> prim "and" out args
    | Gate.Nand -> prim "nand" out args
    | Gate.Or -> prim "or" out args
    | Gate.Nor -> prim "nor" out args
    | Gate.Xor -> prim "xor" out args
    | Gate.Xnor -> prim "xnor" out args
    | Gate.Mux ->
      (match args with
      | [ sel; a; b ] ->
        Buffer.add_string buf
          (Printf.sprintf "  assign %s = %s ? %s : %s;\n" out sel b a)
      | _ -> assert false)
  done;
  Array.iteri
    (fun j o ->
      Buffer.add_string buf
        (Printf.sprintf "  assign %s = %s;\n" (out_name j) (wire_name t o)))
    outputs;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
