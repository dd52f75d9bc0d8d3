open Nyx_targets
open Nyx_netemu

type custom_handler =
  send:(bytes -> unit) -> Nyx_spec.Spec.node_ty -> int list -> bytes array -> int list option

type t = {
  net : Net.t;
  runtime : Target.runtime;
  target : Target.t;
  after_packet : unit -> unit;
  on_snapshot : unit -> unit;
  custom : custom_handler option;
  udp_flows : (int, int) Hashtbl.t;
  mutable next_token : int;
  mutable implicit_flow : int option;
  mutable adopted : int; (* client targets: outbound flows claimed so far *)
}

let create ~net ~runtime ~target ?(after_packet = fun () -> ())
    ?(on_snapshot = fun () -> ()) ?custom () =
  {
    net;
    runtime;
    target;
    after_packet;
    on_snapshot;
    custom;
    udp_flows = Hashtbl.create 8;
    next_token = -1;
    implicit_flow = None;
    adopted = 0;
  }

let refused = -1_000_000

let is_udp t = t.target.Target.info.Target.proto = Net.Udp
let is_client t = t.target.Target.info.Target.role = Target.Client
let port t = t.target.Target.info.Target.port

(* Client targets dial out themselves; a [connect] opcode adopts the next
   unclaimed outbound flow instead of opening a new connection. *)
let adopt_outbound t =
  let flows = Net.outbound_flows t.net in
  match List.nth_opt flows t.adopted with
  | Some fl ->
    t.adopted <- t.adopted + 1;
    Some fl
  | None -> None

(* Deliver one packet on the implicit connection, opening it lazily —
   how typed specs talk to the target without modeling connections. *)
let implicit_send t payload =
  let flow =
    match t.implicit_flow with
    | Some fl -> Some fl
    | None ->
      let fl =
        if is_udp t then None (* created by the first datagram below *)
        else Net.connect_peer t.net ~port:(port t)
      in
      (match fl with
      | Some _ ->
        t.implicit_flow <- fl;
        Target.pump t.runtime
      | None -> ());
      fl
  in
  if is_udp t then begin
    match Net.udp_send_peer t.net ~port:(port t) ?flow:t.implicit_flow payload with
    | Some fl ->
      t.implicit_flow <- Some fl;
      Target.pump t.runtime;
      t.after_packet ()
    | None -> ()
  end
  else
    match flow with
    | None -> ()
    | Some fl -> (
      match Net.send_peer t.net fl payload with
      | () ->
        Target.pump t.runtime;
        t.after_packet ();
        Net.discard_responses t.net fl
      | exception Invalid_argument _ -> ())

let handlers t =
  let exec (nt : Nyx_spec.Spec.node_ty) inputs data =
    let custom_result =
      match t.custom with
      | Some f -> f ~send:(implicit_send t) nt inputs data
      | None -> None
    in
    match custom_result with
    | Some outputs -> outputs
    | None ->
    match nt.Nyx_spec.Spec.nt_name with
    | "connect" when is_client t -> (
      match adopt_outbound t with Some fl -> [ fl ] | None -> [ refused ])
    | "connect" ->
      if is_udp t then begin
        let token = t.next_token in
        t.next_token <- token - 1;
        [ token ]
      end
      else begin
        match Net.connect_peer t.net ~port:(port t) with
        | Some flow ->
          Target.pump t.runtime;
          [ flow ]
        | None -> [ refused ]
      end
    | "packet" ->
      let con = match inputs with [ c ] -> c | _ -> refused in
      let payload = if Array.length data > 0 then data.(0) else Bytes.empty in
      (if con = refused then ()
       else if is_udp t then begin
         let flow = Hashtbl.find_opt t.udp_flows con in
         match Net.udp_send_peer t.net ~port:(port t) ?flow payload with
         | Some fl ->
           Hashtbl.replace t.udp_flows con fl;
           Target.pump t.runtime;
           t.after_packet ()
         | None -> ()
       end
       else begin
         (* The server may have closed this connection: a send then fails
            with EPIPE and the packet is simply lost, as with a real
            socket. *)
         match Net.send_peer t.net con payload with
         | () ->
           Target.pump t.runtime;
           t.after_packet ()
         | exception Invalid_argument _ -> ()
       end);
      (* Drain responses so server writes don't accumulate. *)
      (if con <> refused then
         match if is_udp t then Hashtbl.find_opt t.udp_flows con else Some con with
         | Some fl -> Net.discard_responses t.net fl
         | None -> ());
      []
    | "close" ->
      let con = match inputs with [ c ] -> c | _ -> refused in
      (if con = refused then ()
       else
         let flow = if is_udp t then Hashtbl.find_opt t.udp_flows con else Some con in
         match flow with
         | Some fl -> (
           try
             Net.close_peer t.net fl;
             Target.pump t.runtime
           with Invalid_argument _ -> ())
         | None -> ());
      []
    | other -> invalid_arg (Printf.sprintf "Op_handlers: unknown opcode %s" other)
  in
  { Nyx_spec.Interp.exec; snapshot = t.on_snapshot }

let reset t =
  Hashtbl.reset t.udp_flows;
  t.next_token <- -1;
  t.implicit_flow <- None;
  t.adopted <- 0

let save_tokens t =
  ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.udp_flows [],
    t.next_token,
    t.implicit_flow,
    t.adopted )

let load_tokens t (pairs, next, implicit, adopted) =
  Hashtbl.reset t.udp_flows;
  List.iter (fun (k, v) -> Hashtbl.replace t.udp_flows k v) pairs;
  t.next_token <- next;
  t.implicit_flow <- implicit;
  t.adopted <- adopted
