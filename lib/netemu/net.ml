type fd = int
type flow = int
type proto = Tcp | Udp | Unix_sock
type backend = Emulated | Real

exception Would_block of fd
exception Bad_fd of fd

type sock = {
  sid : int;
  proto : proto;
  mutable port : int;
  mutable listening : bool;
  mutable backlog : int list; (* pending connection sids, oldest first *)
  mutable inbox : (int * Bytes.t) list; (* (flow, packet), oldest first *)
  mutable partial : (int * Bytes.t) option; (* unconsumed tail of a packet *)
  mutable out_rev : (int * Bytes.t) list;
  mutable peer_open : bool;
  mutable eof_pending : bool;
  mutable refcount : int;
  mutable conn_flow : int; (* TCP/Unix connection's flow id; -1 otherwise *)
  mutable reply_flow : int; (* last recvfrom peer, for connectionless send *)
  mutable write_shut : bool;
  mutable options : (string * int) list;
  mutable outbound : bool;
}

(* Everything the kernel would snapshot: closure-free, Marshal-safe. *)
type state = {
  socks : (int, sock) Hashtbl.t;
  fds : (int, int * int) Hashtbl.t; (* fd -> (sid, per-process refcount) *)
  flows : (int, int) Hashtbl.t; (* flow -> sid *)
  listeners : (int, int) Hashtbl.t; (* port -> sid *)
  mutable next_fd : int;
  mutable next_sid : int;
  mutable next_flow : int;
  mutable processes : int;
  mutable syscalls : int;
}

(* Besides the state, [t] keeps a direct-indexed view of two of its
   tables, outside the state so that the kernel image stays the same:
   [by_fd.(fd)] is the socket [fd] refers to, and [by_flow.(fl)] the live
   socket flow [fl] is bound to. A slot holds [no_sock] when the fd is
   closed, the flow unknown, or the flow's socket dead. Every write to
   [fds], [flows] or [socks] that changes the answer updates it, and every
   load refills it; under NYX_SANITIZE each of those is checked against
   the tables. *)
type t = {
  mutable st : state;
  clock : Nyx_sim.Clock.t;
  backend : backend;
  boundaries : bool;
  mutable by_fd : sock array;
  mutable by_flow : sock array;
}

(* Every table starts at this many buckets ([Hashtbl.create] rounds
   smaller sizes up to it), so one still this size never resized. *)
let table_size = 16

let fresh_state () =
  {
    socks = Hashtbl.create table_size;
    fds = Hashtbl.create table_size;
    flows = Hashtbl.create table_size;
    listeners = Hashtbl.create table_size;
    next_fd = 3; (* 0-2 are stdio *)
    next_sid = 1;
    next_flow = 1;
    processes = 1;
    syscalls = 0;
  }

(* The index's empty slot. Its id is above every socket's, so a scan for
   the lowest ready id passes over it. Domain-safe: it is never mutated,
   only compared physically. *)
let no_sock =
  {
    sid = max_int;
    proto = Tcp;
    port = 0;
    listening = false;
    backlog = [];
    inbox = [];
    partial = None;
    out_rev = [];
    peer_open = false;
    eof_pending = false;
    refcount = 0;
    conn_flow = -1;
    reply_flow = -1;
    write_shut = false;
    options = [];
    outbound = false;
  }

let create ?(backend = Emulated) ?(boundaries = true) clock =
  {
    st = fresh_state ();
    clock;
    backend;
    boundaries;
    by_fd = Array.make table_size no_sock;
    by_flow = Array.make table_size no_sock;
  }

let backend t = t.backend

let sanitize =
  match Sys.getenv_opt "NYX_SANITIZE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(* Slot [i] of an index, [no_sock] past its end. *)
let slot a i = if i >= 0 && i < Array.length a then Array.unsafe_get a i else no_sock

(* [a] with room for slot [i]. *)
let grown a i =
  if i < Array.length a then a
  else begin
    let b = Array.make (max (i + 1) (2 * Array.length a)) no_sock in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let index_fd t fd s =
  t.by_fd <- grown t.by_fd fd;
  t.by_fd.(fd) <- s

let index_flow t fl s =
  t.by_flow <- grown t.by_flow fl;
  t.by_flow.(fl) <- s

(* The fd and flow index of [st]'s tables, with [sock] giving the
   record for a socket id ([no_sock] for a dead one). *)
let index_of st sock =
  let by_fd = Array.make st.next_fd no_sock and by_flow = Array.make st.next_flow no_sock in
  Hashtbl.iter (fun fd (sid, _) -> by_fd.(fd) <- sock sid) st.fds;
  Hashtbl.iter (fun fl sid -> by_flow.(fl) <- sock sid) st.flows;
  (by_fd, by_flow)

let live_sock st sid = Option.value ~default:no_sock (Hashtbl.find_opt st.socks sid)

(* NYX_SANITIZE: every slot must hold the very socket record the tables
   name. *)
let check_index t =
  let by_fd, by_flow = index_of t.st (live_sock t.st) in
  let agree what a expected =
    for i = 0 to max (Array.length a) (Array.length expected) - 1 do
      if slot a i != slot expected i then
        failwith
          (Printf.sprintf "Net: the descriptor index disagrees with the tables at %s %d" what i)
    done
  in
  agree "fd" t.by_fd by_fd;
  agree "flow" t.by_flow by_flow

let checked t = if sanitize then check_index t

(* In-place reload. The first load of a capture decodes it once into a
   template, and every load rewrites the live state from the template:
   the four tables are emptied and refilled, and each socket's fields are
   copied into a record kept for that socket. The result marshals to the
   capture's exact bytes:
   - Each table is refilled bucket by bucket, every chain from its tail,
     with [Hashtbl.add]: the same bucket array, the same chain order.
     [Hashtbl.reset] keeps the live bucket array, or replaces an outgrown
     one with a fresh [table_size] one. A template whose own tables grew
     past [table_size] buckets cannot be rebuilt this way, so its
     captures are reloaded with [Marshal] every time.
   - Immutable values (option lists, backlogs, fd entries) are shared
     with the template; each appears once in it, as in the capture.
   - Packet bytes are copied, so the guest never writes into the
     template and no two live packets share bytes.
   The template also holds the descriptor index over its live twins,
   which each load copies in. Under NYX_SANITIZE every in-place load
   re-marshals the state and raises if the image differs from the
   capture. *)

type refill = {
  r_socks : (int * sock * sock) array; (* sid, template socket, live twin *)
  r_fds : (int * (int * int)) array;
  r_flows : (int * int) array;
  r_listeners : (int * int) array;
  r_by_fd : sock array; (* the index over the live twins *)
  r_by_flow : sock array;
  r_state : state; (* the decoded capture, never mutated *)
}

type template = { image : bytes; refill : refill option (* [None]: reload *) }

(* A table's bindings in the order that re-adds them into the same chains:
   [Hashtbl.fold] visits buckets in order, each chain head first, and
   consing reverses that. *)
let add_order tbl = Array.of_list (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let buckets tbl = (Hashtbl.stats tbl).Hashtbl.num_buckets

let template_of image =
  let st : state = Marshal.from_bytes image 0 in
  let refill =
    if
      buckets st.socks > table_size
      || buckets st.fds > table_size
      || buckets st.flows > table_size
      || buckets st.listeners > table_size
    then None
    else begin
      let r_socks =
        Array.map (fun (sid, s) -> (sid, s, { s with port = s.port })) (add_order st.socks)
      in
      let twin sid =
        match Array.find_opt (fun (id, _, _) -> id = sid) r_socks with
        | Some (_, _, live) -> live
        | None -> no_sock
      in
      let r_by_fd, r_by_flow = index_of st twin in
      Some
        {
          r_socks;
          r_fds = add_order st.fds;
          r_flows = add_order st.flows;
          r_listeners = add_order st.listeners;
          r_by_fd;
          r_by_flow;
          r_state = st;
        }
    end
  in
  { image; refill }

let copy_packet (fl, data) = (fl, Bytes.copy data)

let refill_table tbl entries =
  Hashtbl.reset tbl;
  for i = 0 to Array.length entries - 1 do
    let k, v = entries.(i) in
    Hashtbl.add tbl k v
  done

(* [a] holding exactly [src]'s slots. *)
let refilled a src =
  let n = Array.length src in
  let a = if Array.length a < n then Array.make n no_sock else a in
  Array.blit src 0 a 0 n;
  Array.fill a n (Array.length a - n) no_sock;
  a

let refill_state st r =
  Hashtbl.reset st.socks;
  for i = 0 to Array.length r.r_socks - 1 do
    let sid, s, live = r.r_socks.(i) in
    live.port <- s.port;
    live.listening <- s.listening;
    live.backlog <- s.backlog;
    live.inbox <- List.map copy_packet s.inbox;
    live.partial <- Option.map copy_packet s.partial;
    live.out_rev <- List.map copy_packet s.out_rev;
    live.peer_open <- s.peer_open;
    live.eof_pending <- s.eof_pending;
    live.refcount <- s.refcount;
    live.conn_flow <- s.conn_flow;
    live.reply_flow <- s.reply_flow;
    live.write_shut <- s.write_shut;
    live.options <- s.options;
    live.outbound <- s.outbound;
    Hashtbl.add st.socks sid live
  done;
  refill_table st.fds r.r_fds;
  refill_table st.flows r.r_flows;
  refill_table st.listeners r.r_listeners;
  let src = r.r_state in
  st.next_fd <- src.next_fd;
  st.next_sid <- src.next_sid;
  st.next_flow <- src.next_flow;
  st.processes <- src.processes;
  st.syscalls <- src.syscalls

(* The last two captures loaded, most recent first: a root restore loads
   the incremental snapshot's capture and then the root's. *)
let load t cache image =
  let tp =
    match !cache with
    | tp :: _ when tp.image == image -> tp
    | [ recent; tp ] when tp.image == image ->
      cache := [ tp; recent ];
      tp
    | cached ->
      let tp = template_of image in
      cache := (match cached with [] -> [ tp ] | recent :: _ -> [ tp; recent ]);
      tp
  in
  (match tp.refill with
  | None ->
    t.st <- Marshal.from_bytes image 0;
    let by_fd, by_flow = index_of t.st (live_sock t.st) in
    t.by_fd <- by_fd;
    t.by_flow <- by_flow
  | Some r ->
    refill_state t.st r;
    t.by_fd <- refilled t.by_fd r.r_by_fd;
    t.by_flow <- refilled t.by_flow r.r_by_flow;
    if sanitize && not (Bytes.equal (Marshal.to_bytes t.st []) image) then
      failwith "Net: in-place reload does not reproduce the captured state");
  checked t

let register_aux t aux =
  let cache = ref [] in
  Nyx_snapshot.Aux_state.register aux
    {
      Nyx_snapshot.Aux_state.name = "netemu";
      save = (fun () -> Marshal.to_bytes t.st []);
      load = load t cache;
    };
  (* The syscall counter is pure telemetry: it advances on every poll, so
     leaving it in the hashed image would make every op look like a new
     protocol state (the Marshal varint grows and shifts all later bytes
     across hash chunks). Zero it for the hash view only — snapshots keep
     capturing the exact state. *)
  Nyx_snapshot.Aux_state.register_hash_view aux ~name:"netemu" (fun () ->
      let saved = t.st.syscalls in
      t.st.syscalls <- 0;
      Fun.protect
        ~finally:(fun () -> t.st.syscalls <- saved)
        (fun () -> Marshal.to_bytes t.st []))

let charge t cost_real =
  t.st.syscalls <- t.st.syscalls + 1;
  let ns = match t.backend with Emulated -> Nyx_sim.Cost.emulated_syscall | Real -> cost_real in
  Nyx_sim.Clock.advance t.clock ns

let charge_syscall t = charge t Nyx_sim.Cost.real_syscall

let sock_of_fd t fd =
  let s = slot t.by_fd fd in
  if s == no_sock then raise (Bad_fd fd) else s

let new_sock t proto =
  let st = t.st in
  let s =
    {
      sid = st.next_sid;
      proto;
      port = 0;
      listening = false;
      backlog = [];
      inbox = [];
      partial = None;
      out_rev = [];
      peer_open = true;
      eof_pending = false;
      refcount = 0;
      conn_flow = -1;
      reply_flow = -1;
      write_shut = false;
      options = [];
      outbound = false;
    }
  in
  st.next_sid <- st.next_sid + 1;
  Hashtbl.replace st.socks s.sid s;
  s

let attach_fd t sid =
  let st = t.st in
  let fd = st.next_fd in
  st.next_fd <- st.next_fd + 1;
  Hashtbl.replace st.fds fd (sid, 1);
  let s = Hashtbl.find st.socks sid in
  s.refcount <- s.refcount + 1;
  index_fd t fd s;
  checked t;
  fd

(* Target-side API *)

let socket t proto =
  charge_syscall t;
  let s = new_sock t proto in
  attach_fd t s.sid

let bind t fd port =
  charge_syscall t;
  let s = sock_of_fd t fd in
  if Hashtbl.mem t.st.listeners port then
    invalid_arg (Printf.sprintf "Net.bind: port %d already bound" port);
  s.port <- port;
  Hashtbl.replace t.st.listeners port s.sid;
  (* A bound UDP socket is immediately able to receive. *)
  if s.proto = Udp then s.listening <- true

let listen t fd =
  charge_syscall t;
  let s = sock_of_fd t fd in
  if s.port = 0 then invalid_arg "Net.listen: socket not bound";
  s.listening <- true

let accept t fd =
  charge t Nyx_sim.Cost.real_connect;
  let s = sock_of_fd t fd in
  if not s.listening then invalid_arg "Net.accept: not listening";
  match s.backlog with
  | [] -> raise (Would_block fd)
  | sid :: rest ->
    s.backlog <- rest;
    attach_fd t sid

let take_packet s ~max ~datagram =
  match s.partial with
  | Some (fl, data) when not datagram ->
    if Bytes.length data <= max then begin
      s.partial <- None;
      (data, fl)
    end
    else begin
      s.partial <- Some (fl, Bytes.sub data max (Bytes.length data - max));
      (Bytes.sub data 0 max, fl)
    end
  | Some (fl, data) ->
    (* Datagram semantics: the tail beyond [max] is dropped. *)
    s.partial <- None;
    (Bytes.sub data 0 (min max (Bytes.length data)), fl)
  | None -> (
    match s.inbox with
    | [] ->
      if s.eof_pending || not s.peer_open then begin
        s.eof_pending <- false;
        (Bytes.empty, s.conn_flow)
      end
      else raise (Would_block (-1))
    | (fl, data) :: rest ->
      s.inbox <- rest;
      if datagram then (Bytes.sub data 0 (min max (Bytes.length data)), fl)
      else if Bytes.length data <= max then (data, fl)
      else begin
        s.partial <- Some (fl, Bytes.sub data max (Bytes.length data - max));
        (Bytes.sub data 0 max, fl)
      end)

(* Without boundary emulation the stream is coalesced: keep pulling queued
   packets until [max] is filled — the behaviour a real TCP stack is
   allowed to exhibit and which breaks boundary-reliant servers. *)
let take_stream s ~max =
  let buf = Buffer.create max in
  let fl = ref s.conn_flow in
  (try
     while Buffer.length buf < max do
       let data, f = take_packet s ~max:(max - Buffer.length buf) ~datagram:false in
       if Bytes.length data = 0 then raise Exit;
       fl := f;
       Buffer.add_bytes buf data
     done
   with Would_block _ | Exit -> ());
  if Buffer.length buf = 0 then begin
    if s.eof_pending || not s.peer_open then begin
      s.eof_pending <- false;
      (Bytes.empty, !fl)
    end
    else raise (Would_block (-1))
  end
  else (Bytes.of_string (Buffer.contents buf), !fl)

let recv t fd ~max =
  charge t (Nyx_sim.Cost.real_packet max);
  let s = sock_of_fd t fd in
  try
    let data, _ =
      if t.boundaries || s.proto = Udp then take_packet s ~max ~datagram:(s.proto = Udp)
      else take_stream s ~max
    in
    data
  with Would_block _ -> raise (Would_block fd)

let recvfrom t fd ~max =
  charge t (Nyx_sim.Cost.real_packet max);
  let s = sock_of_fd t fd in
  try
    let data, fl = take_packet s ~max ~datagram:true in
    s.reply_flow <- fl;
    (data, fl)
  with Would_block _ -> raise (Would_block fd)

let send t fd data =
  charge t (Nyx_sim.Cost.real_packet (Bytes.length data));
  let s = sock_of_fd t fd in
  if s.write_shut then invalid_arg "Net.send: socket shut down for writing (EPIPE)";
  let fl = if s.conn_flow >= 0 then s.conn_flow else s.reply_flow in
  s.out_rev <- (fl, Bytes.copy data) :: s.out_rev;
  Bytes.length data

let sendto t fd fl data =
  charge t (Nyx_sim.Cost.real_packet (Bytes.length data));
  let s = sock_of_fd t fd in
  s.out_rev <- (fl, Bytes.copy data) :: s.out_rev;
  Bytes.length data

let close t fd =
  charge_syscall t;
  let s = sock_of_fd t fd in
  (* The fd number disappears only when no process holds it any more;
     the socket itself dies with its last reference. *)
  (match Hashtbl.find_opt t.st.fds fd with
  | Some (sid, n) when n > 1 -> Hashtbl.replace t.st.fds fd (sid, n - 1)
  | _ ->
    Hashtbl.remove t.st.fds fd;
    index_fd t fd no_sock);
  s.refcount <- s.refcount - 1;
  if s.refcount <= 0 then begin
    if s.port <> 0 && Hashtbl.find_opt t.st.listeners s.port = Some s.sid then
      Hashtbl.remove t.st.listeners s.port;
    if s.conn_flow >= 0 then Hashtbl.remove t.st.flows s.conn_flow;
    Hashtbl.remove t.st.socks s.sid;
    (* A dead UDP socket keeps its peers' [flows] bindings, so clear
       every slot that names it, not only its own flow's. *)
    let by_flow = t.by_flow in
    for fl = 0 to Array.length by_flow - 1 do
      if by_flow.(fl) == s then by_flow.(fl) <- no_sock
    done
  end;
  checked t

let dup t fd =
  charge_syscall t;
  let s = sock_of_fd t fd in
  attach_fd t s.sid

let connect_out t fd ~port =
  charge t Nyx_sim.Cost.real_connect;
  let s = sock_of_fd t fd in
  if s.conn_flow >= 0 then invalid_arg "Net.connect_out: already connected";
  s.port <- port;
  s.outbound <- true;
  let fl = t.st.next_flow in
  t.st.next_flow <- fl + 1;
  s.conn_flow <- fl;
  Hashtbl.replace t.st.flows fl s.sid;
  index_flow t fl s;
  checked t;
  fl

let shutdown t fd how =
  charge_syscall t;
  let s = sock_of_fd t fd in
  (match how with
  | `Read | `Both ->
    s.inbox <- [];
    s.partial <- None;
    s.peer_open <- false;
    s.eof_pending <- true
  | `Write -> ());
  match how with `Write | `Both -> s.write_shut <- true | `Read -> ()

let peek t fd ~max =
  charge t (Nyx_sim.Cost.real_packet max);
  let s = sock_of_fd t fd in
  match s.partial with
  | Some (_, data) -> Bytes.sub data 0 (min max (Bytes.length data))
  | None -> (
    match s.inbox with
    | (_, data) :: _ -> Bytes.sub data 0 (min max (Bytes.length data))
    | [] ->
      if s.eof_pending || not s.peer_open then Bytes.empty else raise (Would_block fd))

let getpeername t fd =
  charge_syscall t;
  let s = sock_of_fd t fd in
  if s.conn_flow >= 0 then Some s.conn_flow else None

let getsockname t fd =
  charge_syscall t;
  (sock_of_fd t fd).port

let setsockopt t fd name value =
  charge_syscall t;
  let s = sock_of_fd t fd in
  s.options <- (name, value) :: List.remove_assoc name s.options

let getsockopt t fd name =
  charge_syscall t;
  let s = sock_of_fd t fd in
  Option.value ~default:0 (List.assoc_opt name s.options)

type event = Idle | Accept | Read

(* Readiness of one socket: a pending connection, data or EOF to read, or
   nothing. *)
let event s =
  match s.backlog with
  | _ :: _ when s.listening && s.proto <> Udp -> Accept
  | _ -> (
    match (s.inbox, s.partial) with
    | _ :: _, _ | _, Some _ -> Read
    | [], None -> if s.eof_pending then Read else Idle)

let poll t =
  charge t Nyx_sim.Cost.real_syscall;
  (* The ready socket with the lowest id that has a descriptor, at its
     lowest fd: one ascending scan of the fd index, where a socket's
     first fd is its lowest. *)
  let by_fd = t.by_fd in
  let best = ref no_sock and best_fd = ref (-1) in
  for fd = 0 to min t.st.next_fd (Array.length by_fd) - 1 do
    let s = Array.unsafe_get by_fd fd in
    if s.sid < !best.sid && event s <> Idle then begin
      best := s;
      best_fd := fd
    end
  done;
  if !best == no_sock then None
  else
    match event !best with
    | Accept -> Some (`Accept !best_fd)
    | Read | Idle -> Some (`Read !best_fd)

let fork t =
  charge t Nyx_sim.Cost.fork;
  (* The child inherits every fd: bump the per-fd count and each socket's
     reference count. *)
  let entries = Hashtbl.fold (fun fd e acc -> (fd, e) :: acc) t.st.fds [] in
  List.iter
    (fun (fd, (sid, n)) ->
      Hashtbl.replace t.st.fds fd (sid, n + 1);
      let s = Hashtbl.find t.st.socks sid in
      s.refcount <- s.refcount + 1)
    entries;
  t.st.processes <- t.st.processes + 1;
  t.st.processes

(* Executor-side API *)

let connect_peer t ~port =
  (match t.backend with
  | Emulated -> Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.emulated_syscall
  | Real -> Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.real_connect);
  match Hashtbl.find_opt t.st.listeners port with
  | None -> None
  | Some sid ->
    let listener = Hashtbl.find t.st.socks sid in
    if (not listener.listening) || listener.proto = Udp then None
    else begin
      let conn = new_sock t listener.proto in
      let fl = t.st.next_flow in
      t.st.next_flow <- fl + 1;
      conn.conn_flow <- fl;
      conn.port <- 0;
      Hashtbl.replace t.st.flows fl conn.sid;
      index_flow t fl conn;
      listener.backlog <- listener.backlog @ [ conn.sid ];
      checked t;
      Some fl
    end

let sock_of_flow t fl =
  let s = slot t.by_flow fl in
  if s != no_sock then s
  else if Hashtbl.mem t.st.flows fl then
    invalid_arg (Printf.sprintf "Net: flow %d socket closed" fl)
  else invalid_arg (Printf.sprintf "Net: unknown flow %d" fl)

let inject_cost t len =
  match t.backend with
  | Emulated -> Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.emulated_syscall
  | Real -> Nyx_sim.Clock.advance t.clock (Nyx_sim.Cost.real_packet len)

let send_peer t fl data =
  inject_cost t (Bytes.length data);
  (* A zero-length send transfers nothing; delivering it would read as an
     orderly shutdown on the receiving side. *)
  if Bytes.length data > 0 then begin
    let s = sock_of_flow t fl in
    s.inbox <- s.inbox @ [ (fl, Bytes.copy data) ]
  end

let udp_send_peer t ~port ?flow data =
  inject_cost t (Bytes.length data);
  match Hashtbl.find_opt t.st.listeners port with
  | None -> None
  | Some sid ->
    let s = Hashtbl.find t.st.socks sid in
    if s.proto <> Udp then None
    else begin
      let fl =
        match flow with
        | Some fl -> fl
        | None ->
          let fl = t.st.next_flow in
          t.st.next_flow <- fl + 1;
          Hashtbl.replace t.st.flows fl sid;
          index_flow t fl s;
          checked t;
          fl
      in
      s.inbox <- s.inbox @ [ (fl, Bytes.copy data) ];
      Some fl
    end

let close_peer t fl =
  let s = sock_of_flow t fl in
  s.peer_open <- false;
  s.eof_pending <- true

(* Flow [fl]'s replies in a newest-first queue, oldest first. This and
   [drop_flow] take [fl] as an argument: local closures over it would
   allocate on every [responses] call. *)
let rec replies_of (fl : flow) acc = function
  | [] -> acc
  | (f, d) :: rest -> replies_of fl (if f = fl then d :: acc else acc) rest

(* The queue without flow [fl]'s replies, in the same order. *)
let[@tail_mod_cons] rec drop_flow (fl : flow) = function
  | [] -> []
  | ((f, _) as r) :: rest -> if f = fl then drop_flow fl rest else r :: drop_flow fl rest

let responses t fl =
  let collect s =
    let mine = replies_of fl [] s.out_rev in
    s.out_rev <- drop_flow fl s.out_rev;
    mine
  in
  (* The flow's own socket; without a live one, every socket, as a UDP
     socket may have replied to it via sendto. *)
  let s = slot t.by_flow fl in
  if s != no_sock then collect s
  else Hashtbl.fold (fun _ s acc -> acc @ collect s) t.st.socks []

let discard_responses t fl =
  let s = slot t.by_flow fl in
  if s != no_sock then s.out_rev <- drop_flow fl s.out_rev
  else Hashtbl.iter (fun _ s -> s.out_rev <- drop_flow fl s.out_rev) t.st.socks

let outbound_flows t =
  Hashtbl.fold
    (fun _ s acc -> if s.outbound && s.conn_flow >= 0 then s.conn_flow :: acc else acc)
    t.st.socks []
  |> List.sort compare

let listening_ports t =
  Hashtbl.fold
    (fun port sid acc ->
      match Hashtbl.find_opt t.st.socks sid with
      | Some s when s.listening -> (port, s.proto) :: acc
      | _ -> acc)
    t.st.listeners []
  |> List.sort compare

let open_socket_count t = Hashtbl.length t.st.socks
let syscall_count t = t.st.syscalls
