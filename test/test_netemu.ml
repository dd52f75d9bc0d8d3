open Nyx_netemu

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let b = Bytes.of_string

let mk ?backend ?boundaries () =
  let clock = Nyx_sim.Clock.create () in
  (Net.create ?backend ?boundaries clock, clock)

(* A listening TCP server socket plus one accepted connection. *)
let with_tcp_conn ?boundaries () =
  let net, clock = mk ?boundaries () in
  let lfd = Net.socket net Net.Tcp in
  Net.bind net lfd 8080;
  Net.listen net lfd;
  let flow = Option.get (Net.connect_peer net ~port:8080) in
  let cfd =
    match Net.poll net with
    | Some (`Accept fd) -> Net.accept net fd
    | _ -> Alcotest.fail "expected accept readiness"
  in
  (net, clock, lfd, cfd, flow)

let test_lifecycle () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "hello");
  (match Net.poll net with
  | Some (`Read fd) -> check_int "readable fd" cfd fd
  | _ -> Alcotest.fail "expected read readiness");
  check_str "payload" "hello" (Bytes.to_string (Net.recv net cfd ~max:100));
  Alcotest.(check bool) "quiesced" true (Net.poll net = None)

let test_connection_refused () =
  let net, _ = mk () in
  Alcotest.(check (option int)) "no listener" None (Net.connect_peer net ~port:9);
  (* A UDP-bound port refuses TCP connects. *)
  let ufd = Net.socket net Net.Udp in
  Net.bind net ufd 53;
  Alcotest.(check (option int)) "udp port refuses tcp" None (Net.connect_peer net ~port:53)

let test_packet_boundaries_preserved () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "AAAA");
  Net.send_peer net flow (b "BBBB");
  (* One recv never crosses a packet boundary, even with room to spare. *)
  check_str "first packet only" "AAAA" (Bytes.to_string (Net.recv net cfd ~max:100));
  check_str "second packet" "BBBB" (Bytes.to_string (Net.recv net cfd ~max:100))

let test_stream_mode_coalesces () =
  let net, _, _, cfd, flow = with_tcp_conn ~boundaries:false () in
  Net.send_peer net flow (b "AAAA");
  Net.send_peer net flow (b "BBBB");
  check_str "stream coalesced" "AAAABBBB" (Bytes.to_string (Net.recv net cfd ~max:100))

let test_partial_reads () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "ABCDEFGH");
  check_str "first chunk" "ABC" (Bytes.to_string (Net.recv net cfd ~max:3));
  check_str "second chunk" "DEF" (Bytes.to_string (Net.recv net cfd ~max:3));
  check_str "tail" "GH" (Bytes.to_string (Net.recv net cfd ~max:3))

let test_empty_send_dropped () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow Bytes.empty;
  Alcotest.(check bool) "no readiness from empty send" true (Net.poll net = None);
  Net.send_peer net flow (b "X");
  check_str "later data intact" "X" (Bytes.to_string (Net.recv net cfd ~max:10))

let test_eof_on_peer_close () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "last");
  Net.close_peer net flow;
  check_str "queued data first" "last" (Bytes.to_string (Net.recv net cfd ~max:100));
  (match Net.poll net with
  | Some (`Read _) -> ()
  | _ -> Alcotest.fail "EOF must be reported as readability");
  check_str "then EOF" "" (Bytes.to_string (Net.recv net cfd ~max:100))

let test_would_block () =
  let net, _, _, cfd, _ = with_tcp_conn () in
  Alcotest.check_raises "recv on empty open socket" (Net.Would_block cfd) (fun () ->
      ignore (Net.recv net cfd ~max:10))

let test_responses_drained () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  ignore (Net.send net cfd (b "r1"));
  ignore (Net.send net cfd (b "r2"));
  Alcotest.(check (list string)) "responses in order" [ "r1"; "r2" ]
    (List.map Bytes.to_string (Net.responses net flow));
  Alcotest.(check (list string)) "drained" [] (List.map Bytes.to_string (Net.responses net flow))

let test_dup_refcount () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  let dup_fd = Net.dup net cfd in
  Net.close net cfd;
  (* The socket lives on through the dup. *)
  Net.send_peer net flow (b "via-dup");
  check_str "readable via dup" "via-dup" (Bytes.to_string (Net.recv net dup_fd ~max:100));
  Net.close net dup_fd;
  Alcotest.check_raises "socket gone after last close"
    (Invalid_argument "Net: unknown flow 1") (fun () ->
      Net.send_peer net flow (b "x"))

let test_fork_shares_fds () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  check_int "two processes" 2 (Net.fork net);
  (* Parent closes: the child's inherited reference keeps both the fd
     number and the socket alive. *)
  Net.close net cfd;
  Net.send_peer net flow (b "to-child");
  (match Net.poll net with
  | Some (`Read fd) ->
    check_int "same fd visible to child" cfd fd;
    Alcotest.(check string) "data delivered" "to-child"
      (Bytes.to_string (Net.recv net fd ~max:100))
  | _ -> Alcotest.fail "expected readability in child");
  (* The child's close is the last reference: now the socket dies. *)
  Net.close net cfd;
  Alcotest.check_raises "socket gone" (Invalid_argument "Net: unknown flow 1") (fun () ->
      Net.send_peer net flow (b "x"))

let test_udp_flows () =
  let net, _ = mk () in
  let ufd = Net.socket net Net.Udp in
  Net.bind net ufd 53;
  let fl1 = Option.get (Net.udp_send_peer net ~port:53 (b "query1")) in
  let fl2 = Option.get (Net.udp_send_peer net ~port:53 (b "query2")) in
  Alcotest.(check bool) "distinct flows" true (fl1 <> fl2);
  let d1, from1 = Net.recvfrom net ufd ~max:100 in
  check_str "first datagram" "query1" (Bytes.to_string d1);
  check_int "from first flow" fl1 from1;
  (* Reply goes to the most recent sender by default. *)
  ignore (Net.send net ufd (b "resp1"));
  Alcotest.(check (list string)) "reply routed" [ "resp1" ]
    (List.map Bytes.to_string (Net.responses net fl1));
  let _, from2 = Net.recvfrom net ufd ~max:100 in
  check_int "second flow" fl2 from2;
  ignore (Net.sendto net ufd fl2 (b "resp2"));
  Alcotest.(check (list string)) "sendto routed" [ "resp2" ]
    (List.map Bytes.to_string (Net.responses net fl2))

let test_udp_datagram_truncation () =
  let net, _ = mk () in
  let ufd = Net.socket net Net.Udp in
  Net.bind net ufd 53;
  ignore (Net.udp_send_peer net ~port:53 (b "0123456789"));
  let d, _ = Net.recvfrom net ufd ~max:4 in
  check_str "truncated" "0123" (Bytes.to_string d);
  (* The tail is gone, as UDP discards it. *)
  Alcotest.(check bool) "tail discarded" true (Net.poll net = None)

let test_listening_ports () =
  let net, _ = mk () in
  let t = Net.socket net Net.Tcp in
  Net.bind net t 21;
  Net.listen net t;
  let u = Net.socket net Net.Udp in
  Net.bind net u 53;
  Alcotest.(check (list (pair int bool))) "surface"
    [ (21, true); (53, false) ]
    (List.map (fun (p, proto) -> (p, proto = Net.Tcp)) (Net.listening_ports net))

let test_costs_differ_by_backend () =
  let run backend =
    let net, clock = mk ~backend () in
    let lfd = Net.socket net Net.Tcp in
    Net.bind net lfd 8080;
    Net.listen net lfd;
    let fl = Option.get (Net.connect_peer net ~port:8080) in
    Net.send_peer net fl (b "data");
    Nyx_sim.Clock.now_ns clock
  in
  let emulated = run Net.Emulated and real = run Net.Real in
  Alcotest.(check bool)
    (Printf.sprintf "real (%d) >> emulated (%d)" real emulated)
    true
    (real > 20 * emulated)

let test_snapshot_roundtrip () =
  let clock = Nyx_sim.Clock.create () in
  let net = Net.create clock in
  let aux = Nyx_snapshot.Aux_state.create () in
  Net.register_aux net aux;
  let lfd = Net.socket net Net.Tcp in
  Net.bind net lfd 8080;
  Net.listen net lfd;
  let cap = Nyx_snapshot.Aux_state.capture aux clock in
  (* Mutate heavily: connect, transfer, close the listener. *)
  let fl = Option.get (Net.connect_peer net ~port:8080) in
  (match Net.poll net with
  | Some (`Accept fd) ->
    let cfd = Net.accept net fd in
    Net.send_peer net fl (b "x");
    ignore (Net.recv net cfd ~max:10);
    Net.close net cfd
  | _ -> Alcotest.fail "expected accept");
  Net.close net lfd;
  Alcotest.(check (list (pair int bool))) "listener gone" []
    (List.map (fun (p, _) -> (p, true)) (Net.listening_ports net));
  (* Restore: pristine listening state, flow gone. *)
  Nyx_snapshot.Aux_state.restore aux clock cap;
  check_int "one socket again" 1 (Net.open_socket_count net);
  Alcotest.(check bool) "listening again" true (Net.listening_ports net = [ (8080, Net.Tcp) ]);
  Alcotest.(check bool) "can connect again" true (Net.connect_peer net ~port:8080 <> None)


(* Extended hook surface *)

let test_shutdown_write () =
  let net, _, _, cfd, _ = with_tcp_conn () in
  Net.shutdown net cfd `Write;
  Alcotest.check_raises "EPIPE after write shutdown"
    (Invalid_argument "Net.send: socket shut down for writing (EPIPE)") (fun () ->
      ignore (Net.send net cfd (b "x")))

let test_shutdown_read () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "queued");
  Net.shutdown net cfd `Read;
  (* Queued input is discarded and the next read is EOF. *)
  check_str "eof" "" (Bytes.to_string (Net.recv net cfd ~max:10));
  (* Writing still works after a read-side shutdown. *)
  ignore (Net.send net cfd (b "still-writable"))

let test_peek_does_not_consume () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "hello");
  check_str "peek sees data" "hel" (Bytes.to_string (Net.peek net cfd ~max:3));
  check_str "peek again" "hello" (Bytes.to_string (Net.peek net cfd ~max:10));
  check_str "recv still gets it" "hello" (Bytes.to_string (Net.recv net cfd ~max:10));
  Alcotest.check_raises "now empty" (Net.Would_block cfd) (fun () ->
      ignore (Net.peek net cfd ~max:4))


let test_connect_out () =
  let net, _ = mk () in
  let fd = Net.socket net Net.Tcp in
  let flow = Net.connect_out net fd ~port:3306 in
  Alcotest.(check (list int)) "outbound flow visible" [ flow ] (Net.outbound_flows net);
  Alcotest.(check (option int)) "peer known" (Some flow) (Net.getpeername net fd);
  (* The fuzzer (playing the server) injects a packet; the client reads it. *)
  Net.send_peer net flow (b "greeting");
  check_str "client receives" "greeting" (Bytes.to_string (Net.recv net fd ~max:100));
  (* The client replies; the fuzzer drains it. *)
  ignore (Net.send net fd (b "login"));
  Alcotest.(check (list string)) "reply visible to fuzzer" [ "login" ]
    (List.map Bytes.to_string (Net.responses net flow));
  Alcotest.check_raises "double connect"
    (Invalid_argument "Net.connect_out: already connected") (fun () ->
      ignore (Net.connect_out net fd ~port:3307))

let test_names_and_options () =
  let net, _, lfd, cfd, flow = with_tcp_conn () in
  check_int "listener bound port" 8080 (Net.getsockname net lfd);
  Alcotest.(check (option int)) "conn peer flow" (Some flow) (Net.getpeername net cfd);
  Alcotest.(check (option int)) "listener has no peer" None (Net.getpeername net lfd);
  check_int "option default" 0 (Net.getsockopt net lfd "SO_REUSEADDR");
  Net.setsockopt net lfd "SO_REUSEADDR" 1;
  Net.setsockopt net lfd "TCP_NODELAY" 1;
  Net.setsockopt net lfd "SO_REUSEADDR" 0;
  check_int "last write wins" 0 (Net.getsockopt net lfd "SO_REUSEADDR");
  check_int "other option kept" 1 (Net.getsockopt net lfd "TCP_NODELAY")

(* domain-safe: qcheck property closure, run on a single domain *)
let prop_boundary_sequence =
  QCheck.Test.make ~name:"packet sequence is received intact and in order" ~count:100
    QCheck.(small_list (string_of_size QCheck.Gen.(int_range 1 32)))
    (fun packets ->
      let net, _, _, cfd, flow = with_tcp_conn () in
      List.iter (fun p -> Net.send_peer net flow (Bytes.of_string p)) packets;
      let received = ref [] in
      (try
         while true do
           received := Bytes.to_string (Net.recv net cfd ~max:64) :: !received
         done
       with Net.Would_block _ -> ());
      List.rev !received = packets)

(* Random socket/fd tables: a script of hooked calls and peer actions
   over small pools of ports, fds and flows, run on two identical stacks
   in lockstep. After every step, [Net.poll] must match the reference
   scan; [Net.responses] on one stack must match the reference drain on
   the other, and so must [Net.discard_responses], leaving
   byte-identical kernel images. *)
module Mirror = Reference.Net_mirror

let script_gen =
  QCheck.Gen.(list_size (int_range 1 60) (triple (int_bound 16) small_nat small_nat))

(* Pools of the fds and flows a script's calls have returned so far. *)
type pools = { mutable fds : Net.fd list; mutable flows : Net.flow list }

(* Step [(k, i, j)]: hooked call or peer action [k] on the [i]th pooled
   fd or flow, with port, protocol and payload drawn from [j]. The fd and
   flow are picked once, so the step can run on several stacks. *)
let act pools (k, i, j) =
  let pick l = match l with [] -> -1 | _ -> List.nth l (i mod List.length l) in
  let fd = pick pools.fds and fl = pick pools.flows in
  let add_fd v = if not (List.mem v pools.fds) then pools.fds <- pools.fds @ [ v ] in
  let add_flow v = if not (List.mem v pools.flows) then pools.flows <- pools.flows @ [ v ] in
  let port = 1 + (j mod 3) in
  let payload = Bytes.make (j mod 5) 'x' in
  fun n ->
  match k with
  | 0 -> add_fd (Net.socket n (if j mod 2 = 0 then Net.Tcp else Net.Udp))
  | 1 -> Net.bind n fd port
  | 2 -> Net.listen n fd
  | 3 -> Option.iter add_flow (Net.connect_peer n ~port)
  | 4 -> Net.send_peer n fl payload
  | 5 ->
    Option.iter add_flow
      (Net.udp_send_peer n ~port ?flow:(if j mod 2 = 0 then None else Some fl) payload)
  | 6 -> add_fd (Net.accept n fd)
  | 7 -> add_fd (Net.dup n fd)
  | 8 -> ignore (Net.fork n)
  | 9 -> Net.close n fd
  | 10 -> Net.shutdown n fd (if j mod 2 = 0 then `Read else `Write)
  | 11 -> Net.close_peer n fl
  | 12 -> ignore (Net.recvfrom n fd ~max:(1 + (j mod 4)))
  | 13 -> ignore (Net.send n fd payload)
  | 14 -> ignore (Net.sendto n fd fl payload)
  | 15 -> ignore (Net.responses n fl)
  | _ -> Net.discard_responses n fl

let run_script script =
  let a, _ = mk () and b, _ = mk () in
  let pools = { fds = []; flows = [] } in
  let on_both f =
    let ra = try Some (f a) with _ -> None in
    let rb = try Some (f b) with _ -> None in
    ra = rb
  in
  let step ((k, i, _) as s) =
    let fl = match pools.flows with [] -> -1 | l -> List.nth l (i mod List.length l) in
    match k with
    | 15 ->
      let got = try Some (Net.responses a fl) with _ -> None in
      let expected = try Some (Mirror.responses b fl) with _ -> None in
      got = expected
    | 16 ->
      let got = try Ok (Net.discard_responses a fl) with e -> Error e in
      let expected = try Ok (ignore (Mirror.responses b fl)) with e -> Error e in
      got = expected
    | _ -> on_both (act pools s)
  in
  List.for_all
    (fun s ->
      (* The mirror's layout check comes before each use of the mirror. *)
      Mirror.mirror_ok b && step s && Mirror.mirror_ok a
      && (let expected = Mirror.poll a in
          let got = Net.poll a in
          ignore (Net.poll b);
          got = expected)
      && Bytes.equal (Mirror.image a) (Mirror.image b))
    script

let prop_poll_responses_match_reference =
  QCheck.Test.make ~name:"poll and responses == reference on random tables" ~count:500
    (QCheck.make script_gen) run_script

(* Snapshot restores rewrite the live state in place from a template of
   the capture. Capture after a random script, keep running, restore: the
   kernel image must equal the capture, over three rounds, so that the
   later loads reuse the template. From the second round on, every byte
   the guest receives or drains is overwritten before the script runs
   again: the restored state must not share bytes with the template.
   [grow] opens 40 sockets and closes 30 of them, before the capture
   (the template's tables keep more buckets than their bindings need, so
   every load takes the Marshal fallback) or after it (the live tables
   outgrow the template's). After every step of the script, [Net.poll]
   must match the reference scan and [Net.responses] on the step's flow
   the reference drain of a copy of the state, so that a descriptor
   index left stale by a load fails the round. *)
let open_many net =
  let fds = List.init 40 (fun _ -> Net.socket net Net.Tcp) in
  List.iteri (fun i fd -> if i < 30 then Net.close net fd) fds

let socks_buckets net =
  (Hashtbl.stats (Mirror.view net).Mirror.st.Mirror.socks).Hashtbl.num_buckets

let scribble pools net =
  let overwrite d = Bytes.fill d 0 (Bytes.length d) 'Z' in
  List.iter (fun fd -> try overwrite (Net.recv net fd ~max:64) with _ -> ()) pools.fds;
  List.iter (fun fl -> try List.iter overwrite (Net.responses net fl) with _ -> ()) pools.flows

let restore_rounds (prefix, suffix, grow) =
  let clock = Nyx_sim.Clock.create () in
  let net = Net.create clock in
  let aux = Nyx_snapshot.Aux_state.create () in
  Net.register_aux net aux;
  let pools = { fds = []; flows = [] } in
  let agrees (_, i, _) =
    let fl = match pools.flows with [] -> -1 | l -> List.nth l (i mod List.length l) in
    Mirror.mirror_ok net
    && (let expected = Mirror.poll net in
        Net.poll net = expected)
    &&
    let twin = Mirror.copy_state net in
    let expected = try Some (Mirror.drain twin fl) with _ -> None in
    (try Some (Net.responses net fl) with _ -> None) = expected
    && Bytes.equal (Mirror.image net) (Marshal.to_bytes twin [])
  in
  let run script =
    List.for_all
      (fun s ->
        (try act pools s net with _ -> ());
        agrees s)
      script
  in
  let prefix_agrees = run prefix in
  if grow = 1 then open_many net;
  let cap = Nyx_snapshot.Aux_state.capture aux clock in
  let image = Mirror.image net in
  prefix_agrees
  && (grow <> 1 || socks_buckets net > 16)
  && List.for_all
       (fun round ->
         if round > 0 then scribble pools net;
         let suffix_agrees = run suffix in
         if grow = 2 then open_many net;
         suffix_agrees
         && (grow <> 2 || socks_buckets net > 16)
         && begin
              Nyx_snapshot.Aux_state.restore aux clock cap;
              Bytes.equal (Mirror.image net) image
            end)
       [ 0; 1; 2 ]

let prop_restore_reproduces_capture =
  QCheck.Test.make ~name:"in-place restore reproduces the captured image" ~count:300
    (QCheck.make QCheck.Gen.(triple script_gen script_gen (int_bound 2)))
    restore_rounds

let () =
  Alcotest.run "nyx_netemu"
    [
      ( "tcp",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "refused" `Quick test_connection_refused;
          Alcotest.test_case "boundaries" `Quick test_packet_boundaries_preserved;
          Alcotest.test_case "stream mode" `Quick test_stream_mode_coalesces;
          Alcotest.test_case "partial reads" `Quick test_partial_reads;
          Alcotest.test_case "empty send" `Quick test_empty_send_dropped;
          Alcotest.test_case "eof" `Quick test_eof_on_peer_close;
          Alcotest.test_case "would block" `Quick test_would_block;
          Alcotest.test_case "responses" `Quick test_responses_drained;
          QCheck_alcotest.to_alcotest prop_boundary_sequence;
        ] );
      ( "fd table",
        [
          Alcotest.test_case "dup refcount" `Quick test_dup_refcount;
          Alcotest.test_case "fork shares" `Quick test_fork_shares_fds;
        ] );
      ( "udp",
        [
          Alcotest.test_case "flows" `Quick test_udp_flows;
          Alcotest.test_case "truncation" `Quick test_udp_datagram_truncation;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "shutdown write" `Quick test_shutdown_write;
          Alcotest.test_case "shutdown read" `Quick test_shutdown_read;
          Alcotest.test_case "peek" `Quick test_peek_does_not_consume;
          Alcotest.test_case "names and options" `Quick test_names_and_options;
          Alcotest.test_case "connect out" `Quick test_connect_out;
        ] );
      ( "misc",
        [
          Alcotest.test_case "listening ports" `Quick test_listening_ports;
          Alcotest.test_case "backend costs" `Quick test_costs_differ_by_backend;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest prop_poll_responses_match_reference;
          QCheck_alcotest.to_alcotest prop_restore_reproduces_capture;
        ] );
    ]
