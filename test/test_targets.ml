open Nyx_targets
open Nyx_netemu

let check_int = Alcotest.(check int)
let b = Bytes.of_string

(* Boot a registry target on a fresh VM with a hand-driven peer side. *)
type harness = {
  net : Net.t;
  ctx : Ctx.t;
  rt : Target.runtime;
  entry : Registry.entry;
}

let boot ?asan ?(layout_cookie = 1) name =
  let entry = Option.get (Registry.find name) in
  let clock = Nyx_sim.Clock.create () in
  let vm = Nyx_vm.Vm.create clock in
  let net = Net.create clock in
  let ctx = Ctx.of_vm ?asan ~layout_cookie ~net vm in
  let rt = Target.boot entry.Registry.target ctx in
  Target.pump rt;
  { net; ctx; rt; entry }

let port h = h.entry.Registry.target.Target.info.Target.port

let connect ?(drain_banner = true) h =
  let flow = Option.get (Net.connect_peer h.net ~port:(port h)) in
  Target.pump h.rt;
  if drain_banner then ignore (Net.responses h.net flow);
  flow

(* Send one packet and return the replies as strings. *)
let send h flow data =
  Net.send_peer h.net flow (b data);
  Target.pump h.rt;
  List.map Bytes.to_string (Net.responses h.net flow)

let send_bytes h flow data =
  Net.send_peer h.net flow data;
  Target.pump h.rt;
  List.map Bytes.to_string (Net.responses h.net flow)

let send_udp h ?flow data =
  let flow = Net.udp_send_peer h.net ~port:(port h) ?flow data in
  Target.pump h.rt;
  flow

let first_reply = function
  | [] -> Alcotest.fail "expected a reply"
  | r :: _ -> r

let code reply = int_of_string (String.sub reply 0 3)

let expect_crash kind f =
  match f () with
  | exception Ctx.Crash { kind = k; _ } -> Alcotest.(check string) "crash kind" kind k
  | _ -> Alcotest.fail (Printf.sprintf "expected %s crash" kind)

(* All targets boot and listen *)

let test_all_targets_boot () =
  List.iter
    (fun entry ->
      let name = entry.Registry.target.Target.info.Target.name in
      let h = boot name in
      match entry.Registry.target.Target.info.Target.role with
      | Target.Server ->
        check_int (name ^ " listens on its port") 1
          (List.length (Net.listening_ports h.net))
      | Target.Client ->
        check_int (name ^ " dialed out") 1 (List.length (Net.outbound_flows h.net)))
    (Registry.all ())

let test_all_seeds_execute_cleanly () =
  (* Seed traffic is well-formed: replaying it must not crash anything. *)
  List.iter
    (fun entry ->
      let name = entry.Registry.target.Target.info.Target.name in
      let ns = Nyx_spec.Net_spec.create () in
      let exec = Nyx_core.Executor.create ~net_spec:ns entry.Registry.target in
      List.iter
        (fun program ->
          let r = Nyx_core.Executor.run_full exec program in
          match r.Nyx_core.Report.status with
          | Nyx_core.Report.Pass -> ()
          | Nyx_core.Report.Crash { kind; detail } ->
            Alcotest.fail (Printf.sprintf "%s seed crashed: %s (%s)" name kind detail)
          | Nyx_core.Report.Hang -> Alcotest.fail (name ^ " seed hung"))
        (Registry.seed_programs entry ns))
    (Registry.all ())

(* FTP family *)

let test_ftp_banner_and_auth () =
  let h = boot "bftpd" in
  let flow = connect ~drain_banner:false h in
  (* Banner arrives on connect. *)
  Alcotest.(check bool) "banner" true
    (List.exists
       (fun r -> String.length r > 3 && String.sub r 0 3 = "220")
       (List.map Bytes.to_string (Net.responses h.net flow)));
  check_int "auth required" 530 (code (first_reply (send h flow "PWD\r\n")));
  check_int "user accepted" 331 (code (first_reply (send h flow "USER alice\r\n")));
  check_int "pass accepted" 230 (code (first_reply (send h flow "PASS secret\r\n")));
  check_int "now allowed" 257 (code (first_reply (send h flow "PWD\r\n")))

let test_ftp_pass_before_user () =
  let h = boot "bftpd" in
  let flow = connect h in
  check_int "503 out of order" 503 (code (first_reply (send h flow "PASS x\r\n")))

let test_ftp_stor_retr_state () =
  let h = boot "lightftp" in
  let flow = connect h in
  ignore (send h flow "USER u\r\n");
  ignore (send h flow "PASS p\r\n");
  check_int "missing file" 550 (code (first_reply (send h flow "RETR nope.txt\r\n")));
  check_int "stored" 226 (code (first_reply (send h flow "STOR nope.txt\r\n")));
  check_int "now present" 226 (code (first_reply (send h flow "RETR nope.txt\r\n")))

let test_ftp_unsupported_command () =
  let h = boot "lightftp" in
  let flow = connect h in
  ignore (send h flow "USER u\r\n");
  ignore (send h flow "PASS p\r\n");
  (* lightftp's reduced command set lacks SITE. *)
  check_int "502 unsupported" 502 (code (first_reply (send h flow "SITE CHMOD 1 x\r\n")))

let login_ftp h flow =
  ignore (send h flow "USER u\r\n");
  ignore (send h flow "PASS p\r\n")

let test_proftpd_bug_needs_full_state () =
  (* Without the stored file, the crafted CHMOD is harmless. *)
  let h = boot "proftpd" in
  let flow = connect h in
  login_ftp h flow;
  check_int "no stored file" 550 (code (first_reply (send h flow "SITE CHMOD 7777 f.txt\r\n")));
  (* Benign mode on the stored file is fine. *)
  ignore (send h flow "STOR f.txt\r\n");
  check_int "benign chmod ok" 200 (code (first_reply (send h flow "SITE CHMOD 644 f.txt\r\n")));
  (* The full sequence with an oversized octal mode crashes. *)
  expect_crash "heap-overflow" (fun () -> send h flow "SITE CHMOD 7777 f.txt\r\n")

let test_pure_ftpd_quota_needs_accumulation () =
  let h = boot "pure-ftpd" in
  let flow = connect h in
  login_ftp h flow;
  for i = 1 to 19 do
    check_int "stores fine" 226 (code (first_reply (send h flow (Printf.sprintf "STOR f%d\r\n" i))))
  done;
  ignore (send h flow "STOR f20\r\n");
  expect_crash "oom-internal" (fun () -> send h flow "STOR f21\r\n")

(* dnsmasq *)

let test_dnsmasq_valid_query () =
  let h = boot "dnsmasq" in
  let q = Dnsmasq.make_query ~id:0xBEEF "host.example.com" in
  let flow = Option.get (send_udp h q) in
  let replies = Net.responses h.net flow in
  Alcotest.(check bool) "got a reply" true (replies <> []);
  let r = List.hd replies in
  check_int "id echoed" 0xBEEF ((Char.code (Bytes.get r 0) lsl 8) lor Char.code (Bytes.get r 1))

let test_dnsmasq_short_packet_ignored () =
  let h = boot "dnsmasq" in
  let flow = Option.get (send_udp h (b "tiny")) in
  Alcotest.(check (list string)) "no reply" [] (List.map Bytes.to_string (Net.responses h.net flow))

let test_dnsmasq_pointer_loop_crash () =
  let h = boot "dnsmasq" in
  let q = Dnsmasq.make_query "a.b" in
  (* Overwrite the first label length with a self-pointing compression
     pointer. *)
  Bytes.set q 12 '\xC0';
  Bytes.set q 13 '\x0C';
  expect_crash "stack-exhaustion" (fun () -> ignore (send_udp h q))

let test_dnsmasq_backward_pointer_ok () =
  let h = boot "dnsmasq" in
  let q = Dnsmasq.make_query "a.b" in
  (* Pointer to offset 4 (inside the header, reads as garbage label but
     terminates). *)
  Bytes.set q 12 '\xC0';
  Bytes.set q 13 '\x04';
  Alcotest.(check bool) "no crash" true (send_udp h q <> None)

(* tinydtls *)

let test_tinydtls_handshake () =
  let h = boot "tinydtls" in
  let flow = Option.get (send_udp h (Tinydtls.make_client_hello ())) in
  Alcotest.(check bool) "hello-verify sent" true (Net.responses h.net flow <> []);
  ignore (send_udp h ~flow (Tinydtls.make_client_hello ~with_cookie:true ()));
  Alcotest.(check bool) "server hello sent" true (Net.responses h.net flow <> [])

let test_tinydtls_fragment_underflow () =
  let h = boot "tinydtls" in
  let hello = Tinydtls.make_client_hello () in
  (* fragment_length lives at bytes 22..24 of the record; blow it up past
     the message length. *)
  Bytes.set hello 22 '\xFF';
  expect_crash "integer-underflow" (fun () -> ignore (send_udp h hello))

(* dcmtk *)

let oversized_data_pdu () =
  (* Element length 0xFFFF inside a small PDU: reads past the 64-byte
     parse buffer. *)
  Dcmtk.make_pdu 4 (b "\x00\x08\x00\x18\xff\xffXXXX")

let test_dcmtk_association_state_machine () =
  let h = boot "dcmtk" in
  let flow = connect h in
  (* Data before association is aborted (PDU type 7). *)
  let replies = send_bytes h flow (Dcmtk.make_echo_data ()) in
  check_int "abort" 7 (Char.code (List.hd replies).[0]);
  let replies = send_bytes h flow (Dcmtk.make_associate_rq ()) in
  check_int "associate-ac" 2 (Char.code (List.hd replies).[0]);
  let replies = send_bytes h flow (Dcmtk.make_echo_data ()) in
  check_int "data echoed" 4 (Char.code (List.hd replies).[0])

let test_dcmtk_oob_with_asan_crashes_immediately () =
  let h = boot ~asan:true "dcmtk" in
  let flow = connect h in
  ignore (send_bytes h flow (Dcmtk.make_associate_rq ()));
  match send_bytes h flow (oversized_data_pdu ()) with
  | exception Nyx_vm.Guest_heap.Heap_oob _ -> ()
  | _ -> Alcotest.fail "expected ASan violation"

let test_dcmtk_oob_without_asan_is_silent_on_good_layout () =
  (* layout_cookie=1 (1 land 7 <> 0): a single corruption survives. *)
  let h = boot ~layout_cookie:1 "dcmtk" in
  let flow = connect h in
  ignore (send_bytes h flow (Dcmtk.make_associate_rq ()));
  ignore (send_bytes h flow (oversized_data_pdu ()));
  Alcotest.(check pass) "survived one corruption" () ()

let test_dcmtk_oob_unlucky_layout_crashes () =
  let h = boot ~layout_cookie:8 "dcmtk" in
  let flow = connect h in
  ignore (send_bytes h flow (Dcmtk.make_associate_rq ()));
  expect_crash "segfault" (fun () -> send_bytes h flow (oversized_data_pdu ()))

let test_dcmtk_corruption_accumulates_across_connections () =
  (* Three corrupting associations in one process lifetime exhaust the
     budget — the state AFLNet accumulates and snapshots reset. *)
  let h = boot ~layout_cookie:1 "dcmtk" in
  let corrupt_once () =
    let flow = connect h in
    ignore (send_bytes h flow (Dcmtk.make_associate_rq ()));
    ignore (send_bytes h flow (oversized_data_pdu ()));
    Net.close_peer h.net flow;
    Target.pump h.rt
  in
  corrupt_once ();
  corrupt_once ();
  expect_crash "heap-corruption" corrupt_once

(* exim *)

let exim_reach_data h flow =
  check_int "greeting" 250 (code (first_reply (send h flow "EHLO client\r\n")));
  check_int "mail" 250 (code (first_reply (send h flow "MAIL FROM:<a@b>\r\n")));
  check_int "rcpt" 250 (code (first_reply (send h flow "RCPT TO:<c@d>\r\n")));
  check_int "data" 354 (code (first_reply (send h flow "DATA\r\n")))

let test_exim_state_machine_order () =
  let h = boot "exim" in
  let flow = connect h in
  check_int "mail before ehlo" 503 (code (first_reply (send h flow "MAIL FROM:<a@b>\r\n")));
  check_int "rcpt before mail" 503 (code (first_reply (send h flow "RCPT TO:<a@b>\r\n")));
  check_int "data before rcpt" 503 (code (first_reply (send h flow "DATA\r\n")))

let test_exim_message_accepted () =
  let h = boot "exim" in
  let flow = connect h in
  exim_reach_data h flow;
  check_int "accepted" 250
    (code (first_reply (send h flow "Subject: hi\r\n\r\nbody\r\n.\r\n")))

let test_exim_header_overflow () =
  let h = boot "exim" in
  let flow = connect h in
  exim_reach_data h flow;
  (* >100 byte header line with the colon beyond position 50. *)
  let long_header = String.make 70 'X' ^ ": " ^ String.make 60 'y' ^ "\r\n" in
  expect_crash "buffer-overflow" (fun () -> send h flow long_header)

let test_exim_long_header_early_colon_is_safe () =
  let h = boot "exim" in
  let flow = connect h in
  exim_reach_data h flow;
  let long_header = "Subject: " ^ String.make 150 'y' ^ "\r\n" in
  ignore (send h flow long_header);
  Alcotest.(check pass) "no crash" () ()

(* live555 *)

let test_live555_rtsp_flow () =
  let h = boot "live555" in
  let flow = connect h in
  let r = first_reply (send h flow "OPTIONS rtsp://s/x RTSP/1.0\r\nCSeq: 1\r\n\r\n") in
  Alcotest.(check bool) "options ok" true (Proto_util.starts_with_ci ~prefix:"RTSP/1.0 200" r);
  let r = first_reply (send h flow "SETUP rtsp://s/x RTSP/1.0\r\nCSeq: 2\r\nTransport: RTP/AVP;unicast;client_port=1-2\r\n\r\n") in
  Alcotest.(check bool) "setup before describe rejected" true
    (Proto_util.starts_with_ci ~prefix:"RTSP/1.0 455" r);
  ignore (send h flow "DESCRIBE rtsp://s/x RTSP/1.0\r\nCSeq: 3\r\nAccept: application/sdp\r\n\r\n");
  let r = first_reply (send h flow "SETUP rtsp://s/x RTSP/1.0\r\nCSeq: 4\r\nTransport: RTP/AVP;unicast;client_port=1-2\r\n\r\n") in
  Alcotest.(check bool) "setup ok" true (Proto_util.starts_with_ci ~prefix:"RTSP/1.0 200" r)

let test_live555_transport_null_deref () =
  let h = boot "live555" in
  let flow = connect h in
  ignore (send h flow "DESCRIBE rtsp://s/x RTSP/1.0\r\nCSeq: 1\r\nAccept: application/sdp\r\n\r\n");
  expect_crash "null-deref" (fun () ->
      send h flow "SETUP rtsp://s/x RTSP/1.0\r\nCSeq: 2\r\nTransport: RTP/AVP;unicast\r\n\r\n")

(* openssh *)

let test_openssh_handshake () =
  let h = boot "openssh" in
  let flow = connect h in
  ignore (send h flow "SSH-2.0-TestClient\r\n");
  let replies = send_bytes h flow (Openssh.make_kexinit ()) in
  Alcotest.(check bool) "kexinit answered" true (replies <> []);
  let replies = send_bytes h flow (Openssh.make_packet 21 Bytes.empty) in
  check_int "newkeys echoed" 21 (Char.code (List.hd replies).[4])

let test_openssh_rejects_out_of_order () =
  let h = boot "openssh" in
  let flow = connect h in
  ignore (send h flow "SSH-2.0-TestClient\r\n");
  (* NEWKEYS before KEXINIT: protocol error (disconnect type 1). *)
  let replies = send_bytes h flow (Openssh.make_packet 21 Bytes.empty) in
  check_int "disconnect" 1 (Char.code (List.hd replies).[4])

let test_openssh_coalesced_frames () =
  let h = boot "openssh" in
  let flow = connect h in
  ignore (send h flow "SSH-2.0-TestClient\r\n");
  (* Two SSH packets in one TCP segment: both must be processed. *)
  let both = Bytes.cat (Openssh.make_kexinit ()) (Openssh.make_packet 21 Bytes.empty) in
  let replies = send_bytes h flow both in
  check_int "two replies" 2 (List.length replies)

(* openssl *)

let test_openssl_client_hello () =
  let h = boot "openssl" in
  let flow = connect h in
  let replies = send_bytes h flow (Openssl_srv.make_client_hello ~sni:"x.example" ()) in
  check_int "handshake record" 22 (Char.code (List.hd replies).[0])

let test_openssl_ccs_before_hello_alerts () =
  let h = boot "openssl" in
  let flow = connect h in
  let ccs = Bytes.of_string "\x14\x03\x03\x00\x01\x01" in
  let replies = send_bytes h flow ccs in
  check_int "alert" 21 (Char.code (List.hd replies).[0])

(* kamailio *)

let test_kamailio_methods () =
  let h = boot "kamailio" in
  let invite = "INVITE sip:u@h SIP/2.0\r\nCSeq: 1 INVITE\r\nVia: SIP/2.0/UDP c\r\n\r\n" in
  let flow = Option.get (send_udp h (b invite)) in
  let r = List.hd (Net.responses h.net flow) in
  Alcotest.(check bool) "ringing" true
    (Proto_util.starts_with_ci ~prefix:"SIP/2.0 180" (Bytes.to_string r));
  let flow2 = Option.get (send_udp h (b "garbage packet")) in
  let r2 = List.hd (Net.responses h.net flow2) in
  Alcotest.(check bool) "bad request" true
    (Proto_util.starts_with_ci ~prefix:"SIP/2.0 400" (Bytes.to_string r2))

(* forked-daapd *)

let test_daapd_routes_and_forking () =
  let h = boot "forked-daapd" in
  let before = Net.open_socket_count h.net in
  let flow = connect h in
  Alcotest.(check bool) "accepted" true (Net.open_socket_count h.net > before);
  let r = first_reply (send h flow "GET /server-info HTTP/1.1\r\nHost: x\r\n\r\n") in
  Alcotest.(check bool) "200" true (Proto_util.starts_with_ci ~prefix:"HTTP/1.1 200" r);
  let r = first_reply (send h flow "GET /nope HTTP/1.1\r\n\r\n") in
  Alcotest.(check bool) "404" true (Proto_util.starts_with_ci ~prefix:"HTTP/1.1 404" r);
  let r = first_reply (send h flow "GET /databases/1/items?session-id=5 HTTP/1.1\r\n\r\n") in
  Alcotest.(check bool) "db route" true (Proto_util.starts_with_ci ~prefix:"HTTP/1.1 200" r)

(* firefox-ipc *)

let test_ipc_actor_lifecycle () =
  let h = boot "firefox-ipc" in
  let flow = connect h in
  let msg t = Ipc.make_msg ~actor:1 ~msg_type:t Bytes.empty in
  ignore (send_bytes h flow (msg 1));
  let replies = send_bytes h flow (Ipc.make_msg ~actor:1 ~msg_type:3 (b "payload")) in
  Alcotest.(check bool) "ack" true (replies <> [])

let test_ipc_use_after_free () =
  let h = boot "firefox-ipc" in
  let flow = connect h in
  ignore (send_bytes h flow (Ipc.make_msg ~actor:1 ~msg_type:1 Bytes.empty));
  ignore (send_bytes h flow (Ipc.make_msg ~actor:1 ~msg_type:2 Bytes.empty));
  expect_crash "use-after-free" (fun () ->
      send_bytes h flow (Ipc.make_msg ~actor:1 ~msg_type:3 (b "boom")))

let test_ipc_multiple_connections () =
  let h = boot "firefox-ipc" in
  let c1 = connect h in
  let c2 = connect h in
  ignore (send_bytes h c1 (Ipc.make_msg ~actor:1 ~msg_type:1 Bytes.empty));
  (* Actors are process-global: the second connection sees actor 1. *)
  let replies = send_bytes h c2 (Ipc.make_msg ~actor:1 ~msg_type:3 (b "x")) in
  Alcotest.(check bool) "cross-connection actor" true (replies <> [])

(* echo *)

let test_echo_behavior () =
  let h = boot "echo" in
  let flow = connect h in
  Alcotest.(check (list string)) "echoes" [ "hi\r\n" ] (send h flow "hi\r\n");
  ignore (send h flow "BOOM\r\n") (* harmless in line mode *);
  ignore (send h flow "MODE raw\r\n");
  expect_crash "assertion" (fun () -> send h flow "BOOM\r\n")



(* mysql-client (client role, §5.4) *)

let client_flow h =
  match Net.outbound_flows h.net with
  | [ fl ] -> fl
  | _ -> Alcotest.fail "expected one outbound flow"

let test_mysql_client_handshake_flow () =
  let h = boot "mysql-client" in
  let fl = client_flow h in
  (* Feed the server greeting: the client answers with a login request. *)
  let replies = send_bytes h fl (Mysql_client.make_handshake ()) in
  Alcotest.(check bool) "login sent" true (replies <> []);
  let login = List.hd replies in
  Alcotest.(check bool) "login mentions root" true
    (String.length login > 8
    && String.exists (fun c -> c = 'r') login);
  (* OK -> the client issues its query. *)
  let replies = send_bytes h fl (Mysql_client.make_ok ()) in
  Alcotest.(check bool) "query sent" true
    (List.exists (fun r -> String.length r > 5 && String.sub r 5 6 = "SELECT") replies)

let test_mysql_client_err_path () =
  let h = boot "mysql-client" in
  let fl = client_flow h in
  ignore (send_bytes h fl (Mysql_client.make_handshake ()));
  let replies = send_bytes h fl (Mysql_client.make_err "denied") in
  Alcotest.(check (list string)) "client gives up quietly" [] replies

let test_mysql_client_oob_read () =
  let h = boot "mysql-client" in
  let fl = client_flow h in
  (* Greeting advertising far more auth data than the scramble buffer. *)
  let evil = Mysql_client.make_handshake ~salt_len:200 () in
  (* Grow the trailing salt so the advertised bytes are actually there. *)
  let evil = Bytes.cat evil (Bytes.make 200 't') in
  (* Fix the frame length for the enlarged payload. *)
  let len = Bytes.length evil - 4 in
  Bytes.set evil 0 (Char.chr (len land 0xff));
  Bytes.set evil 1 (Char.chr ((len lsr 8) land 0xff));
  expect_crash "oob-read" (fun () -> send_bytes h fl evil)

let test_mysql_client_oob_read_asan () =
  let h = boot ~asan:true "mysql-client" in
  let fl = client_flow h in
  let evil = Mysql_client.make_handshake ~salt_len:200 () in
  let evil = Bytes.cat evil (Bytes.make 200 't') in
  let len = Bytes.length evil - 4 in
  Bytes.set evil 0 (Char.chr (len land 0xff));
  Bytes.set evil 1 (Char.chr ((len lsr 8) land 0xff));
  match send_bytes h fl evil with
  | exception Nyx_vm.Guest_heap.Heap_oob _ -> ()
  | _ -> Alcotest.fail "expected ASan violation"

(* lighttpd (§5.5) *)

let test_lighttpd_routes () =
  let h = boot "lighttpd" in
  let flow = connect h in
  let r = first_reply (send h flow "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n") in
  Alcotest.(check bool) "200" true (Proto_util.starts_with_ci ~prefix:"HTTP/1.1 200" r);
  let r = first_reply (send h flow "GET /nope HTTP/1.1\r\n\r\n") in
  Alcotest.(check bool) "404" true (Proto_util.starts_with_ci ~prefix:"HTTP/1.1 404" r);
  let r = first_reply (send h flow "BREW /coffee HTTP/1.1\r\n\r\n") in
  Alcotest.(check bool) "501" true (Proto_util.starts_with_ci ~prefix:"HTTP/1.1 501" r)

let test_lighttpd_chunked_ok () =
  let h = boot "lighttpd" in
  let flow = connect h in
  let r =
    first_reply
      (send h flow
         "POST /cgi-bin/test HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n")
  in
  Alcotest.(check bool) "accepted" true (Proto_util.starts_with_ci ~prefix:"HTTP/1.1 200" r)

let test_lighttpd_alloc_underflow () =
  let h = boot "lighttpd" in
  let flow = connect h in
  (* A huge chunk header with a small buffered body underflows the
     resize arithmetic. *)
  expect_crash "alloc-underflow" (fun () ->
      send h flow
        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nffff\r\nshort\r\n")


(* exim DATA handling details *)

let test_exim_rset_resets_transaction () =
  let h = boot "exim" in
  let flow = connect h in
  ignore (send h flow "EHLO c\r\n");
  ignore (send h flow "MAIL FROM:<a@b>\r\n");
  check_int "rset" 250 (code (first_reply (send h flow "RSET\r\n")));
  (* The envelope is gone: RCPT needs MAIL again. *)
  check_int "rcpt after rset" 503 (code (first_reply (send h flow "RCPT TO:<c@d>\r\n")))

let test_exim_data_multiline_single_packet () =
  let h = boot "exim" in
  let flow = connect h in
  exim_reach_data h flow;
  (* Headers and terminator in one packet. *)
  let replies = send h flow "Subject: a\r\nFrom: b\r\n\r\nbody line\r\n.\r\n" in
  check_int "accepted" 250 (code (first_reply replies));
  (* Back in command phase. *)
  check_int "noop works" 250 (code (first_reply (send h flow "NOOP\r\n")))

let test_exim_too_many_recipients () =
  let h = boot "exim" in
  let flow = connect h in
  ignore (send h flow "EHLO c\r\n");
  ignore (send h flow "MAIL FROM:<a@b>\r\n");
  for _ = 1 to 10 do
    check_int "rcpt ok" 250 (code (first_reply (send h flow "RCPT TO:<c@d>\r\n")))
  done;
  check_int "eleventh rejected" 452 (code (first_reply (send h flow "RCPT TO:<c@d>\r\n")))

(* openssl record details *)

let test_openssl_oversized_record_alert () =
  let h = boot "openssl" in
  let flow = connect h in
  (* Record declaring > 2^14 bytes: record_overflow alert. *)
  let bad = Bytes.of_string "\x16\x03\x03\xff\xff" in
  let replies = send_bytes h flow (Bytes.cat bad (Bytes.make 64 'x')) in
  Alcotest.(check bool) "alert sent" true
    (List.exists (fun r -> String.length r > 0 && Char.code r.[0] = 21) replies)

let test_openssl_coalesced_records () =
  let h = boot "openssl" in
  let flow = connect h in
  let hello = Openssl_srv.make_client_hello () in
  let ccs = Bytes.of_string "\x14\x03\x03\x00\x01\x01" in
  (* Both records in one segment: hello answered, CCS accepted. *)
  let replies = send_bytes h flow (Bytes.cat hello ccs) in
  Alcotest.(check bool) "server hello" true
    (List.exists (fun r -> String.length r > 0 && Char.code r.[0] = 22) replies)

(* echo coverage ratchet *)

let test_echo_keyword_ratchet () =
  (* Each additional matching prefix character adds a new edge: the
     coverage gradient the campaign climbs. *)
  let edges_of line =
    let h = boot "echo" in
    let flow = connect h in
    ignore (send h flow "MODE raw\r\n");
    (try ignore (send h flow (line ^ "\r\n")) with Ctx.Crash _ -> ());
    Coverage.edge_count h.ctx.Ctx.cov
  in
  let base = edges_of "xxxx" in
  let b1 = edges_of "Bxxx" in
  let b2 = edges_of "BOxx" in
  let b3 = edges_of "BOOx" in
  Alcotest.(check bool)
    (Printf.sprintf "monotone gradient (%d %d %d %d)" base b1 b2 b3)
    true
    (b1 > base && b2 > b1 && b3 > b2)

(* Proto_util *)

let test_proto_util_lines_tokens () =
  Alcotest.(check string) "crlf stripped" "USER x" (Proto_util.line_of (b "USER x\r\n"));
  Alcotest.(check string) "lf stripped" "abc" (Proto_util.line_of (b "abc\n"));
  Alcotest.(check string) "no terminator kept" "abc" (Proto_util.line_of (b "abc"));
  Alcotest.(check (list string)) "tokens" [ "a"; "bb"; "c" ] (Proto_util.tokens "a  bb\tc");
  Alcotest.(check bool) "ci prefix" true (Proto_util.starts_with_ci ~prefix:"user" "USER x");
  Alcotest.(check bool) "ci prefix too short" false (Proto_util.starts_with_ci ~prefix:"USERX" "USER")

let test_proto_util_read_be () =
  let data = b "\x01\x02\x03\x04" in
  Alcotest.(check (option int)) "u16" (Some 0x0102) (Proto_util.read_be data ~pos:0 ~len:2);
  Alcotest.(check (option int)) "u32" (Some 0x01020304) (Proto_util.read_be data ~pos:0 ~len:4);
  Alcotest.(check (option int)) "oob" None (Proto_util.read_be data ~pos:2 ~len:4);
  Alcotest.(check (option int)) "negative pos" None (Proto_util.read_be data ~pos:(-1) ~len:2)

let test_proto_util_headers () =
  Alcotest.(check (option string)) "value" (Some "text/html")
    (Proto_util.header_value ~name:"content-type" "Content-Type: text/html");
  Alcotest.(check (option string)) "wrong name" None
    (Proto_util.header_value ~name:"Host" "Content-Type: x");
  Alcotest.(check (option int)) "blank line crlf" (Some 6)
    (Proto_util.find_blank_line "ab\r\n\r\ncd");
  Alcotest.(check (option int)) "blank line lf" (Some 4) (Proto_util.find_blank_line "ab\n\ncd");
  Alcotest.(check (option int)) "no blank line" None (Proto_util.find_blank_line "abcd")

let test_proto_util_int_bounded () =
  Alcotest.(check (option int)) "ok" (Some 42) (Proto_util.int_of_string_bounded "42");
  Alcotest.(check (option int)) "over max" None (Proto_util.int_of_string_bounded ~max:10 "42");
  Alcotest.(check (option int)) "negative" None (Proto_util.int_of_string_bounded "-1");
  Alcotest.(check (option int)) "junk" None (Proto_util.int_of_string_bounded "12x")

let test_proto_util_iter_frames () =
  (* 1-byte length-prefixed frames. *)
  let frame_len h = Some (1 + Char.code (Bytes.get h 0)) in
  let collect data =
    let out = ref [] in
    Proto_util.iter_frames ~header_len:1 ~frame_len data (fun f ->
        out := Bytes.to_string f :: !out);
    List.rev !out
  in
  Alcotest.(check (list string)) "two frames" [ "\002ab"; "\001c" ]
    (collect (b "\002ab\001c"));
  Alcotest.(check (list string)) "trailing partial" [ "\002ab"; "\005cd" ]
    (collect (b "\002ab\005cd"));
  Alcotest.(check (list string)) "empty" [] (collect Bytes.empty)

(* Conn_table *)

let mk_table () =
  let clock = Nyx_sim.Clock.create () in
  let vm = Nyx_vm.Vm.create clock in
  let net = Net.create clock in
  let ctx = Ctx.of_vm ~net vm in
  (Conn_table.create ctx ~conn_state_size:8, ctx)

let test_conn_table_lifecycle () =
  let t, ctx = mk_table () in
  check_int "empty" 0 (Conn_table.count t);
  let a = Option.get (Conn_table.insert t ~key:5) in
  let b2 = Option.get (Conn_table.insert t ~key:9) in
  Alcotest.(check bool) "distinct blocks" true (a <> b2);
  Alcotest.(check (option int)) "find" (Some a) (Conn_table.find t ~key:5);
  Alcotest.(check (option int)) "missing" None (Conn_table.find t ~key:6);
  Conn_table.remove t ~key:5;
  Alcotest.(check (option int)) "removed" None (Conn_table.find t ~key:5);
  check_int "count" 1 (Conn_table.count t);
  (* The slot is recycled with zeroed state. *)
  Nyx_vm.Guest_heap.set_i32 ctx.Ctx.heap b2 77;
  let c = Option.get (Conn_table.insert t ~key:11) in
  check_int "recycled block zeroed" 0 (Nyx_vm.Guest_heap.get_i32 ctx.Ctx.heap c)

let test_conn_table_capacity () =
  let t, _ = mk_table () in
  for k = 1 to Conn_table.capacity do
    Alcotest.(check bool) "fits" true (Conn_table.insert t ~key:k <> None)
  done;
  Alcotest.(check (option int)) "full table refuses" None
    (Conn_table.insert t ~key:999)

(* FTP engine details *)

let test_ftp_rnfr_rnto_and_rest () =
  let h = boot "bftpd" in
  let flow = connect h in
  login_ftp h flow;
  check_int "rnto before rnfr" 503 (code (first_reply (send h flow "RNTO b\r\n")));
  check_int "rnfr" 350 (code (first_reply (send h flow "RNFR a\r\n")));
  check_int "rnto" 250 (code (first_reply (send h flow "RNTO b\r\n")));
  check_int "rest ok" 350 (code (first_reply (send h flow "REST 100\r\n")));
  check_int "rest bad" 501 (code (first_reply (send h flow "REST x\r\n")))

let test_ftp_cwd_depth_limit () =
  let h = boot "bftpd" in
  let flow = connect h in
  login_ftp h flow;
  check_int "cdup at root" 550 (code (first_reply (send h flow "CDUP\r\n")));
  for _ = 1 to 7 do
    check_int "descend" 250 (code (first_reply (send h flow "CWD sub\r\n")))
  done;
  check_int "too deep" 550 (code (first_reply (send h flow "CWD sub\r\n")));
  check_int "absolute resets" 250 (code (first_reply (send h flow "CWD /\r\n")));
  check_int "can descend again" 250 (code (first_reply (send h flow "CWD sub\r\n")))

let test_ftp_line_too_long () =
  let h = boot "bftpd" in
  let flow = connect h in
  check_int "oversized line rejected" 500
    (code (first_reply (send h flow (String.make 600 'A' ^ "\r\n"))))

(* Static analysis over everything the registry ships: the spec linter
   on both spec declarations and the program verifier on every target's
   seed programs. Findings must be empty or explicitly allowlisted with
   a reason — an addition to the registry that introduces a lint finding
   fails here until its author either fixes it or writes the reason
   down. *)

(* (code, site, subject-substring, reason) tuples. Currently empty: every
   shipped spec and seed is clean. *)
let lint_allowlist : (string * string * string * string) list = []

let allowlisted subject (d : Nyx_analysis.Diag.t) =
  List.exists
    (fun (code, site, subj, _reason) ->
      code = d.Nyx_analysis.Diag.code
      && site = d.Nyx_analysis.Diag.site
      && (subj = "" || subj = subject))
    lint_allowlist

let test_registry_specs_and_seeds_lint_clean () =
  let ns = Nyx_spec.Net_spec.create () in
  let ipc = Ipc_spec.create () in
  let entries =
    Nyx_analysis.Audit.spec ~subject:"spec raw-network" ns.Nyx_spec.Net_spec.spec
    :: Nyx_analysis.Audit.spec ~subject:"spec firefox-ipc-typed" ipc.Ipc_spec.spec
    :: Nyx_analysis.Audit.program ~subject:"firefox-ipc-typed/seed" (Ipc_spec.seed ipc)
    :: List.concat_map
         (fun entry ->
           let name = entry.Registry.target.Target.info.Target.name in
           List.mapi
             (fun i p ->
               Nyx_analysis.Audit.program ~subject:(Printf.sprintf "%s/seed[%d]" name i) p)
             (Registry.seed_programs entry ns))
         (Registry.all ())
  in
  let residue =
    List.concat_map
      (fun (e : Nyx_analysis.Audit.entry) ->
        List.filter_map
          (fun d ->
            if allowlisted e.Nyx_analysis.Audit.subject d then None
            else
              Some
                (Format.asprintf "%s: %a" e.Nyx_analysis.Audit.subject
                   Nyx_analysis.Diag.pp d))
          e.Nyx_analysis.Audit.diags)
      entries
  in
  Alcotest.(check bool) "registry audits more than the two specs" true
    (List.length entries > 2);
  Alcotest.(check (list string)) "no unallowlisted findings" [] residue

(* Coverage pin over the whole registry: each target's fixed-seed
   campaign of 0.5 virtual s past its boot (default aggressive policy,
   havoc engine, seed 7) must reach the recorded edge count and cumulative coverage map.
   The values were recorded when coverage sites were still named by
   strings hashed at every hit, so interning them must leave every cell
   where it was, also for the targets no other gate runs. *)
let coverage_pins =
  [
    ("bftpd", 41, "9d4495ce11aeb81424c0d5e6d4d7be5d");
    ("dcmtk", 44, "d928531296cd0755414f3ba7dcd801c7");
    ("dnsmasq", 66, "7a1e21111e46f4517041a978576097a1");
    ("exim", 55, "2e127448e5246c925658e082198d95c4");
    ("forked-daapd", 20, "121ab26d59bb21dbf759d7ff5cc78345");
    ("kamailio", 77, "7b07b5c04b3488ac5f57ed3ac678a171");
    ("lightftp", 51, "0d41028ee526d68497a8dab842f68160");
    ("live555", 35, "c7d8cb5bda0fbc069cac791d9d9b7492");
    ("openssh", 59, "5312d4b62cc43a22be02be4a4e596445");
    ("openssl", 72, "35cfa40b858a182c73d7bbc4809bdc46");
    ("proftpd", 45, "2f319bb3427325abb01c31c1f9841490");
    ("pure-ftpd", 51, "e3b2d64234afa6ff85dad27f5b9f1643");
    ("tinydtls", 36, "fdbcbfeed359ac3f0b1c18a2a405cf8c");
    ("echo", 22, "8d86af5a770ea85a2bbbde9c27aa036e");
    ("firefox-ipc", 37, "0624ce8cc9855d04a42c09a3ce834490");
    ("mysql-client", 65, "fb635cba387dd44062dd4ae021ec843a");
    ("lighttpd", 51, "d1847b9145f72ba8ecbeada085b6f7a8")
  ]

let coverage_of entry =
  let open Nyx_core in
  let info = entry.Registry.target.Target.info in
  let cfg =
    {
      Campaign.default_config with
      Campaign.budget_ns = info.Target.startup_ns + 500_000_000;
      max_execs = max_int;
      seed = 7;
    }
  in
  let inst = Campaign.start cfg entry in
  Campaign.step inst ~until_ns:cfg.Campaign.budget_ns;
  let virgin = (Campaign.checkpoint_now inst).Checkpoint.c_virgin in
  let r = Campaign.finalize inst in
  ( info.Target.name,
    r.Report.final_edges,
    Digest.to_hex (Digest.bytes virgin) )

let test_coverage_pinned () =
  let got = List.map coverage_of (Registry.all ()) in
  Alcotest.(check (list (triple string int string))) "edges and virgin digest" coverage_pins got

(* Robustness: random garbage must yield a valid status, never an
   unexpected exception. *)

let prop_random_garbage_handled =
  QCheck.Test.make ~name:"targets survive random packets with a valid status" ~count:60
    QCheck.(pair (int_bound 1000) (small_list (string_of_size QCheck.Gen.(int_range 1 64))))
    (fun (seed, packets) ->
      let entry =
        let all = Registry.all () in
        List.nth all (seed mod List.length all)
      in
      let ns = Nyx_spec.Net_spec.create () in
      let exec = Nyx_core.Executor.create ~net_spec:ns entry.Registry.target in
      let program =
        Nyx_spec.Net_spec.seed_of_packets ns (List.map Bytes.of_string packets)
      in
      let r = Nyx_core.Executor.run_full exec program in
      match r.Nyx_core.Report.status with
      | Nyx_core.Report.Pass | Nyx_core.Report.Hang -> true
      | Nyx_core.Report.Crash { kind; _ } ->
        (* Only planted/sanitizer crash kinds are acceptable. *)
        List.mem kind
          [ "stack-exhaustion"; "integer-underflow"; "heap-overflow"; "null-deref";
            "buffer-overflow"; "use-after-free"; "assertion"; "segfault";
            "heap-corruption"; "oom-internal"; "asan-heap-oob" ])

let () =
  Alcotest.run "nyx_targets"
    [
      ( "registry",
        [
          Alcotest.test_case "all boot" `Quick test_all_targets_boot;
          Alcotest.test_case "seeds clean" `Quick test_all_seeds_execute_cleanly;
          Alcotest.test_case "coverage pinned" `Quick test_coverage_pinned;
        ] );
      ( "ftp",
        [
          Alcotest.test_case "banner/auth" `Quick test_ftp_banner_and_auth;
          Alcotest.test_case "pass order" `Quick test_ftp_pass_before_user;
          Alcotest.test_case "stor/retr" `Quick test_ftp_stor_retr_state;
          Alcotest.test_case "unsupported" `Quick test_ftp_unsupported_command;
          Alcotest.test_case "proftpd bug" `Quick test_proftpd_bug_needs_full_state;
          Alcotest.test_case "pure-ftpd quota" `Quick test_pure_ftpd_quota_needs_accumulation;
        ] );
      ( "dnsmasq",
        [
          Alcotest.test_case "valid query" `Quick test_dnsmasq_valid_query;
          Alcotest.test_case "short ignored" `Quick test_dnsmasq_short_packet_ignored;
          Alcotest.test_case "pointer loop" `Quick test_dnsmasq_pointer_loop_crash;
          Alcotest.test_case "backward ok" `Quick test_dnsmasq_backward_pointer_ok;
        ] );
      ( "tinydtls",
        [
          Alcotest.test_case "handshake" `Quick test_tinydtls_handshake;
          Alcotest.test_case "frag underflow" `Quick test_tinydtls_fragment_underflow;
        ] );
      ( "dcmtk",
        [
          Alcotest.test_case "state machine" `Quick test_dcmtk_association_state_machine;
          Alcotest.test_case "asan immediate" `Quick test_dcmtk_oob_with_asan_crashes_immediately;
          Alcotest.test_case "silent good layout" `Quick test_dcmtk_oob_without_asan_is_silent_on_good_layout;
          Alcotest.test_case "unlucky layout" `Quick test_dcmtk_oob_unlucky_layout_crashes;
          Alcotest.test_case "accumulation" `Quick test_dcmtk_corruption_accumulates_across_connections;
        ] );
      ( "exim",
        [
          Alcotest.test_case "order" `Quick test_exim_state_machine_order;
          Alcotest.test_case "accepted" `Quick test_exim_message_accepted;
          Alcotest.test_case "header overflow" `Quick test_exim_header_overflow;
          Alcotest.test_case "early colon safe" `Quick test_exim_long_header_early_colon_is_safe;
        ] );
      ( "live555",
        [
          Alcotest.test_case "rtsp flow" `Quick test_live555_rtsp_flow;
          Alcotest.test_case "null deref" `Quick test_live555_transport_null_deref;
        ] );
      ( "openssh",
        [
          Alcotest.test_case "handshake" `Quick test_openssh_handshake;
          Alcotest.test_case "out of order" `Quick test_openssh_rejects_out_of_order;
          Alcotest.test_case "coalesced frames" `Quick test_openssh_coalesced_frames;
        ] );
      ( "openssl",
        [
          Alcotest.test_case "client hello" `Quick test_openssl_client_hello;
          Alcotest.test_case "ccs alert" `Quick test_openssl_ccs_before_hello_alerts;
        ] );
      ("kamailio", [ Alcotest.test_case "methods" `Quick test_kamailio_methods ]);
      ("daapd", [ Alcotest.test_case "routes" `Quick test_daapd_routes_and_forking ]);
      ( "ipc",
        [
          Alcotest.test_case "lifecycle" `Quick test_ipc_actor_lifecycle;
          Alcotest.test_case "use after free" `Quick test_ipc_use_after_free;
          Alcotest.test_case "multi connection" `Quick test_ipc_multiple_connections;
        ] );
      ("echo", [ Alcotest.test_case "behavior" `Quick test_echo_behavior ]);
      ( "protocol details",
        [
          Alcotest.test_case "exim rset" `Quick test_exim_rset_resets_transaction;
          Alcotest.test_case "exim data multiline" `Quick test_exim_data_multiline_single_packet;
          Alcotest.test_case "exim rcpt limit" `Quick test_exim_too_many_recipients;
          Alcotest.test_case "openssl oversize alert" `Quick test_openssl_oversized_record_alert;
          Alcotest.test_case "openssl coalesced" `Quick test_openssl_coalesced_records;
          Alcotest.test_case "echo ratchet" `Quick test_echo_keyword_ratchet;
        ] );
      ( "mysql-client",
        [
          Alcotest.test_case "handshake flow" `Quick test_mysql_client_handshake_flow;
          Alcotest.test_case "err path" `Quick test_mysql_client_err_path;
          Alcotest.test_case "oob read" `Quick test_mysql_client_oob_read;
          Alcotest.test_case "oob read asan" `Quick test_mysql_client_oob_read_asan;
        ] );
      ( "lighttpd",
        [
          Alcotest.test_case "routes" `Quick test_lighttpd_routes;
          Alcotest.test_case "chunked ok" `Quick test_lighttpd_chunked_ok;
          Alcotest.test_case "alloc underflow" `Quick test_lighttpd_alloc_underflow;
        ] );
      ( "proto_util",
        [
          Alcotest.test_case "lines/tokens" `Quick test_proto_util_lines_tokens;
          Alcotest.test_case "read_be" `Quick test_proto_util_read_be;
          Alcotest.test_case "headers" `Quick test_proto_util_headers;
          Alcotest.test_case "int bounded" `Quick test_proto_util_int_bounded;
          Alcotest.test_case "iter_frames" `Quick test_proto_util_iter_frames;
        ] );
      ( "conn_table",
        [
          Alcotest.test_case "lifecycle" `Quick test_conn_table_lifecycle;
          Alcotest.test_case "capacity" `Quick test_conn_table_capacity;
        ] );
      ( "ftp details",
        [
          Alcotest.test_case "rnfr/rnto/rest" `Quick test_ftp_rnfr_rnto_and_rest;
          Alcotest.test_case "cwd depth" `Quick test_ftp_cwd_depth_limit;
          Alcotest.test_case "long line" `Quick test_ftp_line_too_long;
        ] );
      ( "lint",
        [
          Alcotest.test_case "specs and seeds lint clean" `Quick
            test_registry_specs_and_seeds_lint_clean;
        ] );
      ( "robustness",
        [ QCheck_alcotest.to_alcotest prop_random_garbage_handled ] );
    ]
