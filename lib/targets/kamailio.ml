let name = "kamailio"
let site s = Ctx.site (name ^ "/" ^ s)

(* Coverage sites, interned once at module load. *)
module S = struct
  let uri_scheme = site "uri:scheme"
  let uri_user = site "uri:user"
  let uri_user_empty = site "uri:user-empty"
  let uri_nouser = site "uri:nouser"
  let uri_params = site "uri:params"
  let uri_port_privileged = site "uri:port-privileged"
  let uri_port_bad = site "uri:port-bad"
  let uri_sips = site "uri:sips"
  let uri_tel = site "uri:tel"
  let hdr_malformed = site "hdr:malformed"
  let hdr_via = site "hdr:via"
  let via_udp = site "via:udp"
  let via_tcp = site "via:tcp"
  let via_other = site "via:other"
  let via_branch = site "via:branch"
  let via_nobranch = site "via:nobranch"
  let hdr_from = site "hdr:from"
  let from_unclosed = site "from:unclosed"
  let from_tag = site "from:tag"
  let hdr_to = site "hdr:to"
  let hdr_cseq = site "hdr:cseq"
  let cseq_num_ok = site "cseq:num-ok"
  let cseq_num_bad = site "cseq:num-bad"
  let cseq_method_ok = site "cseq:method-ok"
  let cseq_method_bad = site "cseq:method-bad"
  let cseq_arity = site "cseq:arity"
  let hdr_callid = site "hdr:callid"
  let callid_host = site "callid:host"
  let hdr_contact = site "hdr:contact"
  let contact_star = site "contact:star"
  let maxfwd_zero = site "maxfwd:zero"
  let maxfwd_ok = site "maxfwd:ok"
  let maxfwd_bad = site "maxfwd:bad"
  let clen_ok = site "clen:ok"
  let clen_bad = site "clen:bad"
  let ctype_sdp = site "ctype:sdp"
  let ctype_other = site "ctype:other"
  let hdr_expires = site "hdr:expires"
  let hdr_route = site "hdr:route"
  let hdr_auth = site "hdr:auth"
  let auth_digest = site "auth:digest"
  let hdr_ua = site "hdr:ua"
  let hdr_ext = site "hdr:ext"
  let hdr_event = site "hdr:event"
  let hdr_unknown = site "hdr:unknown"
  let sdp_v = site "sdp:v"
  let sdp_o = site "sdp:o"
  let sdp_c = site "sdp:c"
  let sdp_m = site "sdp:m"
  let sdp_audio = site "sdp:audio"
  let sdp_a = site "sdp:a"
  let sdp_other = site "sdp:other"
  let sdp_junk = site "sdp:junk"
  let packet = site "packet"
  let empty = site "empty"
  let version = site "version"
  let version_bad = site "version:bad"
  let has_body = site "has-body"
  let response = site "response"
  let got_response = site "got-response"
  let method_unknown = site "method:unknown"
  let reqline_malformed = site "reqline:malformed"
end

let methods =
  [ "INVITE"; "REGISTER"; "OPTIONS"; "BYE"; "ACK"; "CANCEL"; "SUBSCRIBE";
    "NOTIFY"; "MESSAGE"; "REFER"; "INFO"; "UPDATE"; "PRACK"; "PUBLISH" ]

let method_sites = List.map (fun m -> (m, site ("method:" ^ m))) methods

let split_lines s =
  String.split_on_char '\n' s |> List.map (fun l -> String.trim l)

(* sip:user@host:port;params *)
let parse_uri ctx uri =
  if Ctx.branch ctx S.uri_scheme (Proto_util.starts_with_ci ~prefix:"sip:" uri)
  then begin
    let rest = String.sub uri 4 (String.length uri - 4) in
    (match String.index_opt rest '@' with
    | Some i ->
      Ctx.hit ctx S.uri_user;
      if Ctx.branch ctx S.uri_user_empty (i = 0) then ()
    | None -> Ctx.hit ctx S.uri_nouser);
    (match String.index_opt rest ';' with
    | Some _ -> Ctx.hit ctx S.uri_params
    | None -> ());
    (match String.rindex_opt rest ':' with
    | Some i when i > 0 -> (
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match Proto_util.int_of_string_bounded ~max:65535 port with
      | Some p -> ignore (Ctx.branch ctx S.uri_port_privileged (p < 1024))
      | None -> Ctx.hit ctx S.uri_port_bad)
    | _ -> ());
    true
  end
  else if Ctx.branch ctx S.uri_sips (Proto_util.starts_with_ci ~prefix:"sips:" uri)
  then true
  else if Ctx.branch ctx S.uri_tel (Proto_util.starts_with_ci ~prefix:"tel:" uri)
  then true
  else false

let parse_header ctx line =
  match String.index_opt line ':' with
  | None -> Ctx.hit ctx S.hdr_malformed
  | Some i ->
    let hname = Proto_util.upper (String.trim (String.sub line 0 i)) in
    let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    (match hname with
    | "VIA" | "V" ->
      Ctx.hit ctx S.hdr_via;
      if Ctx.branch ctx S.via_udp (Proto_util.starts_with_ci ~prefix:"SIP/2.0/UDP" value)
      then ()
      else if Ctx.branch ctx S.via_tcp
                (Proto_util.starts_with_ci ~prefix:"SIP/2.0/TCP" value)
      then ()
      else Ctx.hit ctx S.via_other;
      (match String.index_opt value ';' with
      | Some _ ->
        if Ctx.branch ctx S.via_branch
             (Proto_util.header_value ~name:"Via" ("Via:" ^ value) <> None
             && String.length value > 12)
        then ()
      | None -> Ctx.hit ctx S.via_nobranch)
    | "FROM" | "F" ->
      Ctx.hit ctx S.hdr_from;
      (match String.index_opt value '<' with
      | Some i -> (
        match String.index_opt value '>' with
        | Some j when j > i ->
          ignore (parse_uri ctx (String.sub value (i + 1) (j - i - 1)))
        | _ -> Ctx.hit ctx S.from_unclosed)
      | None -> ignore (parse_uri ctx value));
      if Ctx.branch ctx S.from_tag (Proto_util.starts_with_ci ~prefix:"" value
                                    && String.length value > 0
                                    && String.length value < 2048) then ()
    | "TO" | "T" -> Ctx.hit ctx S.hdr_to
    | "CSEQ" -> (
      Ctx.hit ctx S.hdr_cseq;
      match Proto_util.tokens value with
      | [ num; meth ] -> (
        (match Proto_util.int_of_string_bounded ~max:1_000_000 num with
        | Some _ -> Ctx.hit ctx S.cseq_num_ok
        | None -> Ctx.hit ctx S.cseq_num_bad);
        if List.mem (Proto_util.upper meth) methods then Ctx.hit ctx S.cseq_method_ok
        else Ctx.hit ctx S.cseq_method_bad)
      | _ -> Ctx.hit ctx S.cseq_arity)
    | "CALL-ID" | "I" ->
      Ctx.hit ctx S.hdr_callid;
      ignore (Ctx.branch ctx S.callid_host (String.contains value '@'))
    | "CONTACT" | "M" ->
      Ctx.hit ctx S.hdr_contact;
      ignore (Ctx.branch ctx S.contact_star (value = "*"))
    | "MAX-FORWARDS" -> (
      match Proto_util.int_of_string_bounded ~max:255 value with
      | Some 0 -> Ctx.hit ctx S.maxfwd_zero
      | Some _ -> Ctx.hit ctx S.maxfwd_ok
      | None -> Ctx.hit ctx S.maxfwd_bad)
    | "CONTENT-LENGTH" | "L" -> (
      match Proto_util.int_of_string_bounded ~max:65536 value with
      | Some _ -> Ctx.hit ctx S.clen_ok
      | None -> Ctx.hit ctx S.clen_bad)
    | "CONTENT-TYPE" | "C" ->
      if Ctx.branch ctx S.ctype_sdp (Proto_util.starts_with_ci ~prefix:"application/sdp" value)
      then ()
      else Ctx.hit ctx S.ctype_other
    | "EXPIRES" -> Ctx.hit ctx S.hdr_expires
    | "ROUTE" | "RECORD-ROUTE" -> Ctx.hit ctx S.hdr_route
    | "AUTHORIZATION" | "PROXY-AUTHORIZATION" ->
      Ctx.hit ctx S.hdr_auth;
      ignore (Ctx.branch ctx S.auth_digest (Proto_util.starts_with_ci ~prefix:"Digest" value))
    | "USER-AGENT" -> Ctx.hit ctx S.hdr_ua
    | "SUPPORTED" | "REQUIRE" -> Ctx.hit ctx S.hdr_ext
    | "EVENT" | "O" -> Ctx.hit ctx S.hdr_event
    | _ -> Ctx.hit ctx S.hdr_unknown)

let parse_sdp ctx body =
  List.iter
    (fun line ->
      if String.length line >= 2 && line.[1] = '=' then
        match line.[0] with
        | 'v' -> Ctx.hit ctx S.sdp_v
        | 'o' -> Ctx.hit ctx S.sdp_o
        | 'c' -> Ctx.hit ctx S.sdp_c
        | 'm' ->
          Ctx.hit ctx S.sdp_m;
          if Ctx.branch ctx S.sdp_audio
               (Proto_util.starts_with_ci ~prefix:"m=audio" line)
          then ()
        | 'a' -> Ctx.hit ctx S.sdp_a
        | _ -> Ctx.hit ctx S.sdp_other
      else if line <> "" then Ctx.hit ctx S.sdp_junk)
    (split_lines body)

let on_packet ctx ~g:_ ~conn:_ ~reply data =
  Ctx.hit ctx S.packet;
  let text = Bytes.to_string data in
  let head, body =
    match Proto_util.find_blank_line text with
    | Some i -> (String.sub text 0 i, String.sub text i (String.length text - i))
    | None -> (text, "")
  in
  match split_lines head with
  | [] -> Ctx.hit ctx S.empty
  | request_line :: headers ->
    (match Proto_util.tokens request_line with
    | [ meth; uri; version ] ->
      let meth = Proto_util.upper meth in
      if List.mem meth methods then begin
        Ctx.hit ctx (List.assoc meth method_sites);
        ignore (parse_uri ctx uri);
        if Ctx.branch ctx S.version (version = "SIP/2.0") then ()
        else Ctx.hit ctx S.version_bad;
        List.iter (fun l -> if l <> "" then parse_header ctx l) headers;
        if Ctx.branch ctx S.has_body (String.length body > 4) then
          parse_sdp ctx body;
        let code, text_resp =
          match meth with
          | "INVITE" -> (180, "Ringing")
          | "REGISTER" -> (200, "OK")
          | "OPTIONS" -> (200, "OK")
          | "SUBSCRIBE" -> (202, "Accepted")
          | _ -> (200, "OK")
        in
        Ctx.set_state ctx code;
        reply (Bytes.of_string (Printf.sprintf "SIP/2.0 %d %s\r\n\r\n" code text_resp))
      end
      else if Ctx.branch ctx S.response (Proto_util.starts_with_ci ~prefix:"SIP/2.0" meth)
      then Ctx.hit ctx S.got_response
      else begin
        Ctx.hit ctx S.method_unknown;
        Ctx.set_state ctx 501;
        reply (Bytes.of_string "SIP/2.0 501 Not Implemented\r\n\r\n")
      end
    | _ ->
      Ctx.hit ctx S.reqline_malformed;
      Ctx.set_state ctx 400;
      reply (Bytes.of_string "SIP/2.0 400 Bad Request\r\n\r\n"))

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 5060;
        proto = Nyx_netemu.Net.Udp;
        dissector = Nyx_pcap.Dissector.Datagram;
        startup_ns = 150_000_000;
        work_ns = 1_600_000;
        desock_compat = false;
        forking = false;
        max_recv = 4096;
        dict = [ "INVITE"; "REGISTER"; "OPTIONS"; "SUBSCRIBE"; "SIP/2.0"; "Via: SIP/2.0/UDP "; "From: <sip:"; "To: <sip:"; "CSeq:"; "Contact:"; "Max-Forwards:"; "Content-Length:"; "application/sdp"; "m=audio" ];
      };
    hooks = { Target.default_hooks with on_packet };
  }

let invite =
  "INVITE sip:bob@example.com SIP/2.0\r\n\
   Via: SIP/2.0/UDP client.example.com;branch=z9hG4bK776asdhds\r\n\
   Max-Forwards: 70\r\n\
   To: <sip:bob@example.com>\r\n\
   From: <sip:alice@example.com>;tag=1928301774\r\n\
   Call-ID: a84b4c76e66710@client.example.com\r\n\
   CSeq: 314159 INVITE\r\n\
   Contact: <sip:alice@client.example.com>\r\n\
   Content-Type: application/sdp\r\n\
   Content-Length: 55\r\n\
   \r\n\
   v=0\r\no=alice 2890844526 2890844526 IN IP4 client\r\nm=audio 49170 RTP/AVP 0\r\n"

let register =
  "REGISTER sip:example.com SIP/2.0\r\n\
   Via: SIP/2.0/UDP client.example.com;branch=z9hG4bKnashds7\r\n\
   To: <sip:alice@example.com>\r\n\
   From: <sip:alice@example.com>;tag=456248\r\n\
   Call-ID: 843817637684230@client\r\n\
   CSeq: 1826 REGISTER\r\n\
   Contact: <sip:alice@client.example.com>\r\n\
   Expires: 7200\r\n\r\n"

let seeds =
  [
    [ Bytes.of_string register; Bytes.of_string invite ];
    [ Bytes.of_string "OPTIONS sip:example.com SIP/2.0\r\nCSeq: 1 OPTIONS\r\n\r\n" ];
  ]
