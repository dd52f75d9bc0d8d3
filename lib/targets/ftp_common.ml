open Nyx_vm

type special_args = {
  ctx : Ctx.t;
  g : int;
  conn : int;
  cmd : string;
  arg : string;
  reply : bytes -> unit;
}

type config = {
  name : string;
  banner : string;
  require_auth : bool;
  commands : string list;
  special : (special_args -> bool) option;
}

module Field = struct
  let auth = 0
  let ty = 4
  let passive = 8
  let rnfr_pending = 12
  let rest_offset = 16
  let cwd_depth = 20
  let g_connections = 0
  let g_stored_count = 4
  let g_stored_hash = 8
end

let conn_state_size = 24
let global_state_size = 16

let standard_commands =
  [
    "USER"; "PASS"; "QUIT"; "SYST"; "TYPE"; "PWD"; "CWD"; "CDUP"; "MKD"; "RMD";
    "DELE"; "LIST"; "NLST"; "PASV"; "PORT"; "RETR"; "STOR"; "APPE"; "RNFR";
    "RNTO"; "SITE"; "NOOP"; "FEAT"; "HELP"; "ABOR"; "REST"; "SIZE"; "MDTM"; "STAT";
  ]

let sample_session =
  [
    "USER anonymous\r\n"; "PASS guest@example.com\r\n"; "SYST\r\n"; "PWD\r\n";
    "TYPE I\r\n"; "PASV\r\n"; "LIST\r\n"; "QUIT\r\n";
  ]

(* Sends "<code> <text>\r\n" for a three-digit [code]. *)
let reply_str reply code text =
  assert (code >= 100 && code <= 999);
  let n = String.length text in
  let b = Bytes.create (n + 6) in
  Bytes.set b 0 (Char.chr (48 + (code / 100)));
  Bytes.set b 1 (Char.chr (48 + (code / 10 mod 10)));
  Bytes.set b 2 (Char.chr (48 + (code mod 10)));
  Bytes.set b 3 ' ';
  Bytes.blit_string text 0 b 4 n;
  Bytes.set b (n + 4) '\r';
  Bytes.set b (n + 5) '\n';
  reply b

(* Commands allowed before authentication completes. *)
let pre_auth_ok = function
  | "USER" | "PASS" | "QUIT" | "FEAT" | "SYST" | "NOOP" | "HELP" -> true
  | _ -> false

let rec mem_command (cmd : string) = function
  | [] -> false
  | c :: rest -> String.equal c cmd || mem_command cmd rest

(* The site a command-named site list binds to [cmd]. *)
let rec site_of (cmd : string) = function
  | [] -> raise Not_found
  | (c, site) :: rest -> if String.equal c cmd then site else site_of cmd rest

let hooks cfg =
  let site s = Ctx.site (cfg.name ^ "/" ^ s) in
  (* Coverage sites, interned once per configuration. A command-named
     site ("MKD:noarg", ...) is looked up by command in a short list. *)
  let per_cmd suffix cmds = List.map (fun c -> (c, site (c ^ suffix))) cmds in
  let module S = struct
    let connect = site "connect"
    let user_empty = site "USER:empty"
    let user_anon = site "USER:anon"
    let pass_order = site "PASS:order"
    let type_i = site "TYPE:I"
    let type_a = site "TYPE:A"
    let pwd = site "PWD"
    let cwd_up = site "CWD:up"
    let cwd_root = site "CWD:root"
    let cwd_abs = site "CWD:abs"
    let cwd_deep = site "CWD:deep"
    let cdup_root = site "CDUP:root"
    let port_ok = site "PORT:ok"
    let port_bad = site "PORT:bad"
    let retr_noarg = site "RETR:noarg"
    let retr_exists = site "RETR:exists"
    let stor_noarg = site "STOR:noarg"
    let rnto_order = site "RNTO:order"
    let rest_ok = site "REST:ok"
    let rest_bad = site "REST:bad"
    let unknown = site "unknown"
    let packet = site "packet"
    let line_empty = site "line:empty"
    let line_long = site "line:long"
    let auth_gate = site "auth:gate"
    let unsupported = site "unsupported"
    let disconnect = site "disconnect"
    let noarg = per_cmd ":noarg" [ "MKD"; "RMD"; "DELE"; "SIZE"; "MDTM"; "STAT" ]
    let dotdot = per_cmd ":dotdot" [ "MKD"; "RMD"; "DELE" ]
    let nodata = per_cmd ":nodata" [ "LIST"; "NLST" ]
  end in
  let get ctx addr off = Guest_heap.get_i32 ctx.Ctx.heap (addr + off) in
  let set ctx addr off v = Guest_heap.set_i32 ctx.Ctx.heap (addr + off) v in
  let on_init _ctx ~g:_ = () in
  let on_connect ctx ~g ~conn:_ ~reply =
    Ctx.hit ctx S.connect;
    set ctx g Field.g_connections (get ctx g Field.g_connections + 1);
    reply (Bytes.of_string (cfg.banner ^ "\r\n"))
  in
  let handle_command ctx ~g ~conn ~reply cmd arg =
    let r code text =
      Ctx.set_state ctx code;
      reply_str reply code text
    in
    match cmd with
    | "USER" ->
      if Ctx.branch ctx S.user_empty (arg = "") then r 501 "missing user name"
      else begin
        set ctx conn Field.auth 1;
        if Ctx.branch ctx S.user_anon (Proto_util.upper arg = "ANONYMOUS") then
          r 331 "anonymous login ok, send email as password"
        else r 331 "password required"
      end
    | "PASS" ->
      if Ctx.branch ctx S.pass_order (get ctx conn Field.auth <> 1) then
        r 503 "login with USER first"
      else begin
        set ctx conn Field.auth 2;
        r 230 "login successful"
      end
    | "QUIT" -> r 221 "goodbye"
    | "SYST" -> r 215 "UNIX Type: L8"
    | "NOOP" -> r 200 "ok"
    | "HELP" -> r 214 "commands recognized"
    | "FEAT" -> r 211 "features: MDTM REST SIZE"
    | "TYPE" ->
      if Ctx.branch ctx S.type_i (Proto_util.upper arg = "I") then begin
        set ctx conn Field.ty 1;
        r 200 "type set to I"
      end
      else if Ctx.branch ctx S.type_a (Proto_util.upper arg = "A") then begin
        set ctx conn Field.ty 0;
        r 200 "type set to A"
      end
      else r 504 "unsupported type"
    | "PWD" ->
      Ctx.hit ctx S.pwd;
      r 257 ("\"/depth" ^ string_of_int (get ctx conn Field.cwd_depth) ^ "\" is current directory")
    | "CWD" ->
      if Ctx.branch ctx S.cwd_up (arg = "..") then begin
        let d = get ctx conn Field.cwd_depth in
        if Ctx.branch ctx S.cwd_root (d = 0) then r 550 "already at root"
        else begin
          set ctx conn Field.cwd_depth (d - 1);
          r 250 "directory changed"
        end
      end
      else if Ctx.branch ctx S.cwd_abs (String.length arg > 0 && arg.[0] = '/') then begin
        set ctx conn Field.cwd_depth 0;
        r 250 "directory changed to root"
      end
      else if Ctx.branch ctx S.cwd_deep (get ctx conn Field.cwd_depth >= 7) then
        r 550 "directory nesting too deep"
      else begin
        set ctx conn Field.cwd_depth (get ctx conn Field.cwd_depth + 1);
        r 250 "directory changed"
      end
    | "CDUP" ->
      let d = get ctx conn Field.cwd_depth in
      if Ctx.branch ctx S.cdup_root (d = 0) then r 550 "already at root"
      else begin
        set ctx conn Field.cwd_depth (d - 1);
        r 200 "ok"
      end
    | "MKD" | "RMD" | "DELE" ->
      if Ctx.branch ctx (site_of cmd S.noarg) (arg = "") then r 501 "missing path"
      else if Ctx.branch ctx (site_of cmd S.dotdot) (String.length arg >= 2
                                                        && String.sub arg 0 2 = "..")
      then r 550 "permission denied"
      else r 250 (cmd ^ " ok")
    | "PASV" ->
      set ctx conn Field.passive 1;
      r 227 "entering passive mode (127,0,0,1,200,10)"
    | "PORT" -> (
      match String.split_on_char ',' arg with
      | [ _; _; _; _; _; _ ] ->
        Ctx.hit ctx S.port_ok;
        set ctx conn Field.passive 0;
        r 200 "port command successful"
      | _ ->
        Ctx.hit ctx S.port_bad;
        r 501 "illegal port command")
    | "LIST" | "NLST" ->
      if Ctx.branch ctx (site_of cmd S.nodata) (get ctx conn Field.passive = 0) then
        r 425 "use PASV first"
      else r 226 "transfer complete"
    | "RETR" ->
      if Ctx.branch ctx S.retr_noarg (arg = "") then r 501 "missing file"
      else if Ctx.branch ctx S.retr_exists
                (Hashtbl.hash arg = get ctx g Field.g_stored_hash
                 && get ctx g Field.g_stored_count > 0)
      then r 226 "transfer complete"
      else r 550 "no such file"
    | "STOR" | "APPE" ->
      if Ctx.branch ctx S.stor_noarg (arg = "") then r 501 "missing file"
      else begin
        set ctx g Field.g_stored_count (get ctx g Field.g_stored_count + 1);
        set ctx g Field.g_stored_hash (Hashtbl.hash arg);
        r 226 "transfer complete"
      end
    | "RNFR" ->
      set ctx conn Field.rnfr_pending 1;
      r 350 "ready for RNTO"
    | "RNTO" ->
      if Ctx.branch ctx S.rnto_order (get ctx conn Field.rnfr_pending = 0) then
        r 503 "RNFR required first"
      else begin
        set ctx conn Field.rnfr_pending 0;
        r 250 "rename successful"
      end
    | "REST" -> (
      match Proto_util.int_of_string_bounded ~max:1_000_000 arg with
      | Some off ->
        Ctx.hit ctx S.rest_ok;
        set ctx conn Field.rest_offset off;
        r 350 "restarting at offset"
      | None ->
        Ctx.hit ctx S.rest_bad;
        r 501 "bad offset")
    | "SIZE" | "MDTM" | "STAT" ->
      if Ctx.branch ctx (site_of cmd S.noarg) (arg = "") then r 501 "missing argument"
      else r 213 "0"
    | "ABOR" -> r 226 "abort successful"
    | "SITE" -> r 500 "SITE not understood"
    | _ ->
      Ctx.hit ctx S.unknown;
      r 500 "command not understood"
  in
  let on_packet ctx ~g ~conn ~reply data =
    let line = Proto_util.line_of data in
    let cmd, arg =
      match String.index_opt line ' ' with
      | None -> (Proto_util.upper line, "")
      | Some i ->
        ( Proto_util.upper (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    in
    Ctx.hit ctx S.packet;
    if Ctx.branch ctx S.line_empty (String.length line = 0) then
      reply_str reply 500 "empty command"
    else if Ctx.branch ctx S.line_long (String.length line > 512) then
      reply_str reply 500 "line too long"
    else begin
      let handled =
        match cfg.special with
        | Some f -> f { ctx; g; conn; cmd; arg; reply }
        | None -> false
      in
      if not handled then begin
        if
          Ctx.branch ctx S.auth_gate
            (cfg.require_auth && (not (pre_auth_ok cmd))
            && Guest_heap.get_i32 ctx.Ctx.heap (conn + Field.auth) <> 2)
        then reply_str reply 530 "please login with USER and PASS"
        else if not (mem_command cmd cfg.commands) then begin
          Ctx.hit ctx S.unsupported;
          reply_str reply 502 "command not implemented"
        end
        else handle_command ctx ~g ~conn ~reply cmd arg
      end
    end
  in
  let on_disconnect ctx ~g:_ ~conn:_ = Ctx.hit ctx S.disconnect in
  {
    Target.global_state_size;
    conn_state_size;
    on_init;
    on_connect;
    on_packet;
    on_disconnect;
  }
