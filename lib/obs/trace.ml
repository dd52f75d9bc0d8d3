type value = Int of int | Str of string | Bool of bool

type event = {
  name : string;
  ph : [ `X | `I ];
  dom : int;
  depth : int;
  vns : int;
  dur : int;
  wall_ns : int;
  fields : (string * value) list;
}

(* ------------------------------------------------------------------ *)
(* Sinks.                                                              *)

type sink =
  | File of out_channel
  | Memory of event list ref
      (* test sink: events appended (reversed) under [sink_mutex] *)

(* Domain-safety: every flush/append to the shared sink holds
   [sink_mutex]; per-domain buffers (below) are domain-local. *)
let sink_mutex = Mutex.create ()

(* The armed sink. Written once at load (from NYX_TRACE, before any
   worker domain exists) and by [with_memory_sink] in single-writer
   tests; hot-path readers do one load + branch. Domain-safe: see
   [sink_mutex] for all mutation of the sink's contents. *)
let sink : sink option ref =
  ref
    (match Sys.getenv_opt "NYX_TRACE" with
    | None | Some "" -> None
    | Some path -> (
      match open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path with
      | chan -> Some (File chan)
      | exception Sys_error m ->
        Printf.eprintf "NYX_TRACE: cannot open %s (%s); tracing disabled\n%!" path m;
        None))

let on () = match !sink with None -> false | Some _ -> true

(* Wall time the armed sink counts [wt] from: small stamps that stay
   exact as JSON numbers (doubles). Written with [sink], under the same
   discipline — at load and by the single-writer test helpers. Domain-safe:
   read-only while any worker domain runs. *)
let epoch = ref (Unix.gettimeofday ())

(* ------------------------------------------------------------------ *)
(* Per-domain buffers.                                                 *)

let flush_threshold = 1 lsl 16

(* Fault hook: make the next file-sink flush fail as if the descriptor
   had been closed under us. Domain-safe: read/cleared under [sink_mutex]. *)
let fail_next_flush = ref false

let inject_flush_failure () =
  Mutex.lock sink_mutex;
  fail_next_flush := true;
  Mutex.unlock sink_mutex

(* Write one domain's pending JSONL bytes to the sink under [sink_mutex]. *)
let flush_buf buf =
  if Buffer.length buf > 0 then begin
    (match !sink with
    | Some (File chan) -> (
      Mutex.lock sink_mutex;
      let result =
        if !fail_next_flush then begin
          fail_next_flush := false;
          Error "injected failure"
        end
        else
          match
            Buffer.output_buffer chan buf;
            Stdlib.flush chan
          with
          | () -> Ok ()
          | exception Sys_error m -> Error m
      in
      (match result with
      | Ok () -> ()
      | Error m ->
        (* Tracing is observational — a dead sink must not kill the
           campaign. Disable it (so this warns exactly once) and go on. *)
        close_out_noerr chan;
        sink := None;
        Printf.eprintf "nyx_obs: trace sink write failed (%s); tracing disabled\n%!"
          m);
      Mutex.unlock sink_mutex)
    | Some (Memory _) | None -> ());
    Buffer.clear buf
  end

(* Domain-safety: domain-local storage — each domain gets its own buffer
   from this key, so event sites never contend. The initialiser runs on
   the domain that first emits and registers the flush of its buffer for
   that domain's exit — a worker's when the pool joins it, the main
   domain's at program exit. *)
let dls : Buffer.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let buf = Buffer.create 4096 in
      Domain.at_exit (fun () -> flush_buf buf);
      buf)

let flush () = flush_buf (Domain.DLS.get dls)

(* ------------------------------------------------------------------ *)
(* JSON encoding.                                                      *)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> add_json_string b s
  | Bool v -> Buffer.add_string b (string_of_bool v)

let add_event_json b e =
  Buffer.add_string b "{\"ev\":";
  add_json_string b e.name;
  Buffer.add_string b ",\"ph\":\"";
  Buffer.add_char b (match e.ph with `X -> 'X' | `I -> 'I');
  Buffer.add_string b "\",\"dom\":";
  Buffer.add_string b (string_of_int e.dom);
  Buffer.add_string b ",\"depth\":";
  Buffer.add_string b (string_of_int e.depth);
  Buffer.add_string b ",\"vt\":";
  Buffer.add_string b (string_of_int e.vns);
  (match e.ph with
  | `X ->
    Buffer.add_string b ",\"dur\":";
    Buffer.add_string b (string_of_int e.dur)
  | `I -> ());
  Buffer.add_string b ",\"wt\":";
  Buffer.add_string b (string_of_int e.wall_ns);
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      add_json_string b k;
      Buffer.add_char b ':';
      add_value b v)
    e.fields;
  Buffer.add_char b '}'

let event_json e =
  let b = Buffer.create 128 in
  add_event_json b e;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Emission.                                                           *)

let emit ph name ~vns ~dur ~depth ~wall fields =
  let dom = (Domain.self () :> int) and wall_ns = int_of_float ((wall -. !epoch) *. 1e9) in
  let e = { name; ph; dom; depth; vns; dur; wall_ns; fields } in
  match !sink with
  | None -> ()
  | Some (Memory events) ->
    Mutex.lock sink_mutex;
    events := e :: !events;
    Mutex.unlock sink_mutex
  | Some (File _) ->
    let buf = Domain.DLS.get dls in
    add_event_json buf e;
    Buffer.add_char buf '\n';
    if Buffer.length buf >= flush_threshold then flush_buf buf

let instant ?(vns = 0) ?(depth = 0) name fields =
  if on () then emit `I name ~vns ~dur:0 ~depth ~wall:(Unix.gettimeofday ()) fields

let complete name ~vns ~dur ~depth ~wall fields =
  if on () then emit `X name ~vns ~dur ~depth ~wall fields

(* ------------------------------------------------------------------ *)
(* Test sink.                                                          *)

(* Flush any pending file-sink bytes so they are not re-attributed, then
   arm [s]; returns the sink to restore. *)
let arm s =
  let saved = !sink in
  flush ();
  sink := Some s;
  epoch := Unix.gettimeofday ();
  saved

let with_memory_sink f =
  let events = ref [] in
  let saved = arm (Memory events) in
  let r = Fun.protect ~finally:(fun () -> sink := saved) f in
  (r, List.rev !events)

let with_file_sink path f =
  let chan = open_out_bin path in
  let saved = arm (File chan) in
  let restore () =
    flush ();
    (* The sink may have disabled itself (flush failure closed [chan]). *)
    (match !sink with Some (File c) when c == chan -> close_out_noerr c | _ -> ());
    sink := saved
  in
  Fun.protect ~finally:restore f
