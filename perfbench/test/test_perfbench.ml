(* The benchmark's own tests: every workload at a tiny virtual budget, with
   tracing off and on, must pass its correctness check and print every
   metric of its mode with its unit; BENCHMARK.json must declare exactly
   the metrics and workloads the code measures. *)

open Perfbench_lib

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun m ->
      if not cond then begin
        incr failures;
        Printf.printf "FAIL: %s\n%!" m
      end)
    fmt

let find_from s i sub =
  let n = String.length s and k = String.length sub in
  let rec go i = if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1) in
  go i

let contains s sub = find_from s 0 sub <> None

(* The unit printed right after a metric's key in the result line. *)
let unit_after line key =
  match find_from line 0 key with
  | None -> None
  | Some i -> (
    let tag = "\"unit\": \"" in
    match find_from line i tag with
    | None -> None
    | Some j ->
      let start = j + String.length tag in
      Option.map (fun e -> String.sub line start (e - start)) (find_from line start "\""))

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader, enough for BENCHMARK.json.                   *)

type json = Obj of (string * json) list | Arr of json list | Str of string | Num of float | Lit of string

let parse_json s =
  let pos = ref 0 in
  let peek () = if !pos < String.length s then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          if peek () = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if peek () = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | _ ->
      let start = !pos in
      while
        match peek () with
        | ',' | '}' | ']' | ' ' | '\n' | '\r' | '\t' | '\000' -> false
        | _ -> true
      do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      (match float_of_string_opt tok with Some f -> Num f | None -> Lit tok)
  in
  value ()

let field k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let items = function Some (Arr l) -> l | _ -> []
let str_field k j = match field k j with Some (Str s) -> s | _ -> ""

(* ------------------------------------------------------------------ *)

let test_declared () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = parse_json text in
  let declared key specs =
    let got =
      List.map (fun m -> (str_field "name" m, str_field "unit" m, str_field "better" m)) (items (field key j))
    in
    let want =
      List.map (fun s -> (s.Metric.name, s.Metric.unit_, Metric.better_name s.Metric.better)) specs
    in
    check (got = want) "BENCHMARK.json %s lists the metrics the code prints (%d declared, %d measured)"
      key (List.length got) (List.length want)
  in
  declared "end_to_end" Metric.end_to_end;
  declared "per_layer" Metric.per_layer;
  let names = List.map (str_field "name") (items (field "workloads" j)) in
  check
    (names = List.map (fun w -> w.Workload.name) Workload.all)
    "BENCHMARK.json workloads match the code";
  List.iter
    (fun m ->
      match field "bound" m with
      | Some (Num b) -> check (b > 0.0 && b <= 0.25) "bound of %s in (0, 0.25]" (str_field "name" m)
      | _ -> check false "end-to-end metric %s has a bound" (str_field "name" m))
    (items (field "end_to_end" j))

let test_workload w ~trace =
  let tmp = Filename.concat (Sys.getcwd ()) ("tmp-" ^ w.Workload.name) in
  (try Sys.mkdir tmp 0o755 with Sys_error _ -> ());
  let o =
    { Bench.workload = w; seed = 3; seconds = 0.0; trace; out_dir = None; tmp; scale = 0.02 }
  in
  let r = Bench.run o in
  let line = Metric.result_line r.Bench.outcome in
  let tag = Printf.sprintf "%s trace=%b" w.Workload.name trace in
  check r.Bench.outcome.Metric.correct "%s: correctness check passes (%s)" tag
    (String.concat "; " r.Bench.notes);
  check (r.Bench.outcome.Metric.failed = 0) "%s: no failed operations" tag;
  check (r.Bench.outcome.Metric.attempted > 0) "%s: attempted > 0" tag;
  check (contains line "{\"correct\": true, \"attempted\": ") "%s: result line starts right" tag;
  let specs = if trace then Metric.per_layer else Metric.end_to_end in
  check (List.length r.Bench.outcome.Metric.values = List.length specs) "%s: exactly the mode's metrics" tag;
  List.iter
    (fun s ->
      match unit_after line (Printf.sprintf "%S: {\"value\": " s.Metric.name) with
      | Some u -> check (u = s.Metric.unit_) "%s: %s printed in %s, declared %s" tag s.Metric.name u s.Metric.unit_
      | None -> check false "%s: prints %s" tag s.Metric.name)
    specs;
  List.iter
    (fun (s, v) -> check (Float.is_finite v) "%s: %s is finite" tag s.Metric.name)
    r.Bench.outcome.Metric.values;
  if not trace then
    List.iter
      (fun (s, v) ->
        check (v > 0.0) "%s: end-to-end %s is never 0 (got %g)" tag s.Metric.name v)
      r.Bench.outcome.Metric.values;
  Printf.printf "%s: ok=%b attempted=%d\n%!" tag r.Bench.outcome.Metric.correct
    r.Bench.outcome.Metric.attempted

let () =
  test_declared ();
  List.iter
    (fun w ->
      test_workload w ~trace:false;
      test_workload w ~trace:true)
    Workload.all;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
