(* Observability suite (lib/obs): the determinism contract.

   - With tracing off and profiling off, fixed-seed campaigns reproduce
     the pre-instrumentation goldens (captured at commit 2d045ab, before
     lib/obs existed) — the event sites cost nothing and change nothing.
   - Turning profiling on changes no result field either: accumulation
     is observational.
   - Same-seed runs emit identical trace streams once the wall-clock
     stamps (the one non-deterministic field) are masked.
   - A profile's per-phase virtual times sum to exactly the campaign's
     virtual_ns (self-time accounting + the Other remainder).
   - A trace is the profile's event stream: folding a profiled
     campaign's close events by phase (count, virtual self-time) gives
     back its profile exactly.
   - Trace streams are well-nested: a qcheck property drives random span
     forests through Obs.span and rebuilds them from the close events'
     post-order and depths. *)

open Nyx_core
module Trace = Nyx_obs.Trace
module Profile = Nyx_obs.Profile
module Obs = Nyx_obs.Obs

let check_int = Alcotest.(check int)

let echo_entry () = Option.get (Nyx_targets.Registry.find "echo")

let identity_cfg ?(trim = false) ?(policy = Policy.Balanced) ?(budget_ns = 8_000_000_000) () =
  {
    Campaign.default_config with
    Campaign.budget_ns;
    max_execs = 25_000;
    policy;
    trim;
    seed = 7;
  }

(* ------------------------------------------------------------------ *)
(* Trace-off identity: the golden below is the same fixed-seed campaign
   test_hotpath pins, recorded before any lib/obs instrumentation
   existed. It must keep passing with the event sites compiled in. *)

let check_result_fields name (a : Report.campaign_result) (b : Report.campaign_result) =
  check_int (name ^ ": final_edges") a.Report.final_edges b.Report.final_edges;
  check_int (name ^ ": execs") a.Report.execs b.Report.execs;
  check_int (name ^ ": virtual_ns") a.Report.virtual_ns b.Report.virtual_ns;
  check_int (name ^ ": corpus_size") a.Report.corpus_size b.Report.corpus_size;
  Alcotest.(check (list (triple string int int)))
    (name ^ ": crashes")
    (List.map (fun c -> (c.Report.kind, c.Report.found_ns, c.Report.found_exec)) a.Report.crashes)
    (List.map (fun c -> (c.Report.kind, c.Report.found_ns, c.Report.found_exec)) b.Report.crashes);
  check_int
    (name ^ ": timeline samples")
    (List.length (Nyx_sim.Stats.Timeline.samples a.Report.timeline))
    (List.length (Nyx_sim.Stats.Timeline.samples b.Report.timeline))

let test_trace_off_identity () =
  Alcotest.(check bool) "NYX_TRACE is unset in tests" false (Trace.on ());
  let r = Campaign.run (identity_cfg ()) (echo_entry ()) in
  (* Pre-instrumentation golden: balanced/echo, seed 7, 8 virtual s. *)
  check_int "golden: final_edges" 27 r.Report.final_edges;
  check_int "golden: execs" 23151 r.Report.execs;
  check_int "golden: virtual_ns" 8_000_443_636 r.Report.virtual_ns;
  check_int "golden: corpus_size" 68 r.Report.corpus_size;
  Alcotest.(check (list (triple string int int)))
    "golden: crashes"
    [ ("assertion", 20_932_397, 149) ]
    (List.map (fun c -> (c.Report.kind, c.Report.found_ns, c.Report.found_exec)) r.Report.crashes);
  check_int "golden: timeline samples" 88
    (List.length (Nyx_sim.Stats.Timeline.samples r.Report.timeline));
  Alcotest.(check bool) "no profile unless asked" true (r.Report.phase_profile = None)

let test_profile_changes_nothing () =
  let plain = Campaign.run (identity_cfg ()) (echo_entry ()) in
  let profiled = Campaign.run ~profile:true (identity_cfg ()) (echo_entry ()) in
  check_result_fields "profiled == plain" plain profiled

(* ------------------------------------------------------------------ *)
(* Same-seed trace-stream identity, wall stamps masked.                 *)

let mask (e : Trace.event) = { e with Trace.wall_ns = 0 }

let test_trace_stream_deterministic () =
  let cfg = identity_cfg ~budget_ns:2_000_000_000 () in
  let run () = Trace.with_memory_sink (fun () -> Campaign.run cfg (echo_entry ())) in
  let r1, ev1 = run () in
  let r2, ev2 = run () in
  check_result_fields "same-seed results" r1 r2;
  let ev1 = List.map mask ev1 and ev2 = List.map mask ev2 in
  check_int "same event count" (List.length ev1) (List.length ev2);
  Alcotest.(check bool) "streams identical modulo wall time" true (ev1 = ev2);
  (* The stream is non-trivial and records the campaign's shape. *)
  let count name ph =
    List.length (List.filter (fun e -> e.Trace.name = name && e.Trace.ph = ph) ev1)
  in
  check_int "one campaign span" 1 (count "campaign" `X);
  check_int "corpus adds == corpus size" r1.Report.corpus_size (count "corpus-add" `I);
  (* Every execution that ran its program closes one suffix-exec span. *)
  check_int "suffix-exec events carry status and exec_ns"
    (count "suffix-exec" `X)
    (List.length
       (List.filter
          (fun e ->
            e.Trace.name = "suffix-exec"
            && List.mem_assoc "status" e.Trace.fields
            && List.mem_assoc "exec_ns" e.Trace.fields)
          ev1));
  Alcotest.(check bool) "execs traced" true (count "suffix-exec" `X > 0);
  Alcotest.(check bool) "snapshot restores traced" true (count "snapshot-restore" `I > 0);
  (* Events are written as they happen — a span at its close — and the
     virtual clock only advances, so the emission stamps (a span's end,
     an instant's time) are monotone within a domain. *)
  let rec monotone last = function
    | [] -> true
    | e :: tl ->
      let at = e.Trace.vns + e.Trace.dur in
      at >= last && monotone at tl
  in
  Alcotest.(check bool) "emission stamps monotone" true (monotone 0 ev1)

(* ------------------------------------------------------------------ *)
(* Profile: the sum identity, and trim attribution.                     *)

let test_profile_sums_to_virtual_ns () =
  let r = Campaign.run ~profile:true (identity_cfg ()) (echo_entry ()) in
  match r.Report.phase_profile with
  | None -> Alcotest.fail "profiled campaign must carry a profile"
  | Some snap ->
    check_int "total == campaign virtual_ns" r.Report.virtual_ns snap.Profile.total_virtual_ns;
    check_int "phases sum to total" snap.Profile.total_virtual_ns (Profile.sum_virtual_ns snap);
    List.iter
      (fun e ->
        Alcotest.(check bool)
          (Profile.phase_name e.Profile.phase ^ " self-time >= 0")
          true (e.Profile.virtual_ns >= 0))
      snap.Profile.entries;
    let entry ph = List.find (fun e -> e.Profile.phase = ph) snap.Profile.entries in
    Alcotest.(check bool) "resets happened" true ((entry Profile.Reset).Profile.count > 0);
    Alcotest.(check bool) "suffix execs dominate" true
      ((entry Profile.Suffix_exec).Profile.virtual_ns > snap.Profile.total_virtual_ns / 2)

let test_profile_trim_attribution () =
  let r =
    Campaign.run ~profile:true
      (identity_cfg ~policy:Policy.Aggressive ~trim:true ())
      (echo_entry ())
  in
  match r.Report.phase_profile with
  | None -> Alcotest.fail "profiled campaign must carry a profile"
  | Some snap ->
    check_int "sum identity under trim" snap.Profile.total_virtual_ns
      (Profile.sum_virtual_ns snap);
    let trim = List.find (fun e -> e.Profile.phase = Profile.Trim) snap.Profile.entries in
    Alcotest.(check bool) "trim spans recorded" true (trim.Profile.count > 0);
    Alcotest.(check bool) "trim charged virtual time" true (trim.Profile.virtual_ns > 0)

(* ------------------------------------------------------------------ *)
(* The trace folds to the profile.                                      *)

(* Post-order plus depth determine the span forest: a close event at
   depth d adopts the pending subtrees at depth d+1 emitted before it.
   [close] builds the parent from its event and its children in order. *)
let fold_closes close events =
  let pending =
    List.fold_left
      (fun pending (e : Trace.event) ->
        match e.Trace.ph with
        | `I -> pending
        | `X ->
          let rec adopt kids = function
            | (d, kid) :: tl when d = e.Trace.depth + 1 -> adopt (kid :: kids) tl
            | rest -> (kids, rest)
          in
          let kids, rest = adopt [] pending in
          (e.Trace.depth, close e kids) :: rest)
      [] events
  in
  List.rev pending

(* (count, virtual self-time) per event name, recomputed from close
   events: a span's self-time is its [dur] minus its children's. *)
let fold_profile events =
  let tbl = Hashtbl.create 16 in
  ignore
    (fold_closes
       (fun e kids ->
         let c, v = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl e.Trace.name) in
         Hashtbl.replace tbl e.Trace.name (c + 1, v + e.Trace.dur - List.fold_left ( + ) 0 kids);
         e.Trace.dur)
       events);
  fun name -> Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name)

let check_trace_folds_to_profile name run =
  let r, events = Trace.with_memory_sink run in
  match r.Report.phase_profile with
  | None -> Alcotest.fail (name ^ ": profiled campaign must carry a profile")
  | Some snap ->
    let folded = fold_profile events in
    List.iter
      (fun (e : Profile.entry) ->
        if e.Profile.phase <> Profile.Other then
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: %s count, virtual self-time" name
               (Profile.phase_name e.Profile.phase))
            (e.Profile.count, e.Profile.virtual_ns)
            (folded (Profile.phase_name e.Profile.phase)))
      snap.Profile.entries;
    snap

let test_trace_folds_to_profile () =
  let count snap ph =
    (List.find (fun e -> e.Profile.phase = ph) snap.Profile.entries).Profile.count
  in
  let echo =
    check_trace_folds_to_profile "echo aggressive+trim" (fun () ->
        Campaign.run ~profile:true
          (identity_cfg ~policy:Policy.Aggressive ~trim:true ~budget_ns:2_000_000_000 ())
          (echo_entry ()))
  in
  Alcotest.(check bool) "trim override exercised" true (count echo Profile.Trim > 0);
  let ftp =
    check_trace_folds_to_profile "lightftp dynamic" (fun () ->
        Campaign.run ~profile:true
          (identity_cfg ~policy:Policy.Dynamic ~budget_ns:2_000_000_000 ())
          (Option.get (Nyx_targets.Registry.find "lightftp")))
  in
  Alcotest.(check bool) "snapshot-place exercised" true (count ftp Profile.Snapshot_place > 0);
  let dtls =
    check_trace_folds_to_profile "tinydtls peer" (fun () ->
        Campaign.run ~profile:true
          ~peer:(Option.get (Nyx_peer.Peer_script.find "tinydtls"))
          { (identity_cfg ~policy:Policy.Aggressive ~budget_ns:1_500_000_000 ()) with
            Campaign.max_execs = 1_500 }
          (Option.get (Nyx_targets.Registry.find "tinydtls")))
  in
  Alcotest.(check bool) "peer exercised" true (count dtls Profile.Peer > 0)

(* ------------------------------------------------------------------ *)
(* Well-nesting property: random span forests in, the same forests
   rebuilt from the close events out.                                  *)

type tree = Node of int * tree list

let tree_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n = 0 then map (fun i -> Node (i, [])) (int_bound 5)
           else
             map2
               (fun i kids -> Node (i, kids))
               (int_bound 5)
               (list_size (int_bound 4) (self (n / 2)))))

let forest_gen = QCheck.Gen.(list_size (int_bound 5) tree_gen)

let span_phase i =
  Profile.([| Reset; Prefix_replay; Suffix_exec; Snapshot_create; Cov_merge; Mutation |]).(i)

(* Each span advances the clock by its own label before and after its
   children, so every span has a distinct, non-empty extent. *)
let rec emit_tree o (Node (i, kids)) =
  Obs.span o (span_phase i) ~attrs:(fun () -> [ ("k", Trace.Int i) ]) (fun () ->
      Obs.event o "tick" [];
      Nyx_sim.Clock.advance (Obs.clock o) (i + 1);
      List.iter (emit_tree o) kids;
      Nyx_sim.Clock.advance (Obs.clock o) (i + 1))

(* Rebuild the forest; [None] when an event is misplaced: a child's
   extent outside its parent's, an attribute that does not match the
   name, or an instant whose depth is not one below the span it opens. *)
let rebuild events =
  let ok = ref true in
  let forest =
    fold_closes
      (fun e kids ->
        let i = match List.assoc_opt "k" e.Trace.fields with Some (Trace.Int i) -> i | _ -> -1 in
        if i < 0 || Profile.phase_name (span_phase i) <> e.Trace.name then ok := false;
        List.iter
          (fun (_, (v, d)) ->
            if v < e.Trace.vns || v + d > e.Trace.vns + e.Trace.dur then ok := false)
          kids;
        (Node (i, List.map fst kids), (e.Trace.vns, e.Trace.dur)))
      events
  in
  let ticks = List.filter (fun e -> e.Trace.ph = `I) events in
  let closes = List.filter (fun e -> e.Trace.ph = `X) events in
  (* The k-th tick opens the k-th span in pre-order; pre-order of the
     rebuilt forest is recovered by sorting closes on start, then depth. *)
  let pre =
    List.stable_sort
      (fun a b -> compare (a.Trace.vns, a.Trace.depth) (b.Trace.vns, b.Trace.depth))
      closes
  in
  if List.length ticks <> List.length pre
     || not (List.for_all2 (fun t c -> t.Trace.depth = c.Trace.depth + 1 && t.Trace.vns = c.Trace.vns) ticks pre)
  then ok := false;
  if !ok && List.for_all (fun (d, _) -> d = 0) forest then
    Some (List.map (fun (_, (t, _)) -> t) forest)
  else None

let prop_spans_well_nested =
  QCheck.Test.make ~name:"trace streams are well-nested span forests" ~count:100
    (QCheck.make forest_gen) (fun forest ->
      let o = Obs.create (Nyx_sim.Clock.create ()) in
      let (), events = Trace.with_memory_sink (fun () -> List.iter (emit_tree o) forest) in
      rebuild events = Some forest)

let test_memory_sink_restores () =
  let (), events =
    Trace.with_memory_sink (fun () ->
        Trace.instant "ping" [ ("x", Trace.Int 1); ("s", Trace.Str "a\"b") ])
  in
  check_int "one event" 1 (List.length events);
  Alcotest.(check bool) "sink restored after with_memory_sink" false (Trace.on ());
  let e = List.hd events in
  Alcotest.(check string)
    "json encoding"
    (Printf.sprintf
       "{\"ev\":\"ping\",\"ph\":\"I\",\"dom\":%d,\"depth\":0,\"vt\":0,\"wt\":%d,\"x\":1,\"s\":\"a\\\"b\"}"
       e.Trace.dom e.Trace.wall_ns)
    (Trace.event_json e);
  let (), spans =
    Trace.with_memory_sink (fun () ->
        Trace.complete "s" ~vns:5 ~dur:3 ~depth:1 ~wall:0.0 [ ("ok", Trace.Bool true) ])
  in
  let e = List.hd spans in
  Alcotest.(check string)
    "close-event json encoding"
    (Printf.sprintf
       "{\"ev\":\"s\",\"ph\":\"X\",\"dom\":%d,\"depth\":1,\"vt\":5,\"dur\":3,\"wt\":%d,\"ok\":true}"
       e.Trace.dom e.Trace.wall_ns)
    (Trace.event_json e)

let () =
  Alcotest.run "nyx_obs"
    [
      ( "determinism",
        [
          Alcotest.test_case "trace off: golden identity" `Quick test_trace_off_identity;
          Alcotest.test_case "profile on: results unchanged" `Quick
            test_profile_changes_nothing;
          Alcotest.test_case "same seed: identical trace stream" `Quick
            test_trace_stream_deterministic;
        ] );
      ( "profile",
        [
          Alcotest.test_case "phases sum to virtual_ns" `Quick
            test_profile_sums_to_virtual_ns;
          Alcotest.test_case "trim override attribution" `Quick
            test_profile_trim_attribution;
          Alcotest.test_case "trace folds to the profile" `Quick
            test_trace_folds_to_profile;
        ] );
      ( "trace",
        [
          QCheck_alcotest.to_alcotest prop_spans_well_nested;
          Alcotest.test_case "memory sink + json encoding" `Quick
            test_memory_sink_restores;
        ] );
    ]
