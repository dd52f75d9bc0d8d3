(* Tests for the nyx_analysis layer: the program verifier, the spec
   linter, the audit aggregator, the interpreter sanitizer and the
   domain-safety source lint. *)

open Nyx_spec
open Nyx_analysis

let net () = Net_spec.create ()

let op node args data = { Program.node; args; data }
let no_data = [||]
let payload s = [| Bytes.of_string s |]

(* Net-spec programs. Node ids via the typed record. *)
let connect_op ns = op ns.Net_spec.connect.Spec.nt_id [||] no_data
let packet_op ns arg s = op ns.Net_spec.packet.Spec.nt_id [| arg |] (payload s)
let close_op ns arg = op ns.Net_spec.close.Spec.nt_id [| arg |] no_data
let snapshot_op = op Spec.snapshot_node_id [||] no_data

let prog ns ops = { Program.spec = ns.Net_spec.spec; ops = Array.of_list ops }

let codes diags = List.map (fun d -> d.Diag.code) diags

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let has_code c diags = List.mem c (codes diags)

let check_code name c diags =
  Alcotest.(check bool) (name ^ ": emits " ^ c) true (has_code c diags)

(* --- verifier: error diagnostics --- *)

let test_affine_use_after_consume () =
  let ns = net () in
  let diags =
    Verifier.check (prog ns [ connect_op ns; close_op ns 0; packet_op ns 0 "x" ])
  in
  check_code "close then packet" "affine-use-after-consume" diags;
  (* Provenance chain: the message names both the producing and the
     consuming op. *)
  let d = List.find (fun d -> d.Diag.code = "affine-use-after-consume") diags in
  Alcotest.(check bool) "provenance mentions producer op" true
    (contains d.Diag.msg "produced at op 0");
  Alcotest.(check bool) "provenance mentions consumer op" true
    (contains d.Diag.msg "consumed at op 1")

let test_dangling_arg () =
  let ns = net () in
  check_code "packet with no connect" "dangling-arg"
    (Verifier.check (prog ns [ packet_op ns 0 "x" ]))

let test_bad_arity () =
  let ns = net () in
  let bad = op ns.Net_spec.packet.Spec.nt_id [||] (payload "x") in
  check_code "packet with no args" "bad-arity"
    (Verifier.check (prog ns [ connect_op ns; bad ]))

let test_unknown_opcode () =
  let ns = net () in
  check_code "node 99" "unknown-opcode"
    (Verifier.check (prog ns [ op 99 [||] no_data ]))

let test_multiple_snapshots () =
  let ns = net () in
  check_code "two snapshots" "multiple-snapshots"
    (Verifier.check
       (prog ns [ connect_op ns; snapshot_op; packet_op ns 0 "x"; snapshot_op;
                  packet_op ns 0 "y" ]))

let test_snapshot_carries_payload () =
  let ns = net () in
  let bad = op Spec.snapshot_node_id [| 0 |] no_data in
  check_code "snapshot with an arg" "snapshot-carries-payload"
    (Verifier.check (prog ns [ connect_op ns; bad; packet_op ns 0 "x" ]))

let test_data_too_long () =
  let ns = net () in
  let huge = String.make (ns.Net_spec.payload.Spec.max_len + 1) 'a' in
  check_code "oversized payload" "data-too-long"
    (Verifier.check (prog ns [ connect_op ns; packet_op ns 0 huge ]))

let test_bad_data_arity () =
  let ns = net () in
  let bad = op ns.Net_spec.packet.Spec.nt_id [| 0 |] no_data in
  check_code "packet without payload field" "bad-data-arity"
    (Verifier.check (prog ns [ connect_op ns; bad ]))

(* --- verifier: warning diagnostics --- *)

let test_dead_value () =
  let ns = net () in
  let diags = Verifier.check (prog ns [ connect_op ns ]) in
  check_code "unused connection" "dead-value" diags;
  Alcotest.(check int) "dead-value is a warning, not an error" 0
    (List.length (List.filter Diag.is_error diags))

let test_noop_interaction () =
  let ns = net () in
  check_code "empty packet" "noop-interaction"
    (Verifier.check (prog ns [ connect_op ns; packet_op ns 0 "" ]))

let test_leading_snapshot () =
  let ns = net () in
  check_code "snapshot first" "leading-snapshot"
    (Verifier.check (prog ns [ snapshot_op; connect_op ns; packet_op ns 0 "x" ]))

let test_trailing_snapshot () =
  let ns = net () in
  check_code "snapshot last" "trailing-snapshot"
    (Verifier.check (prog ns [ connect_op ns; packet_op ns 0 "x"; snapshot_op ]))

let test_data_at_bound () =
  let ns = net () in
  let full = String.make ns.Net_spec.payload.Spec.max_len 'a' in
  check_code "saturated payload" "data-at-bound"
    (Verifier.check (prog ns [ connect_op ns; packet_op ns 0 full ]))

let test_well_placed_snapshot_clean () =
  let ns = net () in
  let p =
    prog ns [ connect_op ns; packet_op ns 0 "hello"; snapshot_op;
              packet_op ns 0 "world"; close_op ns 0 ]
  in
  Alcotest.(check (list string)) "mid-program snapshot program is clean" []
    (codes (Verifier.check p))

(* All error findings are reported in one pass, not just the first. *)
let test_reports_all_findings () =
  let ns = net () in
  let huge = String.make (ns.Net_spec.payload.Spec.max_len + 1) 'a' in
  let diags =
    Verifier.check
      (prog ns [ connect_op ns; close_op ns 0; packet_op ns 0 huge; packet_op ns 7 "x" ])
  in
  check_code "multi" "affine-use-after-consume" diags;
  check_code "multi" "data-too-long" diags;
  check_code "multi" "dangling-arg" diags

(* --- spec linter --- *)

let test_spec_lint_unconstructible () =
  (* [use] needs an edge type nothing outputs; [boot] is a bootstrap
     cycle (the only producer of y needs a y). Both are unconstructible. *)
  let b = Spec.start "bad" in
  let x = Spec.edge_type b "x" in
  let y = Spec.edge_type b "y" in
  let _use = Spec.node_type b ~borrows:[ x ] "use" in
  let _boot = Spec.node_type b ~borrows:[ y ] ~outputs:[ y ] "boot" in
  let diags = Spec_lint.check (Spec.finalize b) in
  Alcotest.(check int) "both nodes flagged" 2
    (List.length (List.filter (fun d -> d.Diag.code = "unconstructible-node") diags))

let test_spec_lint_unused_edge () =
  let b = Spec.start "bad" in
  let x = Spec.edge_type b "x" in
  let _mk = Spec.node_type b ~outputs:[ x ] "mk" in
  check_code "output-only edge" "unused-edge-type" (Spec_lint.check (Spec.finalize b))

let test_spec_lint_zero_data_bound () =
  let b = Spec.start "bad" in
  let d = Spec.data_type b ~max_len:0 "empty" in
  let _n = Spec.node_type b ~data:[ d ] "send" in
  check_code "max_len 0" "zero-data-bound" (Spec_lint.check (Spec.finalize b))

let test_spec_lint_node_name_collision () =
  let b = Spec.start "bad" in
  let _a = Spec.node_type b "dup" in
  let _b = Spec.node_type b "dup" in
  check_code "two nodes named dup" "node-name-collision"
    (Spec_lint.check (Spec.finalize b))

let test_spec_lint_shipped_specs_clean () =
  let ns = net () in
  Alcotest.(check (list string)) "raw-network spec" []
    (codes (Spec_lint.check ns.Net_spec.spec));
  let ipc = Nyx_targets.Ipc_spec.create () in
  Alcotest.(check (list string)) "firefox-ipc-typed spec" []
    (codes (Spec_lint.check ipc.Nyx_targets.Ipc_spec.spec))

(* --- audit aggregation --- *)

let test_audit_report_and_json () =
  let ns = net () in
  let clean = Audit.program ~subject:"clean" (prog ns [ connect_op ns; close_op ns 0 ]) in
  let broken =
    Audit.program ~subject:"broken" (prog ns [ connect_op ns; close_op ns 0; packet_op ns 0 "x" ])
  in
  let audit = Audit.of_entries [ clean; broken ] in
  Alcotest.(check int) "subjects" 2 (Audit.subjects audit);
  Alcotest.(check int) "errors" 1 (Audit.errors audit);
  Alcotest.(check bool) "not clean" false (Audit.is_clean audit);
  Alcotest.(check int) "only broken flagged" 1 (List.length (Audit.flagged audit));
  let json = Audit.to_json audit in
  Alcotest.(check bool) "json names the subject" true
    (contains json {|"subject":"broken"|});
  Alcotest.(check bool) "json names the code" true
    (contains json "affine-use-after-consume");
  let pretty = Format.asprintf "%a" Audit.pp audit in
  Alcotest.(check bool) "report names the subject" true
    (contains pretty "broken")

(* --- interpreter sanitizer --- *)

(* Handlers that count interactions and mint outputs mechanically. *)
let counting_handlers hits =
  {
    Interp.exec =
      (fun nt _inputs _data ->
        incr hits;
        List.map (fun _ -> 0) nt.Spec.outputs);
    snapshot = ignore;
  }

let test_sanitizer_catches_affine_violation () =
  let ns = net () in
  let p = prog ns [ connect_op ns; close_op ns 0; packet_op ns 0 "x" ] in
  let hits = ref 0 in
  (* Off (explicitly): the bad program runs to completion — handlers in
     this reproduction tolerate stale values. *)
  let _ = Interp.run ~sanitize:false p (counting_handlers hits) in
  Alcotest.(check int) "all 3 ops executed unsanitized" 3 !hits;
  (* On: the same program trips the affine assertion at op 2. *)
  let code =
    try
      let _ = Interp.run ~sanitize:true p (counting_handlers (ref 0)) in
      "no-violation"
    with Interp.Violation { op; code; _ } ->
      Alcotest.(check int) "violation at op 2" 2 op;
      code
  in
  Alcotest.(check string) "affine violation" "affine-use-after-consume" code

let test_sanitizer_catches_dangling_arg () =
  let ns = net () in
  let p = prog ns [ packet_op ns 3 "x" ] in
  let code =
    try
      let _ = Interp.run ~sanitize:true p (counting_handlers (ref 0)) in
      "no-violation"
    with Interp.Violation { code; _ } -> code
  in
  Alcotest.(check string) "dangling arg" "dangling-arg" code

let test_sanitizer_ok_on_valid_programs () =
  let ns = net () in
  let p =
    prog ns [ connect_op ns; packet_op ns 0 "a"; snapshot_op; packet_op ns 0 "b";
              close_op ns 0 ]
  in
  let hits = ref 0 in
  let _ = Interp.run ~sanitize:true p (counting_handlers hits) in
  Alcotest.(check int) "4 interactions" 4 !hits;
  (* The affine state must survive the prefix/suffix split: close (a
     consume) in the suffix is legal exactly once. *)
  match Interp.run_until_snapshot ~sanitize:true p (counting_handlers (ref 0)) with
  | None -> Alcotest.fail "program has a snapshot"
  | Some (resume, env) ->
    let env2 = Interp.copy_env env in
    let _ = Interp.run ~from:resume ~env:env2 p (counting_handlers (ref 0)) in
    (* Re-running the suffix on a fresh copy must also succeed: the first
       run's consume of value 0 must not leak into the snapshot env. *)
    let env3 = Interp.copy_env env in
    let _ = Interp.run ~from:resume ~env:env3 p (counting_handlers (ref 0)) in
    ()

let test_sanitizer_consume_leaks_across_suffixes_without_copy () =
  let ns = net () in
  let p = prog ns [ connect_op ns; snapshot_op; close_op ns 0 ] in
  match Interp.run_until_snapshot ~sanitize:true p (counting_handlers (ref 0)) with
  | None -> Alcotest.fail "program has a snapshot"
  | Some (resume, env) -> (
    (* Deliberately reuse the same env for two suffix runs: the second
       close must trip the sanitizer, proving the consumed flags live in
       the env (and that copy_env is what isolates suffix runs). *)
    let _ = Interp.run ~from:resume ~env p (counting_handlers (ref 0)) in
    try
      let _ = Interp.run ~from:resume ~env p (counting_handlers (ref 0)) in
      Alcotest.fail "second close on shared env must violate"
    with Interp.Violation { code; _ } ->
      Alcotest.(check string) "double consume" "affine-use-after-consume" code)

(* --- domain-safety source lint --- *)

let findings_of src = Source_lint.lint_string ~file:"x.ml" src

let test_source_lint_flags_unannotated () =
  let fs = findings_of "let cache = Hashtbl.create 64\n" in
  Alcotest.(check int) "one finding" 1 (List.length fs);
  let f = List.hd fs in
  Alcotest.(check string) "binding" "cache" f.Source_lint.binding;
  Alcotest.(check string) "pattern" "Hashtbl.create" f.Source_lint.pattern;
  Alcotest.(check int) "line" 1 f.Source_lint.line

let test_source_lint_annotation_suppresses () =
  let src = "(* Domain-safety: guarded by the registry mutex. *)\nlet cache = Hashtbl.create 64\n" in
  Alcotest.(check int) "annotated binding is quiet" 0 (List.length (findings_of src))

let test_source_lint_ignores_functions_and_closures () =
  let src =
    "let make_table () = Hashtbl.create 64\n\
     let of_seed seed rng = ref (seed + Nyx.run rng)\n\
     let thunk = fun () -> Array.make 4 0\n"
  in
  Alcotest.(check int) "functions allocate per call" 0 (List.length (findings_of src))

let test_source_lint_word_boundaries () =
  let src = "let label = status_of \"refused\"\nlet p = prefix_len\n" in
  Alcotest.(check int) "no substring false positives" 0 (List.length (findings_of src));
  let fs = findings_of "let total = ref 0\n" in
  Alcotest.(check int) "bare ref still caught" 1 (List.length fs)

let test_source_lint_multiline_rhs () =
  let src = "let table =\n  Hashtbl.create\n    128\n" in
  let fs = findings_of src in
  Alcotest.(check int) "continuation lines scanned" 1 (List.length fs);
  Alcotest.(check string) "pattern" "Hashtbl.create" (List.hd fs).Source_lint.pattern

let test_ml_files_under_skips_build_dirs () =
  let root = Filename.temp_file "nyx_lint" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  let mkdir d = Unix.mkdir (Filename.concat root d) 0o755 in
  let touch f = close_out (open_out (Filename.concat root f)) in
  List.iter mkdir [ "sub"; "_build"; "_opam"; ".git" ];
  Unix.mkdir (Filename.concat root "_build/default") 0o755;
  List.iter touch
    [
      "a.ml"; "notes.txt"; "sub/b.ml"; "_build/default/gen.ml"; "_opam/pkg.ml";
      ".git/hook.ml";
    ];
  let found =
    List.map
      (fun p -> String.sub p (String.length root + 1) (String.length p - String.length root - 1))
      (Source_lint.ml_files_under root)
  in
  Alcotest.(check (list string))
    "only real sources, deterministic order" [ "a.ml"; "sub/b.ml" ] found;
  let single = Source_lint.ml_files_under (Filename.concat root "a.ml") in
  Alcotest.(check int) "a file is returned as itself" 1 (List.length single)

(* --- static protocol state graph --- *)

let test_state_graph_net_spec () =
  let ns = net () in
  let g = State_graph.build ns.Net_spec.spec in
  (* Raw network protocol: {} <-> {connection}. *)
  Alcotest.(check int) "two abstract states" 2 (State_graph.state_count g);
  Alcotest.(check (list int)) "no dead states" [] (State_graph.dead_states g);
  Alcotest.(check bool) "close/connect cycle is a chatter region" true
    (State_graph.chatter_regions g <> []);
  Alcotest.(check (list string)) "shipped spec graph is lint-clean" []
    (codes (State_graph.check ns.Net_spec.spec));
  let dot = State_graph.to_dot g in
  Alcotest.(check bool) "dot names the transitions" true
    (contains dot "label=\"connect\"" && contains dot "label=\"packet\"");
  let json = State_graph.to_json g in
  Alcotest.(check bool) "json carries the state count" true
    (contains json "\"state_count\":2")

let test_state_graph_dead_state () =
  (* Every node needs a conn but nothing can produce one: the start
     state enables no opcode — every program over this spec is empty. *)
  let b = Spec.start "dead-end" in
  let conn = Spec.edge_type b "conn" in
  let _ = Spec.node_type b ~borrows:[ conn ] "use" in
  let spec = Spec.finalize b in
  let g = State_graph.build spec in
  Alcotest.(check (list int)) "start state is dead" [ 0 ] (State_graph.dead_states g);
  check_code "dead state warning" "state-graph-dead-state" (State_graph.check spec)

(* --- dataflow typestate pass --- *)

let test_dataflow_affecting_classification () =
  let ns = net () in
  (* connect / data packet / two empty packets on the drained conn. *)
  let p =
    prog ns
      [
        connect_op ns; packet_op ns 0 "USER x"; op ns.Net_spec.packet.Spec.nt_id
          [| 0 |] (payload ""); op ns.Net_spec.packet.Spec.nt_id [| 0 |] (payload "");
      ]
  in
  Alcotest.(check (list bool))
    "only empty packets on a drained conn are inert" [ true; true; false; false ]
    (Array.to_list (Dataflow.affecting p));
  Alcotest.(check (list int)) "feasible boundaries" [ 1; 2 ]
    (Dataflow.feasible_boundaries p);
  (* UDP delivers empty datagrams: nothing is inert. *)
  Alcotest.(check (list int)) "udp keeps every interior index" [ 1; 2; 3 ]
    (Dataflow.feasible_boundaries ~udp:true p);
  (* An empty packet on an undrained conn still drains it: affecting. *)
  let p2 =
    prog ns [ connect_op ns; op ns.Net_spec.packet.Spec.nt_id [| 0 |] (payload "") ]
  in
  Alcotest.(check (list bool)) "first empty packet drains the banner"
    [ true; true ]
    (Array.to_list (Dataflow.affecting p2))

let test_dataflow_state_path () =
  let ns = net () in
  let p = prog ns [ connect_op ns; packet_op ns 0 "x"; close_op ns 0 ] in
  let conn_bit = 1 lsl ns.Net_spec.conn.Spec.et_id in
  Alcotest.(check (list int)) "live edge-type path"
    [ 0; conn_bit; conn_bit; 0 ]
    (Array.to_list (Dataflow.state_path p))

let test_dataflow_state_unreachable_op () =
  let ns = net () in
  check_code "packet before any connect" "state-unreachable-op"
    (Dataflow.check (prog ns [ packet_op ns 0 "x" ]));
  Alcotest.(check (list string)) "valid program emits nothing" []
    (codes (Dataflow.check (prog ns [ connect_op ns; packet_op ns 0 "x" ])))

let test_dataflow_redundant_prefix () =
  let ns = net () in
  let empty_pkt = op ns.Net_spec.packet.Spec.nt_id [| 0 |] (payload "") in
  let diags =
    Dataflow.check
      (prog ns [ connect_op ns; packet_op ns 0 "x"; empty_pkt; empty_pkt ])
  in
  check_code "inert run flagged" "redundant-prefix" diags;
  let d = List.find (fun d -> d.Diag.code = "redundant-prefix") diags in
  Alcotest.(check bool) "names the run" true (contains d.Diag.msg "2..3")

let test_dataflow_snapshot_past_last_transition () =
  let ns = net () in
  let empty_pkt = op ns.Net_spec.packet.Spec.nt_id [| 0 |] (payload "") in
  let diags =
    Dataflow.check
      (prog ns
         [ connect_op ns; packet_op ns 0 "x"; empty_pkt; snapshot_op; empty_pkt ])
  in
  check_code "snapshot beyond last feasible boundary"
    "snapshot-past-last-transition" diags;
  (* Snapshot at a feasible boundary is quiet. *)
  let ok =
    Dataflow.check
      (prog ns
         [ connect_op ns; snapshot_op; packet_op ns 0 "x"; empty_pkt; empty_pkt ])
  in
  Alcotest.(check bool) "well-placed snapshot is quiet" false
    (has_code "snapshot-past-last-transition" ok)

(* --- equivalence with the list-based references (test/reference.ml) --- *)

(* Borrows and consumes of one type in one op, two consumes of a type,
   several outputs, and a data bound the hotspot warning applies to. *)
let mixed_spec () =
  let b = Spec.start "mixed" in
  let a = Spec.edge_type b "a" and bt = Spec.edge_type b "b" in
  let d = Spec.data_type b ~max_len:8 "d" and m = Spec.data_type b ~max_len:2 "m" in
  ignore (Spec.node_type b ~outputs:[ a ] "mk_a");
  ignore (Spec.node_type b ~outputs:[ a; bt ] ~data:[ m ] "mk_ab");
  ignore (Spec.node_type b ~borrows:[ a ] ~data:[ d ] "use");
  ignore (Spec.node_type b ~consumes:[ a; a ] ~outputs:[ bt ] "merge");
  ignore
    (Spec.node_type b ~borrows:[ bt; a ] ~consumes:[ a ] ~outputs:[ a ] ~data:[ d; m ]
       "cross");
  ignore (Spec.node_type b ~consumes:[ bt ] "kill");
  Spec.finalize b

(* domain-safe: test-only lazy fixtures, forced on a single domain *)
let equiv_specs =
  lazy
    [|
      (net ()).Net_spec.spec;
      (Net_spec.create ~max_payload:8 ()).Net_spec.spec;
      mixed_spec ();
    |]

(* Random op soups: unknown opcodes, stray and repeated snapshots, wrong
   arity, dangling, mistyped and double-consumed args, missing, extra and
   over-long data fields. *)
let soup_gen =
  QCheck.Gen.(
    triple (int_bound 2) (int_bound 1_000_000)
      (list_size (int_range 0 20)
         (triple (int_range (-1) 7)
            (list_size (int_range 0 4) (int_range (-1) 10))
            (list_size (int_range 0 3) (string_size ~gen:printable (int_range 0 10))))))

let soup (spec_idx, _, raw) =
  {
    Program.spec = (Lazy.force equiv_specs).(spec_idx);
    ops =
      Array.of_list
        (List.map
           (fun (node, args, data) ->
             {
               Program.node;
               args = Array.of_list args;
               data = Array.of_list (List.map Bytes.of_string data);
             })
           raw);
  }

(* [p] with one argument rebound to another value index: most often a
   program whose only error is one type mismatch, use after consume or
   dangling argument. *)
let rebind_one seed (p : Program.t) =
  let ops = Array.copy p.Program.ops in
  let indices = List.init (Array.length ops) Fun.id in
  match List.filter (fun i -> ops.(i).Program.args <> [||]) indices with
  | [] -> p
  | with_args ->
    let i = List.nth with_args (seed mod List.length with_args) in
    let args = Array.copy ops.(i).Program.args in
    args.(seed / 7 mod Array.length args) <- (seed / 13 mod 12) - 1;
    ops.(i) <- { (ops.(i)) with Program.args };
    { p with Program.ops }

(* A soup, its repair (valid, so mostly clean) and the repair with one
   argument rebound. *)
let soups ((_, seed, _) as s) =
  let p = soup s in
  let repaired = Program.repair ~rng:(Nyx_sim.Rng.create seed) p in
  [ p; repaired; rebind_one seed repaired ]

let soup_arb =
  QCheck.make
    ~print:QCheck.Print.(triple int int (list (triple int (list int) (list string))))
    soup_gen

let prop_state_path_matches_reference =
  QCheck.Test.make ~name:"state_path == reference" ~count:1000 soup_arb
    (fun s ->
      List.for_all
        (fun p -> Dataflow.state_path p = Reference.Dataflow.state_path p)
        (soups s))

let prop_verifier_single_walk =
  QCheck.Test.make
    ~name:"is_clean = (errors = [])"
    ~count:1000 soup_arb (fun s ->
      List.for_all
        (fun p ->
          let all = Verifier.check p in
          Verifier.is_clean p = (Verifier.errors p = [])
          && all = Reference.Verifier.check p
          && Verifier.errors p = List.filter Diag.is_error all)
        (soups s))

(* From equal RNG states, the count-and-select mutators return the same
   candidate as the list-based ones and leave the RNG in the same state. *)
let prop_typed_mutators_match_reference =
  let module R = Reference.Typed_mutators in
  QCheck.Test.make ~name:"splice/generate == reference"
    ~count:1000
    QCheck.(quad soup_arb (list_of_size Gen.(int_range 0 5) soup_arb) (int_bound 24)
              (int_range 1 30))
    (fun (s, donors, frozen, max_ops) ->
      let spec_idx, seed, _ = s in
      let valid s' = Program.repair (soup s') in
      let p = valid s in
      let spec = p.Program.spec in
      let ctx =
        {
          Mutation_engine.mx_frozen = min frozen (min max_ops (Array.length p.Program.ops));
          mx_max_ops = max_ops;
          mx_dict =
            (if seed land 1 = 0 then []
             else [ Bytes.of_string "USER"; Bytes.of_string "a-long-token" ]);
          mx_corpus =
            Array.of_list
              (List.map
                 (fun (_, sd, raw) ->
                   Program.with_snapshot_at (valid (spec_idx, sd, raw)) (sd mod 4))
                 donors);
        }
      in
      let same f g =
        let r1 = Nyx_sim.Rng.create seed and r2 = Nyx_sim.Rng.create seed in
        let a = f r1 ctx p and b = g r2 ctx p in
        Option.map (fun q -> q.Program.ops) a = Option.map (fun q -> q.Program.ops) b
        && Nyx_sim.Rng.state r1 = Nyx_sim.Rng.state r2
      in
      same Typed_mutators.splice_mutator.Mutation_engine.m_fn R.splice
      && same (Typed_mutators.generate_mutator spec).Mutation_engine.m_fn
           (R.generate_mutator spec).Mutation_engine.m_fn)

let () =
  Alcotest.run "nyx_analysis"
    [
      ( "verifier-errors",
        [
          Alcotest.test_case "affine use after consume" `Quick test_affine_use_after_consume;
          Alcotest.test_case "dangling arg" `Quick test_dangling_arg;
          Alcotest.test_case "bad arity" `Quick test_bad_arity;
          Alcotest.test_case "unknown opcode" `Quick test_unknown_opcode;
          Alcotest.test_case "multiple snapshots" `Quick test_multiple_snapshots;
          Alcotest.test_case "snapshot carries payload" `Quick test_snapshot_carries_payload;
          Alcotest.test_case "data too long" `Quick test_data_too_long;
          Alcotest.test_case "bad data arity" `Quick test_bad_data_arity;
          Alcotest.test_case "all findings in one pass" `Quick test_reports_all_findings;
        ] );
      ( "verifier-warnings",
        [
          Alcotest.test_case "dead value" `Quick test_dead_value;
          Alcotest.test_case "noop interaction" `Quick test_noop_interaction;
          Alcotest.test_case "leading snapshot" `Quick test_leading_snapshot;
          Alcotest.test_case "trailing snapshot" `Quick test_trailing_snapshot;
          Alcotest.test_case "data at bound" `Quick test_data_at_bound;
          Alcotest.test_case "well-placed snapshot clean" `Quick test_well_placed_snapshot_clean;
        ] );
      ( "spec-lint",
        [
          Alcotest.test_case "unconstructible node" `Quick test_spec_lint_unconstructible;
          Alcotest.test_case "unused edge type" `Quick test_spec_lint_unused_edge;
          Alcotest.test_case "zero data bound" `Quick test_spec_lint_zero_data_bound;
          Alcotest.test_case "node name collision" `Quick test_spec_lint_node_name_collision;
          Alcotest.test_case "shipped specs clean" `Quick test_spec_lint_shipped_specs_clean;
        ] );
      ( "audit",
        [ Alcotest.test_case "report and json" `Quick test_audit_report_and_json ] );
      ( "sanitizer",
        [
          Alcotest.test_case "catches affine violation" `Quick
            test_sanitizer_catches_affine_violation;
          Alcotest.test_case "catches dangling arg" `Quick test_sanitizer_catches_dangling_arg;
          Alcotest.test_case "clean programs pass" `Quick test_sanitizer_ok_on_valid_programs;
          Alcotest.test_case "consumed flags live in env" `Quick
            test_sanitizer_consume_leaks_across_suffixes_without_copy;
        ] );
      ( "source-lint",
        [
          Alcotest.test_case "flags unannotated" `Quick test_source_lint_flags_unannotated;
          Alcotest.test_case "annotation suppresses" `Quick test_source_lint_annotation_suppresses;
          Alcotest.test_case "functions exempt" `Quick
            test_source_lint_ignores_functions_and_closures;
          Alcotest.test_case "word boundaries" `Quick test_source_lint_word_boundaries;
          Alcotest.test_case "multiline rhs" `Quick test_source_lint_multiline_rhs;
          Alcotest.test_case "ml_files_under skips build dirs" `Quick
            test_ml_files_under_skips_build_dirs;
        ] );
      ( "state-graph",
        [
          Alcotest.test_case "net spec graph" `Quick test_state_graph_net_spec;
          Alcotest.test_case "dead state detected" `Quick test_state_graph_dead_state;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "affecting classification" `Quick
            test_dataflow_affecting_classification;
          Alcotest.test_case "abstract state path" `Quick test_dataflow_state_path;
          Alcotest.test_case "state-unreachable-op" `Quick
            test_dataflow_state_unreachable_op;
          Alcotest.test_case "redundant-prefix" `Quick test_dataflow_redundant_prefix;
          Alcotest.test_case "snapshot-past-last-transition" `Quick
            test_dataflow_snapshot_past_last_transition;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_state_path_matches_reference;
          QCheck_alcotest.to_alcotest prop_verifier_single_walk;
          QCheck_alcotest.to_alcotest prop_typed_mutators_match_reference;
        ] );
    ]
