open Nyx_spec

let check_int = Alcotest.(check int)

let net () = Net_spec.create ()

let seed3 ns =
  Net_spec.seed_of_packets ns
    [ Bytes.of_string "one"; Bytes.of_string "two"; Bytes.of_string "three" ]

(* Spec declaration *)

let test_spec_declaration () =
  let ns = net () in
  let spec = ns.Net_spec.spec in
  check_int "snapshot node is id 0" 0 Spec.snapshot_node_id;
  Alcotest.(check string) "snapshot node name" "snapshot"
    (Spec.snapshot_node ns.Net_spec.spec).Spec.nt_name;
  check_int "connect has one output" 1 (List.length (Spec.node_by_name spec "connect").Spec.outputs);
  check_int "packet borrows one" 1 (List.length (Spec.node_by_name spec "packet").Spec.borrows);
  check_int "close consumes one" 1 (List.length (Spec.node_by_name spec "close").Spec.consumes);
  Alcotest.check_raises "unknown node" Not_found (fun () ->
      ignore (Spec.node_by_name spec "frobnicate"))

(* Builder *)

let test_builder_happy_path () =
  let ns = net () in
  let b = Builder.create ns.Net_spec.spec in
  (match Builder.call b "connect" [] with
  | [ con ] ->
    ignore (Builder.call b "packet" ~data:[ Bytes.of_string "GET /" ] [ con ]);
    Builder.snapshot b;
    ignore (Builder.call b "packet" ~data:[ Bytes.of_string "HOST: x" ] [ con ]);
    ignore (Builder.call b "close" [ con ])
  | _ -> Alcotest.fail "connect must return one value");
  let p = Builder.build b in
  check_int "five ops" 5 (Array.length p.Program.ops);
  Alcotest.(check (option int)) "snapshot after 2 packets" (Some 2) (Program.snapshot_index p)

let test_builder_rejects_type_error () =
  let ns = net () in
  let b = Builder.create ns.Net_spec.spec in
  Alcotest.check_raises "packet without connection"
    (Invalid_argument "Builder.call packet: wrong arity") (fun () ->
      ignore (Builder.call b "packet" ~data:[ Bytes.of_string "x" ] []))

let test_builder_rejects_use_after_consume () =
  let ns = net () in
  let b = Builder.create ns.Net_spec.spec in
  match Builder.call b "connect" [] with
  | [ con ] ->
    ignore (Builder.call b "close" [ con ]);
    Alcotest.check_raises "affine violation"
      (Invalid_argument "Builder.call packet: value already consumed") (fun () ->
        ignore (Builder.call b "packet" ~data:[ Bytes.of_string "x" ] [ con ]))
  | _ -> Alcotest.fail "connect"

(* Validation *)

let test_validate_catches_bad_ref () =
  let ns = net () in
  let p = seed3 ns in
  let bad_op = { Program.node = ns.Net_spec.packet.Spec.nt_id;
                 args = [| 99 |]; data = [| Bytes.empty |] } in
  let bad = { p with Program.ops = Array.append p.Program.ops [| bad_op |] } in
  Alcotest.(check bool) "rejected" true (Result.is_error (Program.validate bad))

let test_validate_catches_double_snapshot () =
  let ns = net () in
  let p = Program.with_snapshot_at (seed3 ns) 1 in
  let snap = { Program.node = Spec.snapshot_node_id; args = [||]; data = [||] } in
  let bad = { p with Program.ops = Array.append p.Program.ops [| snap |] } in
  Alcotest.(check bool) "rejected" true (Result.is_error (Program.validate bad))

(* A spec with two value types and a node consuming two values of one
   type. Registered specs consume at most one value per op; this one
   exercises the multi-consume paths of validate, Builder and repair. *)
let two_consume_spec () =
  let b = Spec.start "two-consume" in
  let a = Spec.edge_type b "a" and bt = Spec.edge_type b "b" in
  let d = Spec.data_type b ~max_len:4 "d" in
  let mk_a = Spec.node_type b ~outputs:[ a ] "mk_a" in
  ignore (Spec.node_type b ~outputs:[ a; bt ] "mk_ab");
  ignore (Spec.node_type b ~borrows:[ a ] ~data:[ d ] "use");
  let merge = Spec.node_type b ~consumes:[ a; a ] ~outputs:[ bt ] "merge" in
  ignore (Spec.node_type b ~borrows:[ bt ] ~consumes:[ a ] ~outputs:[ a ] ~data:[ d; d ] "cross");
  ignore (Spec.node_type b ~consumes:[ bt ] "kill");
  (Spec.finalize b, mk_a, merge)

let test_validate_catches_double_consume () =
  let spec, mk_a, merge = two_consume_spec () in
  (* Two distinct values: valid, from the Builder and by hand. *)
  let b = Builder.create spec in
  let x = Builder.call b "mk_a" [] and y = Builder.call b "mk_a" [] in
  ignore (Builder.call b "merge" (x @ y));
  Alcotest.(check bool) "builder program valid" true
    (Result.is_ok (Program.validate (Builder.build b)));
  (* One value consumed by both slots of one op. *)
  let b = Builder.create spec in
  let x = Builder.call b "mk_a" [] in
  Alcotest.check_raises "builder rejects double consume"
    (Invalid_argument "Builder.call merge: value already consumed") (fun () ->
      ignore (Builder.call b "merge" (x @ x)));
  let op node args = { Program.node = node.Spec.nt_id; args; data = [||] } in
  let bad = { Program.spec; ops = [| op mk_a [||]; op merge [| 0; 0 |] |] } in
  Alcotest.(check bool) "validate rejects" true (Result.is_error (Program.validate bad));
  Alcotest.(check bool) "parse rejects" true
    (Result.is_error (Program.parse spec (Program.serialize bad)));
  (* Repair cannot bind a second [a]: the op goes. *)
  check_int "repair drops it" 1 (Array.length (Program.repair bad).Program.ops)

(* Snapshot placement *)

let test_snapshot_placement () =
  let ns = net () in
  let p = seed3 ns in
  check_int "4 packets (connect + 3)" 4 (Program.packet_count p);
  let p1 = Program.with_snapshot_at p 2 in
  Alcotest.(check (option int)) "index 2" (Some 2) (Program.snapshot_index p1);
  check_int "packet count unchanged" 4 (Program.packet_count p1);
  (* Re-placement strips the old snapshot first. *)
  let p2 = Program.with_snapshot_at p1 3 in
  Alcotest.(check (option int)) "moved" (Some 3) (Program.snapshot_index p2);
  check_int "one snapshot op" 5 (Array.length p2.Program.ops);
  let stripped = Program.strip_snapshots p2 in
  Alcotest.(check (option int)) "stripped" None (Program.snapshot_index stripped);
  (* Clamping. *)
  Alcotest.(check (option int)) "clamped high" (Some 4)
    (Program.snapshot_index (Program.with_snapshot_at p 100))

(* Serialization *)

let test_serialize_roundtrip () =
  let ns = net () in
  let p = Program.with_snapshot_at (seed3 ns) 2 in
  match Program.parse ns.Net_spec.spec (Program.serialize p) with
  | Error m -> Alcotest.fail m
  | Ok p' ->
    check_int "op count" (Array.length p.Program.ops) (Array.length p'.Program.ops);
    Alcotest.(check bool) "ops equal" true (p.Program.ops = p'.Program.ops)

let test_parse_rejects_garbage () =
  let ns = net () in
  Alcotest.(check bool) "bad magic" true
    (Result.is_error (Program.parse ns.Net_spec.spec (Bytes.of_string "not a program")));
  let valid = Program.serialize (seed3 ns) in
  let truncated = Bytes.sub valid 0 (Bytes.length valid - 3) in
  Alcotest.(check bool) "truncated" true
    (Result.is_error (Program.parse ns.Net_spec.spec truncated))

(* Interpreter *)

let trace_handlers log =
  {
    Interp.exec =
      (fun nt inputs data ->
        log := (nt.Spec.nt_name, inputs, Array.length data) :: !log;
        (* Fresh handler value per output. *)
        List.mapi (fun i _ -> 100 + List.length !log + i) nt.Spec.outputs);
    snapshot = (fun () -> log := ("<snapshot>", [], 0) :: !log);
  }

let test_interp_order_and_values () =
  let ns = net () in
  let p = seed3 ns in
  let log = ref [] in
  ignore (Interp.run p (trace_handlers log));
  let names = List.rev_map (fun (n, _, _) -> n) !log in
  Alcotest.(check (list string)) "order" [ "connect"; "packet"; "packet"; "packet" ] names;
  (* All packets received the connect handler's value. *)
  let packet_inputs =
    List.filter_map (fun (n, i, _) -> if n = "packet" then Some i else None) !log
  in
  Alcotest.(check bool) "same connection value" true
    (List.for_all (fun i -> i = [ 101 ]) packet_inputs)

let test_interp_split_at_snapshot () =
  let ns = net () in
  let p = Program.with_snapshot_at (seed3 ns) 2 in
  let log = ref [] in
  let h = trace_handlers log in
  match Interp.run_until_snapshot p h with
  | None -> Alcotest.fail "expected snapshot"
  | Some (from, env) ->
    check_int "ops before suffix" 3 from;
    check_int "prefix executed" 3 (List.length !log);
    (* Run the suffix twice from the captured environment. *)
    ignore (Interp.run ~from ~env:(Interp.copy_env env) p h);
    ignore (Interp.run ~from ~env:(Interp.copy_env env) p h);
    let packets = List.length (List.filter (fun (n, _, _) -> n = "packet") !log) in
    check_int "1 prefix packet + 2x2 suffix packets" 5 packets

(* Havoc *)

let test_havoc_bounded () =
  let rng = Nyx_sim.Rng.create 7 in
  for _ = 1 to 200 do
    let out = Havoc.mutate rng ~max_len:64 (Bytes.of_string "hello world") in
    Alcotest.(check bool) "bounded" true (Bytes.length out <= 64)
  done

let test_havoc_changes_input () =
  let rng = Nyx_sim.Rng.create 7 in
  let input = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let changed = ref 0 in
  for _ = 1 to 50 do
    if Havoc.mutate rng input <> input then incr changed
  done;
  Alcotest.(check bool) "usually changes" true (!changed > 40)

let test_havoc_uses_dict () =
  let rng = Nyx_sim.Rng.create 7 in
  let dict = [ Bytes.of_string "MAGICTOKEN" ] in
  let found = ref false in
  for _ = 1 to 300 do
    let out = Havoc.mutate rng ~dict ~max_len:256 (Bytes.of_string "padding-padding") in
    let s = Bytes.to_string out in
    if String.length s >= 10 then
      for i = 0 to String.length s - 10 do
        if String.sub s i 10 = "MAGICTOKEN" then found := true
      done
  done;
  Alcotest.(check bool) "dictionary token spliced eventually" true !found


(* Auto-dictionary *)

let test_auto_dict_extracts_keywords () =
  let ns = net () in
  let p =
    Net_spec.seed_of_packets ns
      [ Bytes.of_string "USER anonymous\r\n"; Bytes.of_string "PASS guest\r\nUSER again\r\n" ]
  in
  let dict = List.map Bytes.to_string (Auto_dict.extract [ p ]) in
  Alcotest.(check bool) "finds USER" true (List.mem "USER" dict);
  Alcotest.(check bool) "finds anonymous" true (List.mem "anonymous" dict);
  (* Most frequent first: USER appears twice. *)
  Alcotest.(check string) "frequency order" "USER" (List.hd dict);
  Alcotest.(check bool) "short tokens dropped" true (not (List.mem "\r\n" dict))

let test_auto_dict_cap_and_merge () =
  let ns = net () in
  let many =
    Net_spec.seed_of_packets ns
      [ Bytes.of_string (String.concat " " (List.init 100 (fun i -> Printf.sprintf "tok%03d" i))) ]
  in
  Alcotest.(check int) "capped" 10 (List.length (Auto_dict.extract ~max_tokens:10 [ many ]));
  let merged =
    Auto_dict.merge
      [ Bytes.of_string "A"; Bytes.of_string "B" ]
      [ Bytes.of_string "B"; Bytes.of_string "C" ]
  in
  Alcotest.(check (list string)) "deduplicated union" [ "A"; "B"; "C" ]
    (List.map Bytes.to_string merged)

(* Mutator *)


let test_mutator_caps_length () =
  let ns = net () in
  let rng = Nyx_sim.Rng.create 3 in
  let p = ref (seed3 ns) in
  for _ = 1 to 200 do
    p := Mutator.mutate rng ~max_ops:12 ~corpus:[| seed3 ns |] !p
  done;
  Alcotest.(check bool) "bounded across generations" true
    (Array.length !p.Program.ops <= 12)

(* domain-safe: qcheck property closure, run on a single domain *)
let prop_mutator_output_valid =
  QCheck.Test.make ~name:"mutated programs always validate" ~count:300 QCheck.small_int
    (fun seed ->
      let ns = net () in
      let rng = Nyx_sim.Rng.create seed in
      let p = ref (seed3 ns) in
      for _ = 1 to 10 do
        p := Mutator.mutate rng ~corpus:[| seed3 ns |] !p
      done;
      Result.is_ok (Program.validate !p))

let prop_mutator_respects_frozen_prefix =
  QCheck.Test.make ~name:"frozen prefix is preserved verbatim" ~count:200 QCheck.small_int
    (fun seed ->
      let ns = net () in
      let rng = Nyx_sim.Rng.create seed in
      let p = Program.with_snapshot_at (seed3 ns) 2 in
      let frozen = 3 (* connect + packet + snapshot *) in
      let m = Mutator.mutate rng ~frozen ~corpus:[| p |] p in
      Array.length m.Program.ops >= frozen
      && Array.sub m.Program.ops 0 frozen = Array.sub p.Program.ops 0 frozen)

let prop_repair_always_validates =
  QCheck.Test.make ~name:"repair fixes arbitrary op soup" ~count:300
    QCheck.(pair small_int (list_of_size Gen.(int_range 0 12) (pair (int_bound 3) (int_bound 5))))
    (fun (seed, raw_ops) ->
      let ns = net () in
      let rng = Nyx_sim.Rng.create seed in
      let ops =
        List.map
          (fun (node, arg) ->
            { Program.node; args = [| arg |]; data = [| Bytes.of_string "d" |] })
          raw_ops
      in
      let p = { Program.spec = ns.Net_spec.spec; ops = Array.of_list ops } in
      Result.is_ok (Program.validate (Program.repair ~rng p)))

(* Stronger than validate: the static verifier re-derives every structural
   fact with its own lattice walk, so repair output must also carry zero
   error-severity findings (warnings like dead-value are fine — repair
   does not promise liveness). *)
let prop_repair_verifier_clean =
  QCheck.Test.make ~name:"repair output has zero verifier errors" ~count:300
    QCheck.(pair small_int (list_of_size Gen.(int_range 0 12) (pair (int_bound 3) (int_bound 5))))
    (fun (seed, raw_ops) ->
      let ns = net () in
      let rng = Nyx_sim.Rng.create seed in
      let ops =
        List.map
          (fun (node, arg) ->
            { Program.node; args = [| arg |]; data = [| Bytes.of_string "d" |] })
          raw_ops
      in
      let p = { Program.spec = ns.Net_spec.spec; ops = Array.of_list ops } in
      let repaired = Program.repair ~rng p in
      Result.is_ok (Program.validate repaired)
      && Nyx_analysis.Verifier.errors repaired = [])

(* Random op soups: unknown opcodes, wrong arity, dangling and
   double-consumed args, oversized data, several snapshot ops. *)
let soup_gen =
  QCheck.Gen.(
    list_size (int_range 0 16)
      (triple (int_range (-1) 8)
         (list_size (int_range 0 3) (int_range (-1) 9))
         (list_size (int_range 0 3) (string_size ~gen:printable (int_range 0 6)))))

let soup spec raw =
  {
    Program.spec;
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

let prop_repair_matches_reference =
  QCheck.Test.make ~name:"repair == list-based reference (program and rng state)"
    ~count:1000
    QCheck.(triple (make soup_gen) small_int bool)
    (fun (raw, seed, two_consume) ->
      let spec =
        if two_consume then (fun (s, _, _) -> s) (two_consume_spec ())
        else (net ()).Net_spec.spec
      in
      let p = soup spec raw in
      let r1 = Nyx_sim.Rng.create seed and r2 = Nyx_sim.Rng.create seed in
      let fast = Program.repair ~rng:r1 p and slow = Reference.repair ~rng:r2 p in
      fast.Program.ops = slow.Program.ops
      && Nyx_sim.Rng.state r1 = Nyx_sim.Rng.state r2
      && (Program.repair p).Program.ops = (Reference.repair p).Program.ops)

let test_mutator_changes_programs () =
  let ns = net () in
  let rng = Nyx_sim.Rng.create 11 in
  let p = seed3 ns in
  let distinct = ref 0 in
  for _ = 1 to 50 do
    if (Mutator.mutate rng ~corpus:[| p |] p).Program.ops <> p.Program.ops then incr distinct
  done;
  Alcotest.(check bool) "mostly different" true (!distinct > 35)

let () =
  Alcotest.run "nyx_spec"
    [
      ( "spec",
        [
          Alcotest.test_case "declaration" `Quick test_spec_declaration;
        ] );
      ( "builder",
        [
          Alcotest.test_case "happy path" `Quick test_builder_happy_path;
          Alcotest.test_case "type error" `Quick test_builder_rejects_type_error;
          Alcotest.test_case "affine" `Quick test_builder_rejects_use_after_consume;
        ] );
      ( "validate",
        [
          Alcotest.test_case "bad ref" `Quick test_validate_catches_bad_ref;
          Alcotest.test_case "double snapshot" `Quick test_validate_catches_double_snapshot;
          Alcotest.test_case "double consume" `Quick test_validate_catches_double_consume;
        ] );
      ( "snapshot placement",
        [ Alcotest.test_case "placement" `Quick test_snapshot_placement ] );
      ( "wire format",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "garbage" `Quick test_parse_rejects_garbage;
        ] );
      ( "interp",
        [
          Alcotest.test_case "order" `Quick test_interp_order_and_values;
          Alcotest.test_case "split at snapshot" `Quick test_interp_split_at_snapshot;
        ] );
      ( "havoc",
        [
          Alcotest.test_case "bounded" `Quick test_havoc_bounded;
          Alcotest.test_case "changes input" `Quick test_havoc_changes_input;
          Alcotest.test_case "dictionary" `Quick test_havoc_uses_dict;
        ] );
      ( "auto_dict",
        [
          Alcotest.test_case "extracts keywords" `Quick test_auto_dict_extracts_keywords;
          Alcotest.test_case "cap and merge" `Quick test_auto_dict_cap_and_merge;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "changes programs" `Quick test_mutator_changes_programs;
          Alcotest.test_case "length cap" `Quick test_mutator_caps_length;
          QCheck_alcotest.to_alcotest prop_mutator_output_valid;
          QCheck_alcotest.to_alcotest prop_mutator_respects_frozen_prefix;
          QCheck_alcotest.to_alcotest prop_repair_always_validates;
          QCheck_alcotest.to_alcotest prop_repair_verifier_clean;
          QCheck_alcotest.to_alcotest prop_repair_matches_reference;
        ] );
    ]
