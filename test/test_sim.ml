open Nyx_sim

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* Clock *)

let test_clock_advance () =
  let c = Clock.create () in
  check_int "starts at zero" 0 (Clock.now_ns c);
  Clock.advance c 1_500;
  Clock.advance c 500;
  check_int "accumulates" 2_000 (Clock.now_ns c);
  check_float "seconds" 2e-6 (Clock.now_s c)

let test_clock_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Clock.advance: negative duration") (fun () ->
      Clock.advance c (-1))

let test_clock_reset () =
  let c = Clock.create () in
  Clock.advance c 42;
  Clock.reset c;
  check_int "reset to zero" 0 (Clock.now_ns c)

let test_clock_pp () =
  let s = Format.asprintf "%a" Clock.pp_duration 3_723_004_000_000 in
  Alcotest.(check string) "formats h:m:s.ms" "01:02:03.004" s

(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  (* The child must not replay the parent's stream. *)
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int child 1_000_000) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 9 in
  for _ = 1 to 500 do
    let v = Rng.int_in r 5 9 in
    Alcotest.(check bool) "inclusive range" true (v >= 5 && v <= 9)
  done

let test_rng_weighted () =
  let r = Rng.create 11 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let x = Rng.weighted r [ ("a", 1.0); ("b", 8.0); ("c", 1.0) ] in
    Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check bool) "b dominates" true (get "b" > get "a" && get "b" > get "c");
  Alcotest.(check bool) "all present" true (get "a" > 0 && get "c" > 0)

(* The splitmix64 stream, pinned: draws of every kind and the states
   [Rng.state] reports, rendered as text. The expected lines were
   produced by the boxed-[int64] generator this one replaced; a
   checkpoint saved by either resumes identically in the other. *)
let rng_golden =
  [
    {|seed 0 ints [823; 7206; 14179; 15868; 11631; 1426408582835774186] bools [true; false; true; false; true; false] floats [0x1.4f54109fb1d5ap+2; 0x1.634ea555fc92ap+2; 0x1.c54325b701febp+2] bytes "\171U\134d\172\215" weighted [1; 3; 0; 3; 0; 0] state 5625365687987180108L split 4670970265874846992L|};
    {|seed 1 ints [657; 6926; 18108; 15585; 15105; 237859547582366336] bools [true; true; false; false; true; false] floats [0x1.232906d9bd29ep+2; 0x1.534024986a1b1p+2; 0x1.17049234163ecp+2] bytes ";c\241\238\bF" weighted [0; 0; 0; 0; 0; 0] state 5625365687987180109L split -5279996746373662805L|};
    {|seed 7 ints [583; 8511; 16638; 16; 7078; 4601199455465548305] bools [false; false; true; true; true; false] floats [0x1.25c42a171cd72p+3; 0x1.16d37f6dcbc1cp+3; 0x1.147b81f84e36dp+3] bytes "\248\175\1995\248/" weighted [0; 0; 0; 3; 3; 0] state 5625365687987180115L split 7508637138623878239L|};
    {|seed 42 ints [605; 6877; 17912; 16868; 5390; 2180923070380825350] bools [true; false; true; false; true; false] floats [0x1.4892d1d7be1bap+2; 0x1.4ccefaa033d18p+2; 0x1.a9b3b7c60742dp+2] bytes "\242u\029\007`\232" weighted [0; 1; 1; 0; 0; 2] state 5625365687987180150L split -3956836574347814625L|};
    {|seed 20261017 ints [799; 3215; 6653; 12295; 931; 3421845587441949759] bools [true; false; false; true; false; false] floats [0x1.2d32ac0690df3p+2; 0x1.33e1a189b1a3p+2; 0x1.dd01e4894eb27p+2] bytes "<w\133\237b[" weighted [1; 0; 0; 2; 0; 0] state 5625365688007441125L split 6281040659297271702L|};
    {|seed -3 ints [821; 10153; 15023; 25125; 24831; 589125513075409766] bools [true; true; false; true; true; true] floats [0x1.9c3f0dfa47362p-1; 0x1.08dbbd3425242p+2; 0x1.19ec42487dd0bp+3] bytes "\248\224{\240\158\204" weighted [0; 1; 3; 0; 0; 3] state 5625365687987180105L split -6909126590030038622L|};
  ]

let render_draws seed =
  let r = Rng.create seed in
  let ints = List.init 6 (fun i -> Rng.int r (if i = 5 then max_int else 1000 + (i * 9973))) in
  let bools = List.init 6 (fun _ -> Rng.bool r) in
  let floats = List.init 3 (fun _ -> Rng.float r 10.0) in
  let bytes = Bytes.to_string (Rng.bytes r 6) in
  let picks =
    List.init 6 (fun _ -> Rng.weighted r [ (0, 5.0); (1, 1.0); (2, 1.0); (3, 1.5) ])
  in
  let child = Rng.split r in
  let ints_s l = String.concat "; " (List.map string_of_int l) in
  Printf.sprintf
    "seed %d ints [%s] bools [%s] floats [%s] bytes %S weighted [%s] state %LdL split %LdL"
    seed (ints_s ints)
    (String.concat "; " (List.map string_of_bool bools))
    (String.concat "; " (List.map (Printf.sprintf "%h") floats))
    bytes (ints_s picks) (Rng.state r) (Rng.state child)

let test_rng_golden () =
  List.iter2
    (fun seed expected -> Alcotest.(check string) (string_of_int seed) expected (render_draws seed))
    [ 0; 1; 7; 42; 20261017; -3 ] rng_golden

let test_rng_state_roundtrip () =
  let a = Rng.create 5 in
  ignore (Rng.int a 10);
  let saved = Rng.state a in
  let xs = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let b = Rng.create 0 in
  Rng.set_state b saved;
  check_int "state restored" 0 (Int64.compare saved (Rng.state b));
  Alcotest.(check (list int)) "same draws after set_state" xs
    (List.init 10 (fun _ -> Rng.int b 1_000_000))

let test_rng_shuffle_permutation () =
  let r = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* Stats *)

let test_stats_basics () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Stats.mean []);
  check_float "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_mann_whitney_distinct () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0; 1.5; 2.5; 3.5; 4.5; 5.5 ] in
  let ys = List.map (fun x -> x +. 100.0) xs in
  let p = Stats.mann_whitney_u xs ys in
  Alcotest.(check bool) "clearly significant" true (p < 0.05)

let test_mann_whitney_identical () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  let p = Stats.mann_whitney_u xs xs in
  Alcotest.(check bool) "not significant" true (p > 0.5)

let test_timeline () =
  let tl = Stats.Timeline.create () in
  Stats.Timeline.record tl 10 1.0;
  Stats.Timeline.record tl 20 5.0;
  Stats.Timeline.record tl 30 7.0;
  check_float "before first" 0.0 (Stats.Timeline.value_at tl 5);
  check_float "at sample" 1.0 (Stats.Timeline.value_at tl 10);
  check_float "between" 5.0 (Stats.Timeline.value_at tl 25);
  check_float "final" 7.0 (Stats.Timeline.final tl);
  Alcotest.(check (option int)) "first reaching" (Some 20)
    (Stats.Timeline.first_time_reaching tl 5.0);
  Alcotest.(check (option int)) "never reaching" None
    (Stats.Timeline.first_time_reaching tl 100.0)

let test_timeline_monotonic_time () =
  let tl = Stats.Timeline.create () in
  Stats.Timeline.record tl 10 1.0;
  Alcotest.check_raises "rejects backwards time"
    (Invalid_argument "Timeline.record: time went backwards") (fun () ->
      Stats.Timeline.record tl 5 2.0)

let test_timeline_median_across () =
  let mk samples =
    let tl = Stats.Timeline.create () in
    List.iter (fun (t, v) -> Stats.Timeline.record tl t v) samples;
    tl
  in
  let tls = [ mk [ (0, 1.0); (10, 3.0) ]; mk [ (0, 2.0) ]; mk [ (0, 9.0); (10, 9.0) ] ] in
  let med = Stats.Timeline.median_across tls [ 0; 10 ] in
  Alcotest.(check (list (pair int (float 1e-9)))) "pointwise medians"
    [ (0, 2.0); (10, 3.0) ]
    med

let test_counters () =
  let c = Stats.Counters.create () in
  Stats.Counters.incr c "execs";
  Stats.Counters.add c "execs" 4;
  Stats.Counters.incr c "crashes";
  check_int "accumulated" 5 (Stats.Counters.get c "execs");
  check_int "missing is zero" 0 (Stats.Counters.get c "nope");
  Alcotest.(check (list (pair string int))) "sorted list"
    [ ("crashes", 1); ("execs", 5) ]
    (Stats.Counters.to_list c)

(* Property tests *)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng ints stay in bounds" ~count:200
    QCheck.(pair int small_int)
    (fun (seed, bound) ->
      QCheck.assume (bound > 0);
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_weighted_index_is_weighted =
  QCheck.Test.make ~name:"weighted_index == weighted over (index, weight) pairs" ~count:500
    QCheck.(pair int (list_of_size Gen.(int_range 1 6) (float_range 0.0 3.0)))
    (fun (seed, ws) ->
      QCheck.assume (List.fold_left ( +. ) 0.0 ws > 0.0);
      let r1 = Rng.create seed and r2 = Rng.create seed in
      Rng.weighted_index r1 (Array.of_list ws)
      = Rng.weighted r2 (List.mapi (fun i w -> (i, w)) ws)
      && Rng.state r1 = Rng.state r2)

let prop_median_between_min_max =
  QCheck.Test.make ~name:"median lies within range" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_inclusive 1000.0))
    (fun xs ->
      let m = Stats.median xs in
      m >= List.fold_left min infinity xs && m <= List.fold_left max neg_infinity xs)

let prop_mann_whitney_symmetric =
  QCheck.Test.make ~name:"mann-whitney p is symmetric" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 3 12) (float_bound_inclusive 100.0))
        (list_of_size Gen.(int_range 3 12) (float_bound_inclusive 100.0)))
    (fun (xs, ys) ->
      let p1 = Stats.mann_whitney_u xs ys and p2 = Stats.mann_whitney_u ys xs in
      abs_float (p1 -. p2) < 1e-9)

let () =
  Alcotest.run "nyx_sim"
    [
      ( "clock",
        [
          Alcotest.test_case "advance" `Quick test_clock_advance;
          Alcotest.test_case "negative" `Quick test_clock_negative;
          Alcotest.test_case "reset" `Quick test_clock_reset;
          Alcotest.test_case "pp_duration" `Quick test_clock_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "weighted" `Quick test_rng_weighted;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "golden stream" `Quick test_rng_golden;
          Alcotest.test_case "state roundtrip" `Quick test_rng_state_roundtrip;
          QCheck_alcotest.to_alcotest prop_rng_int_in_range;
          QCheck_alcotest.to_alcotest prop_weighted_index_is_weighted;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "mann-whitney distinct" `Quick test_mann_whitney_distinct;
          Alcotest.test_case "mann-whitney identical" `Quick test_mann_whitney_identical;
          Alcotest.test_case "timeline" `Quick test_timeline;
          Alcotest.test_case "timeline monotonic" `Quick test_timeline_monotonic_time;
          Alcotest.test_case "timeline median" `Quick test_timeline_median_across;
          Alcotest.test_case "counters" `Quick test_counters;
          QCheck_alcotest.to_alcotest prop_median_between_min_max;
          QCheck_alcotest.to_alcotest prop_mann_whitney_symmetric;
        ] );
    ]
