(* Hot-loop equivalence suite (journaled coverage + O(1) corpus).

   Two layers of proof that the O(touched) hot path changed nothing but
   mechanical cost:
   - property tests: the journaled implementations agree with the
     [_slow] full-scan references (and with an independent model of the
     AFL hashing scheme) under randomized hit sequences, and the indexed
     corpus makes bit-identical scheduling picks to a reimplementation
     of the pre-change list-based corpus;
   - campaign identity: fixed-seed campaigns reproduce, field for field,
     the results recorded from the pre-change implementation (captured
     at commit 25b4f18, before the journal/array rewrite). *)

open Nyx_core
module Coverage = Nyx_targets.Coverage

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* An independent model of the coverage map: plain int array, same
   AFL hashing (site ^ prev, prev = site >> 1), saturating counts.     *)

module Model = struct
  type t = { map : int array; mutable prev : int }

  let create () = { map = Array.make Coverage.map_size 0; prev = 0 }

  let hit m site =
    let site = site land (Coverage.map_size - 1) in
    let idx = (site lxor m.prev) land (Coverage.map_size - 1) in
    if m.map.(idx) < 255 then m.map.(idx) <- m.map.(idx) + 1;
    m.prev <- site lsr 1

  let signature m =
    let cells = ref [] in
    Array.iteri (fun i c -> if c <> 0 then cells := (i, c) :: !cells) m.map;
    Array.of_list (List.sort compare !cells)

  let edge_count m = Array.length (signature m)
end

let sites_gen = QCheck.(list_of_size Gen.(int_range 0 300) (int_bound 1_000_000))

let prop_journal_matches_model =
  QCheck.Test.make ~name:"journaled map == model under random hits" ~count:100
    sites_gen (fun sites ->
      let cov = Coverage.create () in
      let m = Model.create () in
      List.iter
        (fun s ->
          Coverage.hit cov s;
          Model.hit m s)
        sites;
      Coverage.signature cov = Model.signature m
      && Coverage.edge_count cov = Model.edge_count m
      && Coverage.edge_count cov = Reference.Coverage.edge_count_slow cov)

let prop_reset_equiv_slow =
  QCheck.Test.make ~name:"journaled reset == full-fill reset" ~count:100
    (QCheck.pair sites_gen sites_gen) (fun (a, b) ->
      let c1 = Coverage.create () and c2 = Coverage.create () in
      List.iter (Coverage.hit c1) a;
      List.iter (Coverage.hit c2) a;
      Coverage.reset c1;
      Reference.Coverage.reset_slow c2;
      (* Both must land in the pristine state: replaying a second
         sequence gives identical maps. *)
      List.iter (Coverage.hit c1) b;
      List.iter (Coverage.hit c2) b;
      Coverage.signature c1 = Coverage.signature c2
      && Coverage.edge_count c1 = Reference.Coverage.edge_count_slow c1)

let prop_merge_equiv_slow =
  QCheck.Test.make ~name:"journaled merge == iter_hits merge" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 10) sites_gen)
    (fun execs ->
      let fast = Coverage.Cumulative.create () in
      let slow = Coverage.Cumulative.create () in
      let cov = Coverage.create () in
      List.for_all
        (fun sites ->
          Coverage.reset cov;
          List.iter (Coverage.hit cov) sites;
          let nf = Coverage.Cumulative.merge fast cov in
          let ns = Reference.Coverage.Cumulative.merge_slow slow cov in
          nf = ns
          && Coverage.Cumulative.edge_count fast
             = Coverage.Cumulative.edge_count_slow fast
          && Coverage.Cumulative.edge_count fast
             = Coverage.Cumulative.edge_count_slow slow)
        execs)

let prop_save_restore =
  QCheck.Test.make ~name:"save/restore round-trips through the journal" ~count:100
    (QCheck.triple sites_gen sites_gen sites_gen) (fun (a, b, c) ->
      let cov = Coverage.create () in
      let m = Model.create () in
      List.iter
        (fun s ->
          Coverage.hit cov s;
          Model.hit m s)
        a;
      let cp = Coverage.save cov in
      let sig_a = Coverage.signature cov in
      Coverage.matches cov cp
      && begin
           List.iter (Coverage.hit cov) b;
           Coverage.restore cov cp;
           Coverage.signature cov = sig_a
           && Coverage.matches cov cp
           && begin
                (* The previous-location register must be restored too:
                   continuing from the checkpoint behaves exactly like a
                   run that never diverged. *)
                List.iter
                  (fun s ->
                    Coverage.hit cov s;
                    Model.hit m s)
                  c;
                Coverage.signature cov = Model.signature m
              end
         end)

(* ------------------------------------------------------------------ *)
(* Corpus: the pre-change list-based implementation, reproduced
   verbatim, must make bit-identical picks to the indexed array.       *)

module Ref_corpus = struct
  type entry = { id : int; state_code : int }
  type t = { mutable rev_entries : entry list; mutable count : int }

  let create () = { rev_entries = []; count = 0 }

  let add t ~state_code =
    let entry = { id = t.count; state_code } in
    t.rev_entries <- entry :: t.rev_entries;
    t.count <- t.count + 1;
    entry

  let nth_newest t i = List.nth t.rev_entries i

  let schedule t rng =
    if Nyx_sim.Rng.bool rng then nth_newest t (Nyx_sim.Rng.int rng t.count)
    else nth_newest t (Nyx_sim.Rng.int rng (max 1 (t.count / 4)))

  let schedule_state_aware t rng =
    let freq = Hashtbl.create 16 in
    List.iter
      (fun e ->
        Hashtbl.replace freq e.state_code
          (1 + Option.value ~default:0 (Hashtbl.find_opt freq e.state_code)))
      t.rev_entries;
    let weighted =
      List.map
        (fun e ->
          ( e,
            1.0
            /. float_of_int (Option.value ~default:1 (Hashtbl.find_opt freq e.state_code))
          ))
        t.rev_entries
    in
    Nyx_sim.Rng.weighted rng weighted
end

type corpus_op = Add of int | Schedule | ScheduleStateAware

let corpus_script_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 1 60)
      (oneof
         [
           map (fun s -> Add (s mod 5)) (int_bound 1000);
           always Schedule;
           always ScheduleStateAware;
         ]))

let mk_program () =
  Nyx_spec.Net_spec.seed_of_packets (Campaign.net_spec ()) [ Bytes.of_string "x" ]

let prop_corpus_picks_identical =
  QCheck.Test.make ~name:"indexed corpus picks == list-based reference" ~count:100
    (QCheck.pair QCheck.small_int corpus_script_gen) (fun (seed, script) ->
      let program = mk_program () in
      let c = Corpus.create () in
      let r = Ref_corpus.create () in
      let rng_c = Nyx_sim.Rng.create seed in
      let rng_r = Nyx_sim.Rng.create seed in
      (* Seed both so schedules never hit the empty corpus. *)
      ignore (Corpus.add c ~program ~exec_ns:0 ~discovered_ns:0 ~state_code:0);
      ignore (Ref_corpus.add r ~state_code:0);
      List.for_all
        (fun op ->
          match op with
          | Add state_code ->
            let e = Corpus.add c ~program ~exec_ns:0 ~discovered_ns:0 ~state_code in
            let e' = Ref_corpus.add r ~state_code in
            e.Corpus.id = e'.Ref_corpus.id
          | Schedule ->
            (Corpus.schedule c rng_c).Corpus.id
            = (Ref_corpus.schedule r rng_r).Ref_corpus.id
          | ScheduleStateAware ->
            (Corpus.schedule_state_aware c rng_c).Corpus.id
            = (Ref_corpus.schedule_state_aware r rng_r).Ref_corpus.id)
        script)

let test_corpus_programs_cached () =
  let c = Corpus.create () in
  let p = mk_program () in
  for i = 0 to 4 do
    ignore (Corpus.add c ~program:p ~exec_ns:0 ~discovered_ns:i ~state_code:i)
  done;
  let a1 = Corpus.programs c in
  check_int "snapshot length" 5 (Array.length a1);
  Alcotest.(check bool) "cached between growths" true (Corpus.programs c == a1);
  (* Must equal the (newest-first) entries view. *)
  Alcotest.(check bool) "matches entries order" true
    (Array.to_list a1 = List.map (fun e -> e.Corpus.program) (Corpus.entries c));
  ignore (Corpus.add c ~program:p ~exec_ns:0 ~discovered_ns:9 ~state_code:9);
  let a2 = Corpus.programs c in
  Alcotest.(check bool) "rebuilt after growth" true (a2 != a1);
  check_int "grown snapshot" 6 (Array.length a2)

(* ------------------------------------------------------------------ *)
(* Campaign identity: fixed-seed results recorded from the pre-change
   implementation. Every field below (budget 8 virtual seconds, seed 7)
   was captured by running the list-based/full-scan code.              *)

type golden = {
  g_final_edges : int;
  g_execs : int;
  g_virtual_ns : int;
  g_corpus_size : int;
  g_crashes : (string * int * int) list;  (* kind, found_ns, found_exec *)
  g_timeline_n : int;
}

let check_golden name g (r : Report.campaign_result) =
  check_int (name ^ ": final_edges") g.g_final_edges r.Report.final_edges;
  check_int (name ^ ": execs") g.g_execs r.Report.execs;
  check_int (name ^ ": virtual_ns") g.g_virtual_ns r.Report.virtual_ns;
  check_int (name ^ ": corpus_size") g.g_corpus_size r.Report.corpus_size;
  Alcotest.(check (list (triple string int int)))
    (name ^ ": crashes") g.g_crashes
    (List.map
       (fun c -> (c.Report.kind, c.Report.found_ns, c.Report.found_exec))
       r.Report.crashes);
  check_int
    (name ^ ": timeline samples")
    g.g_timeline_n
    (List.length (Nyx_sim.Stats.Timeline.samples r.Report.timeline))

let identity_cfg policy trim =
  {
    Campaign.default_config with
    Campaign.budget_ns = 8_000_000_000;
    max_execs = 25_000;
    policy;
    trim;
    seed = 7;
  }

let echo_entry () = Option.get (Nyx_targets.Registry.find "echo")

let test_identity_balanced_echo () =
  check_golden "nyx-balanced/echo"
    {
      g_final_edges = 27;
      g_execs = 23151;
      g_virtual_ns = 8_000_443_636;
      g_corpus_size = 68;
      g_crashes = [ ("assertion", 20_932_397, 149) ];
      g_timeline_n = 88;
    }
    (Campaign.run (identity_cfg Policy.Balanced false) (echo_entry ()))

let test_identity_aggressive_trim_echo () =
  (* Exercises trim_program's journal-view comparison on the hot path. *)
  check_golden "nyx-aggressive-trim/echo"
    {
      g_final_edges = 27;
      g_execs = 25_000;
      g_virtual_ns = 7_977_534_076;
      g_corpus_size = 65;
      g_crashes = [ ("assertion", 48_414_257, 403) ];
      g_timeline_n = 91;
    }
    (Campaign.run (identity_cfg Policy.Aggressive true) (echo_entry ()))

let test_identity_aflnet_state_aware () =
  (* Exercises schedule_state_aware's float-sum-order-preserving walk. *)
  let entry = Option.get (Nyx_targets.Registry.find "lightftp") in
  match
    Nyx_baselines.Fuzzers.run Nyx_baselines.Fuzzers.aflnet ~budget_ns:8_000_000_000
      ~max_execs:4_000 ~seed:7 entry
  with
  | None -> Alcotest.fail "aflnet should run on lightftp"
  | Some r ->
    check_golden "aflnet/lightftp"
      {
        g_final_edges = 33;
        g_execs = 72;
        g_virtual_ns = 8_011_418_870;
        g_corpus_size = 21;
        g_crashes = [];
        g_timeline_n = 34;
      }
      r

let () =
  Alcotest.run "nyx_hotpath"
    [
      ( "coverage journal",
        [
          QCheck_alcotest.to_alcotest prop_journal_matches_model;
          QCheck_alcotest.to_alcotest prop_reset_equiv_slow;
          QCheck_alcotest.to_alcotest prop_merge_equiv_slow;
          QCheck_alcotest.to_alcotest prop_save_restore;
        ] );
      ( "corpus",
        [
          QCheck_alcotest.to_alcotest prop_corpus_picks_identical;
          Alcotest.test_case "programs snapshot cached" `Quick
            test_corpus_programs_cached;
        ] );
      ( "campaign identity",
        [
          Alcotest.test_case "nyx balanced (echo)" `Quick test_identity_balanced_echo;
          Alcotest.test_case "nyx aggressive + trim (echo)" `Quick
            test_identity_aggressive_trim_echo;
          Alcotest.test_case "aflnet state-aware (lightftp)" `Quick
            test_identity_aflnet_state_aware;
        ] );
    ]
