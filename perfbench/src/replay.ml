(* Layer replay: a workload's final corpus fed through the layers one
   public call at a time, each call in its own span.

   The corpus, coverage map, dictionary and length cap come from a
   checkpoint the traced run captured with [Campaign.checkpoint_now]. The
   loop is the campaign's own: [Corpus.schedule], an optional
   [Executor.state_boundaries] probe (dynamic placement only), then
   [Policy.reuse_count] candidates from [Mutation_engine.mutate], each run
   with [Executor.run_full] at the root or [Executor.run_suffix] inside an
   [Executor.start_session]/[end_session] pair, merged into the coverage
   map and, when novel, added to the corpus. The spans of one candidate
   share its exec id; a round's spans nest under a "round" span. *)

open Nyx_core

type t = {
  rounds : int;
  candidates : int;
  novel : int;
  pages : int list;  (* dirty pages copied per incremental create *)
}

let run w (ck : Checkpoint.t) ~seed ~budget_s ~min_rounds (sp : Span.t) =
  let span ?exec name f = Span.record sp ?exec name f in
  let spec = Campaign.net_spec () in
  let exec =
    Executor.create ?peer:(Workload.peer_script w) ~net_spec:spec
      (Workload.entry w).Nyx_targets.Registry.target
  in
  let seed_rng = Nyx_sim.Rng.create seed in
  Option.iter
    (fun sp -> Executor.arm_faults exec (Nyx_resilience.Plan.create sp (Nyx_sim.Rng.split seed_rng)))
    (match (Workload.faults w, Workload.peer_faults w) with
    | None, None -> None
    | a, b -> Some (Option.value a ~default:[] @ Option.value b ~default:[]));
  let corpus = Corpus.create () in
  List.iter
    (fun (ce : Checkpoint.corpus_entry) ->
      match Nyx_spec.Program.parse spec.Nyx_spec.Net_spec.spec ce.Checkpoint.ce_program with
      | Ok program ->
        ignore
          (span "Corpus.add" (fun () ->
               Corpus.add corpus ~program ~exec_ns:ce.Checkpoint.ce_exec_ns
                 ~discovered_ns:ce.Checkpoint.ce_discovered_ns
                 ~state_code:ce.Checkpoint.ce_state_code))
      | Error m -> failwith ("perfbench: checkpoint corpus entry: " ^ m))
    ck.Checkpoint.c_corpus;
  let cumulative = Nyx_targets.Coverage.Cumulative.create () in
  Nyx_targets.Coverage.Cumulative.load_state cumulative ck.Checkpoint.c_virgin;
  let engine = Engines.create w.Workload.engine spec.Nyx_spec.Net_spec.spec in
  let policy = Policy.create w.Workload.policy (Nyx_sim.Rng.split seed_rng) in
  let rng = Nyx_sim.Rng.split seed_rng and mut_rng = Nyx_sim.Rng.split seed_rng in
  let dyn = Policy.is_dynamic policy in
  let clock () = Nyx_sim.Clock.now_ns (Executor.clock exec) in
  let candidates = ref 0 and novel = ref 0 and pages = ref [] in
  (* One candidate: mutate, execute, merge, maybe add. Returns novelty. *)
  let candidate ~frozen ~max_ops ~progs program execute =
    incr candidates;
    let exec_id = !candidates in
    span ~exec:exec_id "candidate" (fun () ->
        let mutated =
          span ~exec:exec_id "Mutation_engine.mutate" (fun () ->
              Nyx_spec.Mutation_engine.mutate engine mut_rng
                {
                  Nyx_spec.Mutation_engine.mx_frozen = frozen;
                  mx_max_ops = max_ops;
                  mx_dict = ck.Checkpoint.c_dict;
                  mx_corpus = progs;
                }
                program)
        in
        let r = execute exec_id mutated in
        let is_novel =
          span ~exec:exec_id "Coverage.merge" (fun () ->
              Nyx_targets.Coverage.Cumulative.merge cumulative (Executor.coverage exec))
        in
        if is_novel then begin
          incr novel;
          ignore
            (span ~exec:exec_id "Corpus.add" (fun () ->
                 Corpus.add corpus
                   ~program:(Nyx_spec.Program.strip_snapshots mutated)
                   ~exec_ns:r.Report.exec_ns ~discovered_ns:(clock ())
                   ~state_code:r.Report.state_code))
        end;
        Nyx_spec.Mutation_engine.credit engine ~novel:is_novel;
        (is_novel, r.Report.exec_ns))
  in
  let round () =
    span "round" (fun () ->
        let entry = span "Corpus.schedule" (fun () -> Corpus.schedule corpus rng) in
        let id = entry.Corpus.id and packets = entry.Corpus.packets in
        let progs = Corpus.programs corpus in
        let max_ops = ck.Checkpoint.c_max_ops in
        if dyn && packets >= Policy.min_packets_for_snapshot then begin
          match
            Policy.prepare_dynamic policy ~input_id:id ~packets
              ~full_ns:entry.Corpus.exec_ns
          with
          | `Ready -> ()
          | `Probe ->
            let boundaries =
              span "Executor.state_boundaries" (fun () ->
                  Executor.state_boundaries exec entry.Corpus.program)
            in
            Policy.set_boundaries policy ~input_id:id ~packets ~boundaries
        end;
        let news = ref false and ns = ref 0 and n = ref 0 in
        let note (is_novel, exec_ns) =
          if is_novel then news := true;
          ns := !ns + exec_ns;
          incr n
        in
        (match Policy.decide policy ~input_id:id ~packets with
        | `Root ->
          for _ = 1 to Policy.reuse_count do
            note
              (candidate ~frozen:0 ~max_ops ~progs entry.Corpus.program
                 (fun exec_id p ->
                   span ~exec:exec_id "Executor.run_full" (fun () ->
                       Executor.run_full exec p)))
          done;
          if dyn then Policy.observe_full policy ~input_id:id ~ns:(!ns / max 1 !n)
        | `At idx -> (
          let with_snap = Nyx_spec.Program.with_snapshot_at entry.Corpus.program idx in
          let setup0 = clock () in
          match
            span "Executor.start_session" (fun () ->
                Executor.start_session exec with_snap)
          with
          | Error _ -> ()
          | Ok session ->
            let setup_ns = clock () - setup0 in
            pages := Executor.last_snapshot_pages exec :: !pages;
            let frozen = Executor.suffix_start session in
            for _ = 1 to Policy.reuse_count do
              note
                (candidate ~frozen ~max_ops:(max_ops + 1) ~progs with_snap
                   (fun exec_id p ->
                     span ~exec:exec_id "Executor.run_suffix" (fun () ->
                         Executor.run_suffix exec session p)))
            done;
            span "Executor.end_session" (fun () -> Executor.end_session exec session);
            if dyn then
              Policy.observe_session policy ~input_id:id ~idx ~setup_ns
                ~round_ns:(!ns / max 1 !n)
                ~pages:(Executor.last_snapshot_pages exec)));
        if !news then Policy.notify_news policy ~input_id:id
        else Policy.notify_no_news policy ~input_id:id)
  in
  let t0 = Clock.now_s () in
  let rounds = ref 0 in
  while !rounds < min_rounds || Clock.now_s () -. t0 < budget_s do
    round ();
    incr rounds
  done;
  { rounds = !rounds; candidates = !candidates; novel = !novel; pages = !pages }
