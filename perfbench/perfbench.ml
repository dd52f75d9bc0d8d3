(* perfbench --workload NAME --seed N --seconds S --trace 0|1
             [--out DIR] [--tmp DIR]

   Runs one workload (or "all" of them, one after another) and prints its
   metrics; the last stdout line is the machine-readable result. Exits 1
   when the correctness check fails, 2 on bad arguments. *)

open Perfbench_lib

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref "" and tmp = ref "" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of "
        ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all)
        ^ ", or all" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S wall seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--out", Arg.Set_string out_dir, "DIR where the traced run writes its span file");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory for checkpoint files");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  let bad m =
    prerr_endline ("perfbench: " ^ m);
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> bad ("unexpected argument " ^ a)) usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if !seconds < 0.0 then bad "--seconds must be non-negative";
  let workloads =
    if !workload = "all" then Workload.all
    else
      match Workload.find !workload with
      | Some w -> [ w ]
      | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  let tmp = if !tmp = "" then Filename.get_temp_dir_name () else !tmp in
  let ok =
    List.fold_left
      (fun ok w ->
        let o =
          {
            Bench.workload = w;
            seed = !seed;
            seconds = !seconds;
            trace = !trace = 1;
            out_dir = (if !out_dir = "" then None else Some !out_dir);
            tmp;
            scale = 1.0;
          }
        in
        let r = Bench.run o in
        Bench.print o r;
        ok && r.Bench.outcome.Metric.correct)
      true workloads
  in
  exit (if ok then 0 else 1)
