(* The four workloads and one closed-loop campaign run of each.

   Every run is one campaign per domain, driven through the public
   stepped API exactly as a fleet drives its instances: [Campaign.start],
   then [Campaign.step] to each 250-virtual-ms barrier, then
   [Campaign.finalize]. A run starts only when the previous one has
   finished. Tracing off and on take the same step schedule, so their
   deterministic results must be identical. *)

open Nyx_core

type shape = Single | Fleet of int  (* synced fleet of that many instances *)

type t = {
  name : string;
  target : string;
  policy : Policy.kind;
  engine : Engines.kind;
  budget_ns : int;  (* virtual budget of one campaign *)
  peer : bool;
  faults : string option;  (* Plan spec over every site *)
  peer_faults : string option;  (* Peer_fault spec, appended *)
  shape : shape;
}

let slice_ns = 250_000_000

(* A fleet checkpoint (NYXFLT1 wrapping NYXCKP1) every this many epochs.
   The traced run also drains the GC event ring from the write hook, the
   only point where the coordinator regains control inside [Fleet.run]. *)
let fleet_ck_every = 8

let lightftp_static =
  {
    name = "lightftp-static";
    target = "lightftp";
    policy = Policy.Balanced;
    engine = Engines.Havoc;
    budget_ns = 8_000_000_000;
    peer = false;
    faults = None;
    peer_faults = None;
    shape = Single;
  }

let all =
  [
    lightftp_static;
    {
      name = "proftpd-adaptive";
      target = "proftpd";
      policy = Policy.Dynamic;
      engine = Engines.Typed;
      budget_ns = 20_000_000_000;
      peer = false;
      faults = None;
      peer_faults = None;
      shape = Single;
    };
    { lightftp_static with name = "lightftp-fleet2"; shape = Fleet 2 };
    {
      name = "tinydtls-peer-faults";
      target = "tinydtls";
      policy = Policy.Balanced;
      engine = Engines.Havoc;
      budget_ns = 60_000_000_000;
      peer = true;
      faults = Some "all:0.02";
      peer_faults = Some "all:0.5";
      shape = Single;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Domains a run occupies. A fleet's end-to-end runs put both instances
   on one domain: on a shared 2-core host a 2-domain fleet's wall time
   swings by a factor of two with the neighbours' load (every epoch
   barrier and every stop-the-world minor collection waits for the
   slower core), far beyond any bound. The traced run, whose figures
   carry no bound, gives each instance its own domain. *)
let domains w ~traced = match w.shape with Single -> 1 | Fleet n -> if traced then n else 1

let entry w =
  match Nyx_targets.Registry.find w.target with
  | Some e -> e
  | None -> failwith ("perfbench: unknown target " ^ w.target)

let peer_script w =
  if not w.peer then None
  else
    match Nyx_peer.Peer_script.find w.target with
    | Some s -> Some s
    | None -> failwith ("perfbench: no peer script for " ^ w.target)

let parse what parser = function
  | None -> None
  | Some s -> (
    match parser s with
    | Ok sp -> Some sp
    | Error m -> failwith (Printf.sprintf "perfbench: bad %s spec: %s" what m))

let faults w = parse "fault" Nyx_resilience.Plan.parse_spec w.faults
let peer_faults w = parse "peer fault" Nyx_peer.Peer_fault.parse_spec w.peer_faults

(* [scale] shrinks the virtual budget for the benchmark's own tests. *)
let config ?(scale = 1.0) w ~seed =
  {
    Campaign.default_config with
    Campaign.policy = w.policy;
    budget_ns = max slice_ns (int_of_float (float_of_int w.budget_ns *. scale));
    max_execs = max_int;
    seed;
    engine = w.engine;
  }

(* What a run hands back: the deterministic results plus the wall and
   allocation figures the end-to-end metrics are made of. *)
type run = {
  results : Report.campaign_result list;  (* one per instance *)
  fleet : Fleet.outcome option;
  setup_s : float;  (* boot + seed import + root snapshot + seed execs *)
  loop_s : float;  (* the main loop's wall time *)
  loop_execs : int;
  minor_words : float;  (* over the main loop, all domains *)
  heap_words : int;  (* largest major heap seen at a step boundary *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  ckpt : Checkpoint.t option;  (* end-of-loop capture, when asked *)
  ck_writes : int;
  ck_bytes : int;
}

(* Tracing hooks: [span] wraps each public call, [poll] drains the GC
   event ring between steps. Both are identity/no-op when untraced. *)
type tracer = {
  span : 'a. ?exec:int -> string -> (unit -> 'a) -> 'a;
  poll : unit -> unit;
}

let untraced = { span = (fun ?exec:_ _ f -> f ()); poll = ignore }
let now = Clock.now_s

let start_inst ?(collect_exports = false) w ~profile cfg =
  Campaign.start ?peer:(peer_script w) ?peer_faults:(peer_faults w)
    ?faults:(faults w) ~profile ~collect_exports cfg (entry w)

let run_single ?scale ?(capture = false) w ~seed ~profile tr =
  let cfg = config ?scale w ~seed in
  let t0 = now () in
  let inst = tr.span "Campaign.start" (fun () -> start_inst w ~profile cfg) in
  let setup_s = now () -. t0 in
  let e0 = Campaign.execs inst in
  let s0 = Gc.quick_stat () in
  let w0 = now () in
  let until = ref slice_ns and heap = ref 0 in
  while not (Campaign.finished inst) do
    if Campaign.clock_ns inst < !until then begin
      tr.span "Campaign.step" (fun () -> Campaign.step inst ~until_ns:!until);
      heap := max !heap (Gc.quick_stat ()).Gc.heap_words;
      tr.poll ()
    end;
    until := !until + slice_ns
  done;
  let loop_s = now () -. w0 in
  let s1 = Gc.quick_stat () in
  let loop_execs = Campaign.execs inst - e0 in
  let ckpt = if capture then Some (Campaign.checkpoint_now inst) else None in
  let r = tr.span "Campaign.finalize" (fun () -> Campaign.finalize inst) in
  {
    results = [ r ];
    fleet = None;
    setup_s;
    loop_s;
    loop_execs;
    minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    heap_words = !heap;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    ckpt;
    ck_writes = 0;
    ck_bytes = 0;
  }

(* A fleet boots its instances on a pool [domains] wide (sequentially on
   one domain); [Fleet.run] does this internally, where it cannot be
   timed from outside, so the benchmark times the same fan-out itself. *)
let boot_fleet w ~instances ~domains ~profile (cfg : Campaign.config) =
  let cfgs =
    Array.init instances (fun i ->
        { cfg with Campaign.seed = cfg.Campaign.seed + (1000 * i) })
  in
  let t0 = now () in
  let insts =
    Nyx_parallel.Pool.map ~domains
      (fun c -> start_inst ~collect_exports:true w ~profile c)
      cfgs
  in
  (insts, now () -. t0)

(* One set-up time sample: boot, seed import, root snapshot, seed execs. *)
let setup_sample ?scale w ~seed =
  let cfg = config ?scale w ~seed in
  match w.shape with
  | Single ->
    let t0 = now () in
    ignore (start_inst w ~profile:false cfg);
    now () -. t0
  | Fleet instances ->
    snd (boot_fleet w ~instances ~domains:(domains w ~traced:false) ~profile:false cfg)

(* A synced fleet, one domain per instance; its main loop is the whole
   [Fleet.run] call. *)
let run_fleet ?scale w ~instances ~domains ~seed ~profile ~ck_path tr =
  let cfg = config ?scale w ~seed in
  let boots, setup_s = boot_fleet w ~instances ~domains ~profile cfg in
  let seed_execs = Array.fold_left (fun n i -> n + Campaign.execs i) 0 boots in
  let writes = ref 0 and bytes = ref 0 and heap = ref 0 in
  let checkpoint =
    Fleet.checkpointing ~path:ck_path ~every_epochs:fleet_ck_every
      ~on_write:(fun _ ->
        incr writes;
        bytes := !bytes + (Unix.stat ck_path).Unix.st_size;
        heap := max !heap (Gc.quick_stat ()).Gc.heap_words;
        tr.poll ())
      ()
  in
  let s0 = Gc.quick_stat () in
  let w0 = now () in
  let o =
    tr.span "Fleet.run" (fun () ->
        Fleet.run ~instances ~domains ?peer:(peer_script w)
          ?peer_faults:(peer_faults w) ~profile ~sync_ns:slice_ns ~checkpoint
          ~config:cfg (entry w))
  in
  let loop_s = now () -. w0 in
  let s1 = Gc.quick_stat () in
  tr.poll ();
  {
    results = o.Fleet.results;
    fleet = Some o;
    setup_s;
    loop_s;
    loop_execs = o.Fleet.total_execs - seed_execs;
    minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    heap_words = max !heap s1.Gc.heap_words;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    ckpt = None;
    ck_writes = !writes;
    ck_bytes = !bytes;
  }

let run ?scale ?capture w ~seed ~domains ~profile ~tmp tr =
  match w.shape with
  | Single -> run_single ?scale ?capture w ~seed ~profile tr
  | Fleet instances ->
    run_fleet ?scale w ~instances ~domains ~seed ~profile
      ~ck_path:(Filename.concat tmp "fleet.ckpt") tr
