type t = {
  clock : Nyx_sim.Clock.t;
  profile : Profile.t option;
  mutable override_ : Profile.phase option;
  mutable depth : int;  (* spans open on this campaign *)
  (* Self-time: while a span runs these accumulate the clock extent of the
     spans nested inside it, which it subtracts from its own extent. *)
  mutable inner_v : int;
  mutable inner_w : float;
}

let create ?(profile = false) clock =
  {
    clock;
    profile = (if profile then Some (Profile.create ()) else None);
    override_ = None;
    depth = 0;
    inner_v = 0;
    inner_w = 0.0;
  }

let clock o = o.clock
let profile o = o.profile
let active o = match o.profile with Some _ -> true | None -> Trace.on ()

(* Close the span opened at [v0]/[w0]: charge the profile, write the
   trace event, and restore the enclosing span's nesting and self-time
   accumulators. The wall clock is read again only for the profile — the
   trace stamps a span's start. *)
let close o ph ~v0 ~w0 ~depth ~outer_v ~outer_w fields =
  let dv = Nyx_sim.Clock.now_ns o.clock - v0 in
  (match o.profile with
  | Some p ->
    let dw = Unix.gettimeofday () -. w0 in
    Profile.add p ph ~virtual_ns:(dv - o.inner_v) ~wall_s:(dw -. o.inner_w);
    o.inner_w <- outer_w +. dw
  | None -> ());
  Trace.complete (Profile.phase_name ph) ~vns:v0 ~dur:dv ~depth ~wall:w0 fields;
  o.depth <- depth;
  o.inner_v <- outer_v + dv

let span o phase ?attrs f =
  if not (active o) then f ()
  else begin
    let ph = match o.override_ with Some p -> p | None -> phase in
    let v0 = Nyx_sim.Clock.now_ns o.clock and w0 = Unix.gettimeofday () in
    let depth = o.depth and outer_v = o.inner_v and outer_w = o.inner_w in
    o.depth <- depth + 1;
    o.inner_v <- 0;
    o.inner_w <- 0.0;
    let r =
      try f ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        close o ph ~v0 ~w0 ~depth ~outer_v ~outer_w [];
        Printexc.raise_with_backtrace e bt
    in
    close o ph ~v0 ~w0 ~depth ~outer_v ~outer_w
      (match attrs with Some a when Trace.on () -> a r | _ -> []);
    r
  end

let charge o phase f =
  if not (active o) then f ()
  else begin
    let saved = o.override_ in
    o.override_ <- Some phase;
    Fun.protect ~finally:(fun () -> o.override_ <- saved) f
  end

let event o name fields =
  Trace.instant ~vns:(Nyx_sim.Clock.now_ns o.clock) ~depth:o.depth name fields
