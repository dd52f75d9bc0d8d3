(* GC spans from the OCaml runtime's own event ring (Runtime_events).

   Every domain writes begin/end events for its GC phases into a ring
   file (placed wherever OCAML_RUNTIME_EVENTS_DIR points; the wrapper
   script points it at the run's temp directory). We poll the ring from
   the calling domain between campaign steps and attribute each
   nanosecond between two events of one domain to the phase on top of
   that domain's phase stack: that is GC self time per category, so a
   minor collection run inside a stop-the-world handler counts as minor
   GC and the handler keeps only its own share. The outermost spans are
   kept for the trace file. *)

type category = Minor | Major | Wait | Other

let category_of (ph : Runtime_events.runtime_phase) =
  match ph with
  | EV_MINOR | EV_MINOR_LOCAL_ROOTS | EV_MINOR_FINALIZED | EV_MINOR_CLEAR
  | EV_MINOR_FINALIZERS_OLDIFY | EV_MINOR_GLOBAL_ROOTS | EV_MINOR_LEAVE_BARRIER
  | EV_MINOR_FINALIZERS_ADMIN | EV_MINOR_REMEMBERED_SET
  | EV_MINOR_REMEMBERED_SET_PROMOTE | EV_MINOR_LOCAL_ROOTS_PROMOTE
  | EV_EXPLICIT_GC_MINOR ->
    Minor
  | EV_MAJOR | EV_MAJOR_SWEEP | EV_MAJOR_MARK_ROOTS | EV_MAJOR_MARK
  | EV_MAJOR_EPHE_MARK | EV_MAJOR_EPHE_SWEEP | EV_MAJOR_FINISH_MARKING
  | EV_MAJOR_GC_CYCLE_DOMAINS | EV_MAJOR_GC_PHASE_CHANGE | EV_MAJOR_GC_STW
  | EV_MAJOR_MARK_OPPORTUNISTIC | EV_MAJOR_SLICE | EV_MAJOR_FINISH_CYCLE
  | EV_MAJOR_FINISH_SWEEPING | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
  | EV_EXPLICIT_GC_MAJOR_SLICE | EV_EXPLICIT_GC_COMPACT | EV_FINALISE_UPDATE_FIRST
  | EV_FINALISE_UPDATE_LAST ->
    Major
  | EV_DOMAIN_CONDITION_WAIT -> Wait
  | _ -> Other

let cat_index = function Minor -> 0 | Major -> 1 | Wait -> 2 | Other -> 3
let max_rings = 128

type t = {
  cursor : Runtime_events.cursor;
  mutable callbacks : Runtime_events.Callbacks.t option;
  stack : Runtime_events.runtime_phase list array;  (* per ring *)
  last_ns : int64 array;  (* per ring: timestamp of its previous event *)
  outer_ns : int64 array;  (* per ring: start of the open outermost span *)
  self_ns : float array array;  (* per ring, per category *)
  mutable lost : int;
  spans : (int * string * int64 * int64) Queue.t;  (* ring, phase, t0, t1 *)
}

let on_begin t ring ts ph =
  if ring < max_rings then begin
    (match t.stack.(ring) with
    | [] -> t.outer_ns.(ring) <- ts
    | top :: _ ->
      let c = cat_index (category_of top) in
      t.self_ns.(ring).(c) <-
        t.self_ns.(ring).(c) +. Int64.to_float (Int64.sub ts t.last_ns.(ring)));
    t.stack.(ring) <- ph :: t.stack.(ring);
    t.last_ns.(ring) <- ts
  end

let on_end t ring ts _ph =
  if ring < max_rings then
    match t.stack.(ring) with
    | [] -> () (* its begin was lost or predates [start] *)
    | top :: rest ->
      let c = cat_index (category_of top) in
      t.self_ns.(ring).(c) <-
        t.self_ns.(ring).(c) +. Int64.to_float (Int64.sub ts t.last_ns.(ring));
      t.stack.(ring) <- rest;
      t.last_ns.(ring) <- ts;
      if rest = [] then
        Queue.push
          (ring, Runtime_events.runtime_phase_name top, t.outer_ns.(ring), ts)
          t.spans

let create () =
  (* [start] is a no-op once the ring exists; a ring paused by an earlier
     [stop] in this process needs [resume]. *)
  Runtime_events.start ();
  Runtime_events.resume ();
  let t =
    {
      cursor = Runtime_events.create_cursor None;
      callbacks = None;
      stack = Array.make max_rings [];
      last_ns = Array.make max_rings 0L;
      outer_ns = Array.make max_rings 0L;
      self_ns = Array.init max_rings (fun _ -> Array.make 4 0.0);
      lost = 0;
      spans = Queue.create ();
    }
  in
  let cb =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts ph ->
        on_begin t ring (Runtime_events.Timestamp.to_int64 ts) ph)
      ~runtime_end:(fun ring ts ph ->
        on_end t ring (Runtime_events.Timestamp.to_int64 ts) ph)
      ~lost_events:(fun _ n -> t.lost <- t.lost + n)
      ()
  in
  t.callbacks <- Some cb;
  t

let poll t =
  match t.callbacks with
  | Some cb -> ignore (Runtime_events.read_poll t.cursor cb None)
  | None -> ()

(* GC self seconds per category, summed over every domain. *)
let totals t =
  let s = Array.make 4 0.0 in
  Array.iter (fun per -> Array.iteri (fun c v -> s.(c) <- s.(c) +. v) per) t.self_ns;
  fun cat -> s.(cat_index cat) /. 1e9

(* Domain-wait seconds of every ring but 0, the main domain's (the
   benchmark drives everything from it): the time fleet workers sat idle
   on the pool's condition variable. *)
let worker_wait_s t =
  let acc = ref 0.0 in
  Array.iteri
    (fun ring per -> if ring > 0 then acc := !acc +. per.(cat_index Wait))
    t.self_ns;
  !acc /. 1e9

let lost t = t.lost

(* Timestamps are CLOCK_MONOTONIC ns, the benchmark spans' axis. *)
let write_jsonl t oc =
  Queue.iter
    (fun (ring, phase, a, b) ->
      Printf.fprintf oc "{\"gc_span\":%S,\"domain_ring\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        phase ring a b)
    t.spans

let stop t =
  poll t;
  Runtime_events.pause ();
  Runtime_events.free_cursor t.cursor;
  t.callbacks <- None
