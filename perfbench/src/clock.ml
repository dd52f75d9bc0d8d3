(* Monotonic wall clock, nanoseconds. Same clock as Runtime_events
   timestamps, so GC spans and benchmark spans share one time axis. *)
external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let now_s () = float_of_int (now_ns ()) /. 1e9
