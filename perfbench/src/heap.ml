(* Start the next campaign on a heap like a fresh fuzzing process's: the
   previous campaign's garbage collected and the memory it held returned
   to the operating system. Without this, a boot's time mostly measures
   the GC debt or the free memory the previous campaign left behind, and
   flips between regimes from run to run. *)
external release_memory : unit -> unit = "perfbench_release_memory" [@@noalloc]

let fresh () =
  Gc.full_major ();
  release_memory ()
