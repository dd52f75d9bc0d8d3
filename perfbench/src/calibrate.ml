(* Host-speed probe.

   The benchmark's host shares its cores, caches and memory bandwidth with
   other machines' work, and its speed drifts by tens of percent within a
   minute while our own CPU time tracks wall time (so it is not time
   stolen from us but slower execution). A fixed kernel that does what the
   simulator's hot loop does — page-sized copies, scattered writes into a
   coverage-sized map, short-lived allocation — is timed next to every
   campaign. It uses none of the repository's code, so a change to the
   simulator moves the campaigns and not the probe, while a change in host
   speed moves both. *)

let pages = Array.init 64 (fun i -> Bytes.make 4096 (Char.chr (i land 255)))
let page = Bytes.create 4096
let map = Bytes.make 65536 '\000'

let kernel rounds =
  let acc = ref 0 in
  for i = 1 to rounds do
    Bytes.blit pages.(i land 63) 0 page 0 4096;
    let h = ref (i * 2654435761) in
    for _ = 1 to 32 do
      h := (!h * 1103515245) + 12345;
      let k = (!h lsr 8) land 0xffff in
      Bytes.unsafe_set map k (Char.unsafe_chr ((Char.code (Bytes.unsafe_get map k) + 1) land 255))
    done;
    let l = List.init 24 (fun j -> (j, i)) in
    acc := !acc + List.fold_left (fun a (j, _) -> a + j) 0 l + Char.code (Bytes.get page (i land 4095))
  done;
  !acc

let rounds = 12000

(* Seconds one probe takes now. *)
let probe () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel rounds));
  float_of_int (Clock.now_ns () - t0) /. 1e9

(* What one probe takes on the reference host, a 2-core
   Xeon virtual machine with no competing load; loop times are scaled by
   [reference_s / measured] to read as seconds on that host. *)
let reference_s = 0.004
