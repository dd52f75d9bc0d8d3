open Nyx_vm

let check_int = Alcotest.(check int)
let check_bytes = Alcotest.(check string)
let b = Bytes.of_string

let mk_mem ?(pages = 64) () = Memory.create ~num_pages:pages

(* Page geometry *)

let test_page_geometry () =
  check_int "size" 512 Page.size;
  check_int "number" 2 (Page.number (2 * Page.size));
  check_int "offset" 5 (Page.offset ((2 * Page.size) + 5));
  check_int "zero page len" Page.size (Bytes.length (Page.zero ()))

(* Dirty log *)

let test_dirty_mark_once () =
  let d = Dirty_log.create ~num_pages:16 in
  Alcotest.(check bool) "first mark" true (Dirty_log.mark d 3);
  Alcotest.(check bool) "second mark absorbed" false (Dirty_log.mark d 3);
  check_int "count" 1 (Dirty_log.count d);
  Alcotest.(check bool) "is_dirty" true (Dirty_log.is_dirty d 3);
  Alcotest.(check bool) "clean page" false (Dirty_log.is_dirty d 4)

let test_dirty_iter_agree () =
  let d = Dirty_log.create ~num_pages:32 in
  List.iter (fun p -> ignore (Dirty_log.mark d p)) [ 5; 1; 9; 1; 30 ];
  let clock = Nyx_sim.Clock.create () in
  let via_stack = ref [] and via_bitmap = ref [] in
  Dirty_log.iter_stack d clock (fun p -> via_stack := p :: !via_stack);
  Dirty_log.iter_bitmap d clock (fun p -> via_bitmap := p :: !via_bitmap);
  let sort = List.sort compare in
  Alcotest.(check (list int)) "same set" (sort !via_stack) (sort !via_bitmap);
  Alcotest.(check (list int)) "set is marked pages" [ 1; 5; 9; 30 ] (sort !via_stack)

let test_dirty_costs () =
  let d = Dirty_log.create ~num_pages:1000 in
  ignore (Dirty_log.mark d 1);
  ignore (Dirty_log.mark d 2);
  let c1 = Nyx_sim.Clock.create () in
  Dirty_log.iter_stack d c1 ignore;
  check_int "stack cost scales with dirty count"
    (2 * Nyx_sim.Cost.dirty_stack_entry)
    (Nyx_sim.Clock.now_ns c1);
  let c2 = Nyx_sim.Clock.create () in
  Dirty_log.iter_bitmap d c2 ignore;
  check_int "bitmap cost scales with VM size"
    (1000 * Nyx_sim.Cost.bitmap_scan_per_page)
    (Nyx_sim.Clock.now_ns c2)

let test_dirty_clear () =
  let d = Dirty_log.create ~num_pages:16 in
  ignore (Dirty_log.mark d 7);
  Dirty_log.clear d;
  check_int "count zero" 0 (Dirty_log.count d);
  Alcotest.(check bool) "bitmap cleared" false (Dirty_log.is_dirty d 7);
  Alcotest.(check bool) "can re-mark" true (Dirty_log.mark d 7)

let test_dirty_stack_growth () =
  let d = Dirty_log.create ~num_pages:500 in
  for p = 0 to 499 do
    ignore (Dirty_log.mark d p)
  done;
  check_int "all tracked" 500 (Dirty_log.count d)

(* Memory *)

let test_memory_rw_roundtrip () =
  let m = mk_mem () in
  Memory.write m 100 (b "hello");
  check_bytes "read back" "hello" (Bytes.to_string (Memory.read m 100 5))

let test_memory_zero_default () =
  let m = mk_mem () in
  check_bytes "zeros" "\000\000\000" (Bytes.to_string (Memory.read m 0 3))

let test_memory_cross_page () =
  let m = mk_mem () in
  let addr = Page.size - 2 in
  Memory.write m addr (b "abcd");
  check_bytes "spans boundary" "abcd" (Bytes.to_string (Memory.read m addr 4));
  check_int "both pages dirty" 2 (Dirty_log.count (Memory.dirty m))

let test_memory_fault () =
  let m = mk_mem ~pages:2 () in
  Alcotest.check_raises "oob" (Memory.Fault { addr = 2 * Page.size; size = 1 })
    (fun () -> ignore (Memory.read m (2 * Page.size) 1));
  Alcotest.check_raises "negative" (Memory.Fault { addr = -1; size = 1 }) (fun () ->
      Memory.write m (-1) (b "x"))

let test_memory_ints () =
  let m = mk_mem () in
  Memory.write_u8 m 0 255;
  check_int "u8" 255 (Memory.read_u8 m 0);
  Memory.write_u16 m 2 0xBEEF;
  check_int "u16" 0xBEEF (Memory.read_u16 m 2);
  Memory.write_i32 m 8 (-123456);
  check_int "i32 negative" (-123456) (Memory.read_i32 m 8);
  Memory.write_i32 m 12 0x7FFFFFFF;
  check_int "i32 max" 0x7FFFFFFF (Memory.read_i32 m 12);
  Memory.write_i64 m 16 (-987654321012345);
  check_int "i64" (-987654321012345) (Memory.read_i64 m 16)

let test_memory_ints_cross_page () =
  let m = mk_mem () in
  (* Every scalar access straddles a page boundary: the generic fallback
     path, which must agree with the single-page fast path. *)
  Memory.write_u16 m (Page.size - 1) 0xABCD;
  check_int "u16 straddle" 0xABCD (Memory.read_u16 m (Page.size - 1));
  Memory.write_i32 m ((2 * Page.size) - 2) (-77777);
  check_int "i32 straddle" (-77777) (Memory.read_i32 m ((2 * Page.size) - 2));
  Memory.write_i64 m ((3 * Page.size) - 5) 0x1122334455667788;
  check_int "i64 straddle" 0x1122334455667788 (Memory.read_i64 m ((3 * Page.size) - 5));
  check_int "straddling writes dirty both sides" 4 (Dirty_log.count (Memory.dirty m))

let test_memory_scalar_fast_path () =
  let m = mk_mem () in
  Memory.write_i32 m 100 42;
  check_int "fast write dirties one page" 1 (Dirty_log.count (Memory.dirty m));
  check_int "fast read" 42 (Memory.read_i32 m 100);
  check_int "unmaterialized reads as zero" 0 (Memory.read_i64 m (10 * Page.size));
  check_int "scalar reads materialize nothing" 1 (Memory.materialized_count m);
  Alcotest.check_raises "fast path still faults"
    (Memory.Fault { addr = (64 * Page.size) - 2; size = 4 }) (fun () ->
      ignore (Memory.read_i32 m ((64 * Page.size) - 2)))

(* domain-safe: qcheck property closure, run on a single domain *)
let prop_i32_fast_slow_agree =
  QCheck.Test.make ~name:"i32 scalar path = generic byte path" ~count:500
    QCheck.(pair (int_bound ((64 * 512) - 4)) int)
    (fun (addr, v) ->
      let m1 = Memory.create ~num_pages:64 in
      let m2 = Memory.create ~num_pages:64 in
      Memory.write_i32 m1 addr v;
      let bs = Bytes.create 4 in
      for i = 0 to 3 do
        Bytes.set bs i (Char.chr ((v lsr (8 * i)) land 0xff))
      done;
      Memory.write m2 addr bs;
      Memory.read_i32 m1 addr = Memory.read_i32 m2 addr
      && Bytes.equal (Memory.read m1 addr 4) (Memory.read m2 addr 4)
      && Dirty_log.to_list (Memory.dirty m1) = Dirty_log.to_list (Memory.dirty m2))

(* The direct-indexed page table against the Hashtbl-backed reference:
   random scalar reads and writes of every width, byte-range reads and
   writes, set_page/drop_page, page_content and clear_dirty, with
   addresses clustered at page boundaries (so accesses straddle pages)
   and at the end of memory (so some fault). Every result must agree,
   and afterwards the contents, every page_content, the materialized set,
   materialized_count and the dirty stack. *)
module Ref_mem = Reference.Memory

type mem_op =
  | Read_n of int * int (* width, addr *)
  | Write_n of int * int * int (* width, addr, value *)
  | Read of int * int
  | Write of int * string
  | Set_page of int * char
  | Drop_page of int
  | Page_content of int
  | Clear_dirty

let ref_pages = 200 (* four page-table leaves, the last one partial *)

let mem_op_gen =
  let open QCheck.Gen in
  let pfn = int_bound (ref_pages - 1) in
  let addr =
    let* p = int_bound ref_pages
    and* off = oneof [ int_bound 8; int_range 500 511; int_bound 511 ] in
    return ((p * Page.size) + off - 4)
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  frequency
    [
      (4, map2 (fun w a -> Read_n (w, a)) width addr);
      (6, map3 (fun w a v -> Write_n (w, a, v)) width addr int);
      (1, map2 (fun a n -> Read (a, n)) addr (int_bound 600));
      (2, map2 (fun a s -> Write (a, s)) addr (string_size (int_bound 40)));
      (1, map2 (fun p c -> Set_page (p, c)) pfn printable);
      (1, map (fun p -> Drop_page p) pfn);
      (1, map (fun p -> Page_content p) pfn);
      (1, return Clear_dirty);
    ]

(* One op's observable result, on either implementation. *)
module Apply (M : sig
  type t

  val read : t -> int -> int -> bytes
  val write : t -> int -> bytes -> unit
  val read_u8 : t -> int -> int
  val write_u8 : t -> int -> int -> unit
  val read_u16 : t -> int -> int
  val write_u16 : t -> int -> int -> unit
  val read_i32 : t -> int -> int
  val write_i32 : t -> int -> int -> unit
  val read_i64 : t -> int -> int
  val write_i64 : t -> int -> int -> unit
  val set_page : t -> int -> bytes -> unit
  val drop_page : t -> int -> unit
  val page_content : t -> int -> bytes option
  val clear_dirty : t -> unit
end) =
struct
  let op m = function
    | Read_n (1, a) -> string_of_int (M.read_u8 m a)
    | Read_n (2, a) -> string_of_int (M.read_u16 m a)
    | Read_n (4, a) -> string_of_int (M.read_i32 m a)
    | Read_n (_, a) -> string_of_int (M.read_i64 m a)
    | Write_n (1, a, v) -> M.write_u8 m a v; ""
    | Write_n (2, a, v) -> M.write_u16 m a v; ""
    | Write_n (4, a, v) -> M.write_i32 m a v; ""
    | Write_n (_, a, v) -> M.write_i64 m a v; ""
    | Read (a, n) -> Bytes.to_string (M.read m a n)
    | Write (a, s) -> M.write m a (Bytes.of_string s); ""
    | Set_page (p, c) -> M.set_page m p (Bytes.make Page.size c); ""
    | Drop_page p -> M.drop_page m p; ""
    | Page_content p -> Option.fold ~none:"-" ~some:Bytes.to_string (M.page_content m p)
    | Clear_dirty -> M.clear_dirty m; ""
end

module Apply_mem = Apply (Memory)
module Apply_ref = Apply (Ref_mem)

(* domain-safe: qcheck property closure, run on a single domain *)
let prop_memory_matches_reference =
  QCheck.Test.make ~name:"page table == Hashtbl reference" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 80) mem_op_gen))
    (fun ops ->
      let m = Memory.create ~num_pages:ref_pages in
      let r = Ref_mem.create ~num_pages:ref_pages in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Memory.Fault { addr; size } -> Error (addr, size)
        | exception Ref_mem.Fault { addr; size } -> Error (addr, size)
      in
      let sorted pages =
        List.sort compare (List.of_seq (Seq.map (fun (p, c) -> (p, Bytes.to_string c)) pages))
      in
      List.for_all
        (fun op -> outcome (fun () -> Apply_mem.op m op) = outcome (fun () -> Apply_ref.op r op))
        ops
      && Bytes.equal
           (Memory.read m 0 (ref_pages * Page.size))
           (Ref_mem.read r 0 (ref_pages * Page.size))
      && List.for_all
           (fun p -> Memory.page_content m p = Ref_mem.page_content r p)
           (List.init ref_pages Fun.id)
      && sorted (Memory.materialized m) = sorted (Ref_mem.materialized r)
      && Memory.materialized_count m = Ref_mem.materialized_count r
      && Dirty_log.to_list (Memory.dirty m) = Dirty_log.to_list (Ref_mem.dirty r))

let test_memory_engine_pfns_checked () =
  let m = mk_mem () in
  let rejects fn pfn call =
    Alcotest.check_raises fn
      (Invalid_argument (Printf.sprintf "Memory.%s: pfn %d out of range" fn pfn))
      call
  in
  List.iter
    (fun pfn ->
      rejects "set_page" pfn (fun () -> Memory.set_page m pfn (Page.zero ()));
      rejects "drop_page" pfn (fun () -> Memory.drop_page m pfn);
      rejects "page_content" pfn (fun () -> ignore (Memory.page_content m pfn)))
    [ -1; 64; max_int ];
  check_int "nothing materialized" 0 (Memory.materialized_count m)

let test_memory_snapshot_interface () =
  let m = mk_mem () in
  Memory.write m 0 (b "xyz");
  Memory.clear_dirty m;
  (match Memory.page_content m 0 with
  | Some p -> check_bytes "content" "xyz" (Bytes.to_string (Bytes.sub p 0 3))
  | None -> Alcotest.fail "expected materialized page");
  Alcotest.(check bool) "unmaterialized" true (Memory.page_content m 5 = None);
  let fresh = Page.zero () in
  Bytes.blit_string "new" 0 fresh 0 3;
  Memory.set_page m 0 fresh;
  check_bytes "set_page applied" "new" (Bytes.to_string (Memory.read m 0 3));
  check_int "set_page not dirty" 0 (Dirty_log.count (Memory.dirty m));
  Memory.drop_page m 0;
  check_bytes "dropped reads zero" "\000\000\000" (Bytes.to_string (Memory.read m 0 3))

(* Guest heap *)

let mk_heap () =
  let clock = Nyx_sim.Clock.create () in
  let m = Memory.create ~num_pages:64 in
  (Guest_heap.init m clock, clock)

let test_heap_alloc_distinct () =
  let h, _ = mk_heap () in
  let a = Guest_heap.alloc h 32 in
  let b2 = Guest_heap.alloc h 32 in
  Alcotest.(check bool) "regions disjoint" true (b2 >= a + 32);
  check_int "size recorded" 32 (Guest_heap.size_of h a)

let test_heap_accessors () =
  let h, _ = mk_heap () in
  let a = Guest_heap.alloc h 64 in
  Guest_heap.set_i32 h a 42;
  check_int "i32" 42 (Guest_heap.get_i32 h a);
  Guest_heap.set_bytes h (a + 8) (b "data");
  check_bytes "bytes" "data" (Bytes.to_string (Guest_heap.get_bytes h (a + 8) 4))

let test_heap_charges_clock () =
  let h, clock = mk_heap () in
  let t0 = Nyx_sim.Clock.now_ns clock in
  let a = Guest_heap.alloc h 16 in
  Guest_heap.set_i64 h a 7;
  Alcotest.(check bool) "cost charged" true (Nyx_sim.Clock.now_ns clock > t0)

let test_heap_oob_checked () =
  let h, _ = mk_heap () in
  let base = Guest_heap.alloc h 16 in
  ignore (Guest_heap.checked_get h ~base ~off:0 ~len:16);
  Alcotest.check_raises "asan catches overflow"
    (Guest_heap.Heap_oob { base; off = 10; len = 8 }) (fun () ->
      ignore (Guest_heap.checked_get h ~base ~off:10 ~len:8));
  Alcotest.check_raises "asan catches write overflow"
    (Guest_heap.Heap_oob { base; off = 15; len = 2 }) (fun () ->
      Guest_heap.checked_set h ~base ~off:15 (b "ab"))

let test_heap_oom () =
  let clock = Nyx_sim.Clock.create () in
  let m = Memory.create ~num_pages:1 in
  let h = Guest_heap.init m clock in
  Alcotest.check_raises "oom" Guest_heap.Out_of_memory (fun () ->
      ignore (Guest_heap.alloc h (2 * Page.size)))

let test_heap_brk_in_memory () =
  (* The break pointer itself must live in guest memory so snapshots roll
     allocations back. *)
  let h, _ = mk_heap () in
  let before = Memory.read_i64 (Guest_heap.memory h) 0 in
  ignore (Guest_heap.alloc h 100);
  let after = Memory.read_i64 (Guest_heap.memory h) 0 in
  Alcotest.(check bool) "brk advanced in guest memory" true (after > before)

(* Device state *)

let test_device_rw () =
  let d = Device_state.create ~size:128 in
  Device_state.write d 10 (b "dev");
  check_bytes "read" "dev" (Bytes.to_string (Device_state.read d 10 3));
  Alcotest.check_raises "oob" (Invalid_argument "Device_state.write: out of range")
    (fun () -> Device_state.write d 126 (b "xyz"))

let test_device_restore_costs () =
  let d = Device_state.create ~size:64 in
  let saved = Device_state.capture d in
  Device_state.write d 0 (b "scribble");
  let c = Nyx_sim.Clock.create () in
  Device_state.restore_fast d c saved;
  check_int "fast reset cost" Nyx_sim.Cost.device_fast_reset (Nyx_sim.Clock.now_ns c);
  check_bytes "restored" "\000\000\000" (Bytes.to_string (Device_state.read d 0 3));
  Device_state.write d 0 (b "again");
  let c2 = Nyx_sim.Clock.create () in
  Device_state.restore_serialized d c2 saved;
  check_int "serialized reset cost" Nyx_sim.Cost.device_serialize_reset
    (Nyx_sim.Clock.now_ns c2)

(* Disk *)

let mk_disk () =
  let clock = Nyx_sim.Clock.create () in
  (Disk.create ~sector_size:8 ~sectors:16 clock, clock)

let sector s = Bytes.of_string s

let test_disk_base_and_overlay () =
  let d, _ = mk_disk () in
  Disk.write_base d 0 (sector "base0000");
  check_bytes "base read" "base0000" (Bytes.to_string (Disk.read_sector d 0));
  Disk.write_sector d 0 (sector "over0000");
  check_bytes "overlay wins" "over0000" (Bytes.to_string (Disk.read_sector d 0));
  check_int "dirty sectors" 1 (Disk.dirty_sectors d);
  Disk.discard_overlays d;
  check_bytes "root restore" "base0000" (Bytes.to_string (Disk.read_sector d 0))

let test_disk_incremental_layers () =
  let d, _ = mk_disk () in
  Disk.write_base d 1 (sector "basebase");
  Disk.write_sector d 1 (sector "prefix00");
  Disk.freeze_incremental d;
  check_int "fresh overlay" 0 (Disk.dirty_sectors d);
  Disk.write_sector d 1 (sector "suffix00");
  check_bytes "suffix visible" "suffix00" (Bytes.to_string (Disk.read_sector d 1));
  Disk.reset_to_incremental d;
  check_bytes "incremental layer" "prefix00" (Bytes.to_string (Disk.read_sector d 1));
  Disk.drop_incremental d;
  check_bytes "back to base" "basebase" (Bytes.to_string (Disk.read_sector d 1))

let test_disk_double_freeze_merges () =
  let d, _ = mk_disk () in
  Disk.write_sector d 2 (sector "first000");
  Disk.freeze_incremental d;
  Disk.write_sector d 3 (sector "second00");
  Disk.freeze_incremental d;
  Disk.reset_to_incremental d;
  check_bytes "older layer kept" "first000" (Bytes.to_string (Disk.read_sector d 2));
  check_bytes "newer merged" "second00" (Bytes.to_string (Disk.read_sector d 3))

let test_disk_charges () =
  let d, clock = mk_disk () in
  let t0 = Nyx_sim.Clock.now_ns clock in
  ignore (Disk.read_sector d 0);
  Disk.write_sector d 0 (sector "xxxxxxxx");
  check_int "two sector ops" (2 * Nyx_sim.Cost.disk_sector_op)
    (Nyx_sim.Clock.now_ns clock - t0)

(* Vm aggregate *)

let test_vm_create () =
  let clock = Nyx_sim.Clock.create () in
  let vm = Vm.create clock in
  (* Boot initializes the heap break pointer: exactly one dirty page. *)
  check_int "only the brk page dirty at boot" 1 (Vm.dirty_pages vm);
  Memory.clear_dirty vm.Vm.mem;
  ignore (Guest_heap.alloc vm.Vm.heap 10);
  Alcotest.(check bool) "allocation dirties" true (Vm.dirty_pages vm > 0)

let test_vm_configs () =
  check_int "512MB-class page count" 131_072 Vm.small_config.Vm.mem_pages;
  check_int "4GB-class page count" 1_048_576 Vm.large_config.Vm.mem_pages

(* Properties *)

let prop_memory_write_read =
  QCheck.Test.make ~name:"memory write/read roundtrip" ~count:300
    QCheck.(pair (int_bound ((64 * 512) - 64)) (string_of_size Gen.(int_range 1 64)))
    (fun (addr, s) ->
      let m = Memory.create ~num_pages:64 in
      Memory.write m addr (Bytes.of_string s);
      Bytes.to_string (Memory.read m addr (String.length s)) = s)

let prop_dirty_tracks_written_pages =
  QCheck.Test.make ~name:"dirty set = touched pages" ~count:200
    QCheck.(small_list (pair (int_bound ((32 * 512) - 16)) (string_of_size Gen.(int_range 1 16))))
    (fun writes ->
      let m = Memory.create ~num_pages:32 in
      List.iter (fun (addr, s) -> Memory.write m addr (Bytes.of_string s)) writes;
      let expected =
        List.concat_map
          (fun (addr, s) ->
            let first = Page.number addr
            and last = Page.number (addr + String.length s - 1) in
            List.init (last - first + 1) (fun i -> first + i))
          writes
        |> List.sort_uniq compare
      in
      List.sort compare (Dirty_log.to_list (Memory.dirty m)) = expected)

let prop_heap_allocations_disjoint =
  QCheck.Test.make ~name:"heap allocations never overlap" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 1 100))
    (fun sizes ->
      let clock = Nyx_sim.Clock.create () in
      let m = Memory.create ~num_pages:1024 in
      let h = Guest_heap.init m clock in
      let regions = List.map (fun n -> (Guest_heap.alloc h n, n)) sizes in
      let rec disjoint = function
        | [] -> true
        | (a, n) :: rest ->
          List.for_all (fun (a', n') -> a + n <= a' || a' + n' <= a) rest
          && disjoint rest
      in
      disjoint regions)

let () =
  Alcotest.run "nyx_vm"
    [
      ("page", [ Alcotest.test_case "geometry" `Quick test_page_geometry ]);
      ( "dirty_log",
        [
          Alcotest.test_case "mark once" `Quick test_dirty_mark_once;
          Alcotest.test_case "iter agree" `Quick test_dirty_iter_agree;
          Alcotest.test_case "costs" `Quick test_dirty_costs;
          Alcotest.test_case "clear" `Quick test_dirty_clear;
          Alcotest.test_case "stack growth" `Quick test_dirty_stack_growth;
        ] );
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_memory_rw_roundtrip;
          Alcotest.test_case "zero default" `Quick test_memory_zero_default;
          Alcotest.test_case "cross page" `Quick test_memory_cross_page;
          Alcotest.test_case "fault" `Quick test_memory_fault;
          Alcotest.test_case "fixed-width ints" `Quick test_memory_ints;
          Alcotest.test_case "ints across pages" `Quick test_memory_ints_cross_page;
          Alcotest.test_case "scalar fast path" `Quick test_memory_scalar_fast_path;
          Alcotest.test_case "snapshot interface" `Quick test_memory_snapshot_interface;
          Alcotest.test_case "engine pfns checked" `Quick test_memory_engine_pfns_checked;
          QCheck_alcotest.to_alcotest prop_memory_matches_reference;
          QCheck_alcotest.to_alcotest prop_memory_write_read;
          QCheck_alcotest.to_alcotest prop_i32_fast_slow_agree;
          QCheck_alcotest.to_alcotest prop_dirty_tracks_written_pages;
        ] );
      ( "guest_heap",
        [
          Alcotest.test_case "alloc distinct" `Quick test_heap_alloc_distinct;
          Alcotest.test_case "accessors" `Quick test_heap_accessors;
          Alcotest.test_case "charges clock" `Quick test_heap_charges_clock;
          Alcotest.test_case "asan oob" `Quick test_heap_oob_checked;
          Alcotest.test_case "oom" `Quick test_heap_oom;
          Alcotest.test_case "brk in guest memory" `Quick test_heap_brk_in_memory;
          QCheck_alcotest.to_alcotest prop_heap_allocations_disjoint;
        ] );
      ( "device",
        [
          Alcotest.test_case "rw" `Quick test_device_rw;
          Alcotest.test_case "restore costs" `Quick test_device_restore_costs;
        ] );
      ( "disk",
        [
          Alcotest.test_case "base/overlay" `Quick test_disk_base_and_overlay;
          Alcotest.test_case "incremental layers" `Quick test_disk_incremental_layers;
          Alcotest.test_case "double freeze" `Quick test_disk_double_freeze_merges;
          Alcotest.test_case "charges" `Quick test_disk_charges;
        ] );
      ( "vm",
        [
          Alcotest.test_case "create" `Quick test_vm_create;
          Alcotest.test_case "configs" `Quick test_vm_configs;
        ] );
    ]
