(* Two-level page table indexed by pfn: [dir.(pfn lsr leaf_bits)] is a
   leaf of [leaf_pages] page slots, or the shared empty array until the
   first page in its range materializes. An absent page is the [absent]
   sentinel, compared physically. A lookup is two array loads with no
   hashing and no allocation, and resident memory grows with the leaves
   in use: 4 KiB of directory for the 32,768-page fuzzing VM. *)

let leaf_bits = 6
let leaf_pages = 1 lsl leaf_bits
let leaf_mask = leaf_pages - 1

let absent = Bytes.empty

type t = {
  dir : Bytes.t array array;
  mutable leaves : int list; (* directory indices of allocated leaves *)
  mutable count : int;
  num_pages : int;
  dirty : Dirty_log.t;
}

exception Fault of { addr : int; size : int }

let create ~num_pages =
  {
    dir = Array.make ((num_pages + leaf_mask) lsr leaf_bits) [||];
    leaves = [];
    count = 0;
    num_pages;
    dirty = Dirty_log.create ~num_pages;
  }

let num_pages t = t.num_pages
let size_bytes t = t.num_pages * Page.size
let dirty t = t.dirty

let check t addr len =
  if addr < 0 || len < 0 || addr + len > size_bytes t then
    raise (Fault { addr; size = len })

(* [pfn] is in range: every caller checked its address or pfn first. *)
let find t pfn =
  let leaf = Array.unsafe_get t.dir (pfn lsr leaf_bits) in
  if Array.length leaf = 0 then absent else Array.unsafe_get leaf (pfn land leaf_mask)

let store t pfn p =
  let i = pfn lsr leaf_bits in
  let leaf =
    let leaf = Array.unsafe_get t.dir i in
    if Array.length leaf > 0 then leaf
    else begin
      let leaf = Array.make leaf_pages absent in
      t.dir.(i) <- leaf;
      t.leaves <- i :: t.leaves;
      leaf
    end
  in
  let slot = pfn land leaf_mask in
  if leaf.(slot) == absent then t.count <- t.count + 1;
  leaf.(slot) <- p

let materialize t pfn =
  let p = find t pfn in
  if p != absent then p
  else begin
    let p = Page.zero () in
    store t pfn p;
    p
  end

let read t addr len =
  check t addr len;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pfn = Page.number a and off = Page.offset a in
    let chunk = min (len - !pos) (Page.size - off) in
    let p = find t pfn in
    if p == absent then Bytes.fill out !pos chunk '\000'
    else Bytes.blit p off out !pos chunk;
    pos := !pos + chunk
  done;
  out

let write t addr data =
  let len = Bytes.length data in
  check t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pfn = Page.number a and off = Page.offset a in
    let chunk = min (len - !pos) (Page.size - off) in
    let p = materialize t pfn in
    Bytes.blit data !pos p off chunk;
    ignore (Dirty_log.mark t.dirty pfn);
    pos := !pos + chunk
  done

(* Scalar accessors: the interpreter, guest heap and targets hammer these
   on every emulated instruction. An access inside one page is a page
   lookup, one little-endian Bytes access and (for writes) one dirty mark.
   A page-straddling access goes byte by byte after one range check, which
   zero-fills and marks pages in the same order as {!read}/{!write}. None
   of them allocates. *)

let single_page addr len = Page.offset addr + len <= Page.size

let get_u8 t addr =
  let p = find t (Page.number addr) in
  if p == absent then 0 else Char.code (Bytes.unsafe_get p (Page.offset addr))

let set_u8 t addr v =
  let pfn = Page.number addr in
  let p = materialize t pfn in
  Bytes.unsafe_set p (Page.offset addr) (Char.unsafe_chr (v land 0xff));
  ignore (Dirty_log.mark t.dirty pfn)

(* Little-endian [len]-byte value at [addr], read byte by byte. *)
let get_le t addr len =
  let v = ref 0 in
  for i = len - 1 downto 0 do
    v := (!v lsl 8) lor get_u8 t (addr + i)
  done;
  !v

let set_le t addr len v =
  for i = 0 to len - 1 do
    set_u8 t (addr + i) (v asr (8 * i))
  done

let read_u8 t addr =
  check t addr 1;
  get_u8 t addr

let write_u8 t addr v =
  check t addr 1;
  set_u8 t addr v

let read_u16 t addr =
  check t addr 2;
  if single_page addr 2 then begin
    let p = find t (Page.number addr) in
    if p == absent then 0 else Bytes.get_uint16_le p (Page.offset addr)
  end
  else get_le t addr 2

let write_u16 t addr v =
  check t addr 2;
  if single_page addr 2 then begin
    let pfn = Page.number addr in
    Bytes.set_uint16_le (materialize t pfn) (Page.offset addr) (v land 0xffff);
    ignore (Dirty_log.mark t.dirty pfn)
  end
  else set_le t addr 2 v

(* Sign-extend from 32 bits. *)
let sext32 v = (v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)

let read_i32 t addr =
  check t addr 4;
  if single_page addr 4 then begin
    let p = find t (Page.number addr) in
    if p == absent then 0 else Int32.to_int (Bytes.get_int32_le p (Page.offset addr))
  end
  else sext32 (get_le t addr 4)

let write_i32 t addr v =
  check t addr 4;
  if single_page addr 4 then begin
    let pfn = Page.number addr in
    Bytes.set_int32_le (materialize t pfn) (Page.offset addr) (Int32.of_int v);
    ignore (Dirty_log.mark t.dirty pfn)
  end
  else set_le t addr 4 v

(* The 8 bytes hold OCaml's 63-bit int: the top bit of the last byte is
   dropped on read, as [Int64.to_int] does. *)
let read_i64 t addr =
  check t addr 8;
  if single_page addr 8 then begin
    let p = find t (Page.number addr) in
    if p == absent then 0 else Int64.to_int (Bytes.get_int64_le p (Page.offset addr))
  end
  else get_le t addr 8

let write_i64 t addr v =
  check t addr 8;
  if single_page addr 8 then begin
    let pfn = Page.number addr in
    Bytes.set_int64_le (materialize t pfn) (Page.offset addr) (Int64.of_int v);
    ignore (Dirty_log.mark t.dirty pfn)
  end
  else set_le t addr 8 v

let clear_dirty t = Dirty_log.clear t.dirty

let check_pfn t fn pfn =
  if pfn < 0 || pfn >= t.num_pages then
    invalid_arg (Printf.sprintf "Memory.%s: pfn %d out of range" fn pfn)

let page_content t pfn =
  check_pfn t "page_content" pfn;
  let p = find t pfn in
  if p == absent then None else Some (Bytes.copy p)

let set_page t pfn content =
  check_pfn t "set_page" pfn;
  if Bytes.length content <> Page.size then
    invalid_arg "Memory.set_page: wrong page size";
  let p = find t pfn in
  if p == absent then store t pfn (Bytes.copy content) else Bytes.blit content 0 p 0 Page.size

let drop_page t pfn =
  check_pfn t "drop_page" pfn;
  let leaf = t.dir.(pfn lsr leaf_bits) in
  if Array.length leaf > 0 && leaf.(pfn land leaf_mask) != absent then begin
    leaf.(pfn land leaf_mask) <- absent;
    t.count <- t.count - 1
  end

let materialized t =
  let rec from leaves slot () =
    match leaves with
    | [] -> Seq.Nil
    | i :: rest ->
      if slot = leaf_pages then from rest 0 ()
      else
        let p = t.dir.(i).(slot) in
        if p == absent then from leaves (slot + 1) ()
        else Seq.Cons (((i lsl leaf_bits) + slot, p), from leaves (slot + 1))
  in
  from t.leaves 0

let materialized_count t = t.count
