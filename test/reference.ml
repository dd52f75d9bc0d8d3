(* Reference implementations of hot-path functions, kept to check their
   allocation-lean replacements in lib/ against; the hotpath bench times
   the coverage ones as its before gear. Each is the earlier
   straightforward version, unchanged apart from module paths and, where
   it reads private state, a checked view of the representation. The
   dense probe at the end is the oracle for [Executor.state_boundaries]. *)

open Nyx_spec

(* [Program.repair] over lists: O(n²) filters and appends, then a full
   [Program.validate] whose only possible failure is a second snapshot. *)
let repair ?rng (t : Program.t) =
  let open Spec in
  let available = ref [] (* (value index, edge_ty), newest first, unconsumed *) in
  let n_values = ref 0 in
  let out = ref [] in
  let pick ty =
    let candidates = List.filter (fun (_, et) -> et.et_id = ty.et_id) !available in
    match candidates with
    | [] -> None
    | first :: _ -> (
      match rng with
      | None -> Some (fst first)
      | Some rng -> Some (fst (Nyx_sim.Rng.choose_list rng candidates)))
  in
  Array.iter
    (fun (op : Program.op) ->
      match Spec.node t.spec op.node with
      | exception Invalid_argument _ -> ()
      | nt ->
        let inputs = nt.borrows @ nt.consumes in
        let n_borrows = List.length nt.borrows in
        let chosen = ref [] in
        let consumed_here = ref [] in
        let ok =
          List.for_all
            (fun (i, expected) ->
              let is_consume = i >= n_borrows in
              let usable v =
                List.exists (fun (v', et) -> v' = v && et.et_id = expected.et_id) !available
                && not (List.mem v !consumed_here)
              in
              let current = if i < Array.length op.args then op.args.(i) else -1 in
              let binding =
                if usable current then Some current
                else
                  match pick expected with
                  | Some v when usable v -> Some v
                  | _ -> List.find_opt (fun (v, _) -> usable v) !available |> Option.map fst
              in
              match binding with
              | None -> false
              | Some v ->
                chosen := !chosen @ [ v ];
                if is_consume then consumed_here := v :: !consumed_here;
                true)
            (List.mapi (fun i e -> (i, e)) inputs)
        in
        if ok then begin
          let args = Array.of_list !chosen in
          List.iteri
            (fun i _ ->
              let v = args.(n_borrows + i) in
              available := List.filter (fun (v', _) -> v' <> v) !available)
            nt.consumes;
          let data =
            Array.of_list
              (List.mapi
                 (fun i dt ->
                   let d = if i < Array.length op.data then op.data.(i) else Bytes.empty in
                   if Bytes.length d > dt.max_len then Bytes.sub d 0 dt.max_len else d)
                 nt.data)
          in
          List.iter
            (fun ty ->
              available := (!n_values, ty) :: !available;
              incr n_values)
            nt.outputs;
          out := { Program.node = op.node; args; data } :: !out
        end)
    t.ops;
  let repaired = { t with ops = Array.of_list (List.rev !out) } in
  match Program.validate repaired with
  | Ok () -> repaired
  | Error _ ->
    let seen_snapshot = ref false in
    let ops =
      Array.of_seq
        (Seq.filter
           (fun (op : Program.op) ->
             if op.node = Spec.snapshot_node_id then
               if !seen_snapshot then false
               else begin
                 seen_snapshot := true;
                 true
               end
             else true)
           (Array.to_seq repaired.ops))
    in
    { repaired with ops }

(* [Nyx_vm.Memory] with its earlier page table, a [Hashtbl] from pfn to
   page. The scalar accessors' straddling path goes through [read]/
   [write] and allocates. [set_page]/[drop_page]/[page_content] take any
   pfn. *)
module Memory = struct
  open Nyx_vm

  type t = {
    pages : (int, Bytes.t) Hashtbl.t;
    num_pages : int;
    dirty : Dirty_log.t;
  }

  exception Fault of { addr : int; size : int }

  let create ~num_pages =
    { pages = Hashtbl.create 256; num_pages; dirty = Dirty_log.create ~num_pages }

  let num_pages t = t.num_pages
  let size_bytes t = t.num_pages * Page.size
  let dirty t = t.dirty

  let check t addr len =
    if addr < 0 || len < 0 || addr + len > size_bytes t then
      raise (Fault { addr; size = len })

  let materialize t pfn =
    match Hashtbl.find_opt t.pages pfn with
    | Some p -> p
    | None ->
      let p = Page.zero () in
      Hashtbl.replace t.pages pfn p;
      p

  let read t addr len =
    check t addr len;
    let out = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let a = addr + !pos in
      let pfn = Page.number a and off = Page.offset a in
      let chunk = min (len - !pos) (Page.size - off) in
      (match Hashtbl.find_opt t.pages pfn with
      | Some p -> Bytes.blit p off out !pos chunk
      | None -> Bytes.fill out !pos chunk '\000');
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
     on every emulated instruction, so accesses that stay inside one page
     take a non-allocating fast path (direct page lookup, little-endian
     Bytes accessors, one dirty mark). Only page-straddling accesses fall
     back to the generic multi-page read/write loop. *)

  let single_page addr len = Page.offset addr + len <= Page.size

  let read_u8 t addr =
    check t addr 1;
    match Hashtbl.find_opt t.pages (Page.number addr) with
    | Some p -> Char.code (Bytes.get p (Page.offset addr))
    | None -> 0

  let write_u8 t addr v =
    check t addr 1;
    let pfn = Page.number addr in
    let p = materialize t pfn in
    Bytes.set p (Page.offset addr) (Char.chr (v land 0xff));
    ignore (Dirty_log.mark t.dirty pfn)

  let read_u16 t addr =
    if single_page addr 2 then begin
      check t addr 2;
      match Hashtbl.find_opt t.pages (Page.number addr) with
      | Some p -> Bytes.get_uint16_le p (Page.offset addr)
      | None -> 0
    end
    else begin
      let b = read t addr 2 in
      Char.code (Bytes.get b 0) lor (Char.code (Bytes.get b 1) lsl 8)
    end

  let write_u16 t addr v =
    if single_page addr 2 then begin
      check t addr 2;
      let pfn = Page.number addr in
      let p = materialize t pfn in
      Bytes.set_uint16_le p (Page.offset addr) (v land 0xffff);
      ignore (Dirty_log.mark t.dirty pfn)
    end
    else begin
      let b = Bytes.create 2 in
      Bytes.set b 0 (Char.chr (v land 0xff));
      Bytes.set b 1 (Char.chr ((v lsr 8) land 0xff));
      write t addr b
    end

  let read_i32 t addr =
    if single_page addr 4 then begin
      check t addr 4;
      match Hashtbl.find_opt t.pages (Page.number addr) with
      | Some p -> Int32.to_int (Bytes.get_int32_le p (Page.offset addr))
      | None -> 0
    end
    else begin
      let b = read t addr 4 in
      let v = ref 0 in
      for i = 3 downto 0 do
        v := (!v lsl 8) lor Char.code (Bytes.get b i)
      done;
      (* Sign-extend from 32 bits. *)
      (!v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)
    end

  let write_i32 t addr v =
    if single_page addr 4 then begin
      check t addr 4;
      let pfn = Page.number addr in
      let p = materialize t pfn in
      Bytes.set_int32_le p (Page.offset addr) (Int32.of_int v);
      ignore (Dirty_log.mark t.dirty pfn)
    end
    else begin
      let b = Bytes.create 4 in
      for i = 0 to 3 do
        Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xff))
      done;
      write t addr b
    end

  let read_i64 t addr =
    if single_page addr 8 then begin
      check t addr 8;
      match Hashtbl.find_opt t.pages (Page.number addr) with
      | Some p -> Int64.to_int (Bytes.get_int64_le p (Page.offset addr))
      | None -> 0
    end
    else begin
      let b = read t addr 8 in
      let v = ref 0L in
      for i = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b i)))
      done;
      Int64.to_int !v
    end

  let write_i64 t addr v =
    if single_page addr 8 then begin
      check t addr 8;
      let pfn = Page.number addr in
      let p = materialize t pfn in
      Bytes.set_int64_le p (Page.offset addr) (Int64.of_int v);
      ignore (Dirty_log.mark t.dirty pfn)
    end
    else begin
      let b = Bytes.create 8 in
      let v64 = Int64.of_int v in
      for i = 0 to 7 do
        let byte =
          Int64.to_int (Int64.logand (Int64.shift_right_logical v64 (8 * i)) 0xFFL)
        in
        Bytes.set b i (Char.chr byte)
      done;
      write t addr b
    end

  let clear_dirty t = Dirty_log.clear t.dirty

  let page_content t pfn =
    match Hashtbl.find_opt t.pages pfn with
    | Some p -> Some (Bytes.copy p)
    | None -> None

  let set_page t pfn content =
    if Bytes.length content <> Page.size then
      invalid_arg "Memory.set_page: wrong page size";
    match Hashtbl.find_opt t.pages pfn with
    | Some p -> Bytes.blit content 0 p 0 Page.size
    | None -> Hashtbl.replace t.pages pfn (Bytes.copy content)

  let drop_page t pfn = Hashtbl.remove t.pages pfn

  let materialized t =
    Hashtbl.to_seq t.pages

  let materialized_count t = Hashtbl.length t.pages
end

(* A mirror of [Nyx_netemu.Net]'s private representation, field for
   field, so the reference [poll] and [responses] below can work on the
   socket and fd tables. [mirror_ok] cross-checks the mirror against
   Net's public counters; a layout drift fails it before any comparison. *)
module Net_mirror = struct
  open Nyx_netemu

  type sock = {
    sid : int;
    proto : Net.proto;
    mutable port : int;
    mutable listening : bool;
    mutable backlog : int list;
    mutable inbox : (int * Bytes.t) list;
    mutable partial : (int * Bytes.t) option;
    mutable out_rev : (int * Bytes.t) list;
    mutable peer_open : bool;
    mutable eof_pending : bool;
    mutable refcount : int;
    mutable conn_flow : int;
    mutable reply_flow : int;
    mutable write_shut : bool;
    mutable options : (string * int) list;
    mutable outbound : bool;
  }

  type state = {
    socks : (int, sock) Hashtbl.t;
    fds : (int, int * int) Hashtbl.t;
    flows : (int, int) Hashtbl.t;
    listeners : (int, int) Hashtbl.t;
    mutable next_fd : int;
    mutable next_sid : int;
    mutable next_flow : int;
    mutable processes : int;
    mutable syscalls : int;
  }

  type t = {
    mutable st : state;
    clock : Nyx_sim.Clock.t;
    backend : Net.backend;
    boundaries : bool;
  }

  let view (net : Net.t) : t = Obj.magic net

  (* Besides the counters, every socket must be a record of [sock]'s 16
     fields filed under its own id, so a change to Net's [sock] layout
     fails here rather than misreading fields. *)
  let mirror_ok net =
    let m = view net in
    Obj.size (Obj.repr m) = 4
    && Obj.size (Obj.repr m.st) = 9
    && Hashtbl.length m.st.socks = Net.open_socket_count net
    && m.st.syscalls = Net.syscall_count net
    && m.backend = Net.backend net
    && Hashtbl.fold
         (fun sid s ok -> ok && Obj.size (Obj.repr s) = 16 && s.sid = sid)
         m.st.socks true

  let fds_of_sid st sid =
    Hashtbl.fold (fun fd (s, _) acc -> if s = sid then fd :: acc else acc) st.fds []
    |> List.sort compare

  (* [Net.poll]'s answer, without its syscall charge: every ready socket
     with a descriptor as (sid, lowest fd, event), sorted. *)
  let poll net =
    let st = (view net).st in
    let ready =
      Hashtbl.fold
        (fun sid s acc ->
          let event =
            if s.listening && s.proto <> Net.Udp && s.backlog <> [] then Some `Accept
            else if s.inbox <> [] || s.partial <> None || s.eof_pending then Some `Read
            else None
          in
          match event with
          | None -> acc
          | Some ev -> (
            match fds_of_sid st sid with [] -> acc | fd :: _ -> (sid, fd, ev) :: acc))
        st.socks []
    in
    match List.sort compare ready with
    | [] -> None
    | (_, fd, `Accept) :: _ -> Some (`Accept fd)
    | (_, fd, `Read) :: _ -> Some (`Read fd)

  (* [Net.responses]: partition the whole queue on every call. *)
  let responses net fl =
    let st = (view net).st in
    let collect s =
      let mine, rest = List.partition (fun (f, _) -> f = fl) (List.rev s.out_rev) in
      s.out_rev <- List.rev rest;
      List.map snd mine
    in
    match Hashtbl.find_opt st.flows fl with
    | Some sid when Hashtbl.mem st.socks sid -> collect (Hashtbl.find st.socks sid)
    | _ -> Hashtbl.fold (fun _ s acc -> acc @ collect s) st.socks []

  (* The kernel image snapshots capture. *)
  let image net = Marshal.to_bytes (view net).st []
end

(* [Nyx_targets.Coverage]'s full-scan paths from before the hit journal,
   over a mirror of its private representation: each [view] checks the
   record shape before any field is read, so a layout drift fails loudly
   rather than misreading. *)
module Coverage = struct
  open Nyx_targets.Coverage

  (* [c]'s private record, once its shape — [size] fields, bytes first —
     is checked. *)
  let checked_view ~size what c =
    let r = Obj.repr c in
    if Obj.size r <> size || Obj.tag (Obj.field r 0) <> Obj.string_tag then
      failwith ("Reference.Coverage: " ^ what ^ " layout changed");
    Obj.magic c

  type t = {
    map : Bytes.t;
    mutable prev : int;
    journal : int array;
    mutable live : int;
  }

  let view (c : Nyx_targets.Coverage.t) : t = checked_view ~size:4 "Coverage.t" c

  (* Clears every cell whether journaled or not. *)
  let reset_slow c =
    let t = view c in
    Bytes.fill t.map 0 map_size '\000';
    t.live <- 0;
    t.prev <- 0

  let edge_count_slow c =
    let t = view c in
    let n = ref 0 in
    for i = 0 to map_size - 1 do
      if Bytes.get t.map i <> '\000' then incr n
    done;
    !n

  module Cumulative = struct
    type t = {
      virgin : Bytes.t;
      mutable edges : int;
    }

    let view (c : Nyx_targets.Coverage.Cumulative.t) : t =
      checked_view ~size:2 "Coverage.Cumulative.t" c

    (* Full scan via [iter_hits]. *)
    let merge_slow c cov =
      let t = view c in
      let novel = ref false in
      iter_hits cov (fun i b ->
          let seen = Char.code (Bytes.get t.virgin i) in
          if seen lor b <> seen then begin
            novel := true;
            if seen = 0 then t.edges <- t.edges + 1;
            Bytes.set t.virgin i (Char.chr (seen lor b))
          end);
      !novel
  end
end

(* The dense state-boundary probe: the protocol-state hash at the root
   and after every op, the last included, each taken after replaying
   that prefix from the root with [Executor.run_full]. A change at an
   interior index is a boundary; a prefix that does not pass ends the
   probe. Returns the boundaries, the hashes taken and whether a prefix
   crashed. *)
let state_boundaries exec program =
  let open Nyx_core in
  let p = Program.strip_snapshots program in
  let n = Array.length p.Program.ops in
  let hashes = ref 0 in
  let state_after i =
    let prefix = { p with Program.ops = Array.sub p.Program.ops 0 i } in
    match (Executor.run_full exec prefix).Report.status with
    | Report.Pass ->
      incr hashes;
      Some (Executor.state_hash exec)
    | Report.Hang | Report.Crash _ -> None
  in
  let rec probe i prev acc =
    if i > n then (acc, false)
    else
      match state_after i with
      | None -> (acc, true)
      | Some cur -> probe (i + 1) cur (if cur <> prev && i < n then i :: acc else acc)
  in
  let boundaries, crashed = probe 1 (Option.get (state_after 0)) [] in
  (List.rev boundaries, !hashes, crashed)
