(* Reference implementations of hot-path functions, kept to check their
   allocation-lean replacements in lib/ against; the hotpath bench times
   the coverage ones as its before gear. Each is the earlier
   straightforward version, unchanged apart from module paths and, where
   it reads private state, a checked view of the representation. The
   dense probe is the oracle for [Executor.state_boundaries]. *)

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
     fails here rather than misreading fields. [Net.t] has two fields
     past the four mirrored here: its fd and flow index, which the
     mirror never reads. *)
  let mirror_ok net =
    let m = view net in
    Obj.size (Obj.repr m) = 6
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

  (* [Net.responses] on a state: partition the whole queue on every
     call. *)
  let drain st fl =
    let collect s =
      let mine, rest = List.partition (fun (f, _) -> f = fl) (List.rev s.out_rev) in
      s.out_rev <- List.rev rest;
      List.map snd mine
    in
    match Hashtbl.find_opt st.flows fl with
    | Some sid when Hashtbl.mem st.socks sid -> collect (Hashtbl.find st.socks sid)
    | _ -> Hashtbl.fold (fun _ s acc -> acc @ collect s) st.socks []

  let responses net fl = drain (view net).st fl

  (* The kernel image snapshots capture. *)
  let image net = Marshal.to_bytes (view net).st []

  (* An independent copy of the kernel state. *)
  let copy_state net : state = Marshal.from_bytes (image net) 0
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

(* [Nyx_analysis.Verifier.check] before the single lazy walk: every
   diagnostic formatted, one [absval] record per value.

   Abstract value: everything the lattice needs about one produced value.
   A value starts Available when its producer op executes and moves to
   Consumed at most once; [uses]/[consumed_at] record the provenance chain
   reported with affine violations and dead-value warnings. *)
module Verifier = struct
  module Diag = Nyx_analysis.Diag

  type absval = {
    ty : Spec.edge_ty;
    producer : int; (* op index that output this value *)
    mutable uses : int list; (* op indices that borrowed it, newest first *)
    mutable consumed_at : int option;
  }

  let op_site i = Printf.sprintf "op %d" i

  let hotspot_min_bound = Nyx_analysis.Verifier.hotspot_min_bound

  let check (p : Program.t) : Diag.t list =
    let diags = ref [] in
    let emit d = diags := d :: !diags in
    let values : absval array = Array.make 16 { ty = { Spec.et_id = -1; et_name = "" }; producer = -1; uses = []; consumed_at = None } in
    let values = ref values in
    let n_values = ref 0 in
    let push v =
      if !n_values >= Array.length !values then begin
        let bigger = Array.make (2 * Array.length !values) v in
        Array.blit !values 0 bigger 0 !n_values;
        values := bigger
      end;
      !values.(!n_values) <- v;
      incr n_values
    in
    let snapshot_seen = ref false in
    let n_ops = Array.length p.Program.ops in
    Array.iteri
      (fun opi (op : Program.op) ->
        match Spec.node p.Program.spec op.Program.node with
        | exception Invalid_argument _ ->
          emit
            (Diag.error ~code:"unknown-opcode" ~site:(op_site opi)
               (Printf.sprintf "node type %d is not declared by spec %S" op.Program.node
                  (Spec.name p.Program.spec)))
        | nt ->
          let name = nt.Spec.nt_name in
          if nt.Spec.nt_id = Spec.snapshot_node_id then begin
            if !snapshot_seen then
              emit
                (Diag.error ~code:"multiple-snapshots" ~site:(op_site opi)
                   "second snapshot opcode: at most one incremental snapshot per program");
            snapshot_seen := true;
            if Array.length op.Program.args <> 0 || Array.length op.Program.data <> 0 then
              emit
                (Diag.error ~code:"snapshot-carries-payload" ~site:(op_site opi)
                   "the snapshot opcode takes no arguments and carries no data");
            (* Degenerate placements: an incremental snapshot of an empty
               prefix restores nothing the root snapshot does not already
               give us; a snapshot with an empty suffix never serves a
               single mutated run (cf. §4.3). *)
            if opi = 0 then
              emit
                (Diag.warning ~code:"leading-snapshot" ~site:(op_site opi)
                   "snapshot before any interaction: the incremental snapshot \
                    duplicates the root snapshot");
            if opi = n_ops - 1 then
              emit
                (Diag.warning ~code:"trailing-snapshot" ~site:(op_site opi)
                   "snapshot after the last interaction: no suffix is ever fuzzed \
                    from it")
          end
          else begin
            let inputs = nt.Spec.borrows @ nt.Spec.consumes in
            let n_inputs = List.length inputs in
            let n_borrows = List.length nt.Spec.borrows in
            if Array.length op.Program.args <> n_inputs then
              emit
                (Diag.error ~code:"bad-arity" ~site:(op_site opi)
                   (Printf.sprintf "%s expects %d argument(s), got %d" name n_inputs
                      (Array.length op.Program.args)));
            (* Check the slots both sides agree on, so arity errors do not
               suppress independent findings. *)
            List.iteri
              (fun i expected ->
                if i < Array.length op.Program.args then begin
                  let idx = op.Program.args.(i) in
                  if idx < 0 || idx >= !n_values then
                    emit
                      (Diag.error ~code:"dangling-arg" ~site:(op_site opi)
                         (Printf.sprintf
                            "%s argument %d references value %d, but only values \
                             0..%d exist here"
                            name i idx (!n_values - 1)))
                  else begin
                    let v = !values.(idx) in
                    (match v.consumed_at with
                    | Some at ->
                      emit
                        (Diag.error ~code:"affine-use-after-consume" ~site:(op_site opi)
                           (Printf.sprintf
                              "%s argument %d uses value %d (%s) after it was \
                               consumed: produced at op %d, consumed at op %d"
                              name i idx v.ty.Spec.et_name v.producer at))
                    | None -> ());
                    if v.ty.Spec.et_id <> expected.Spec.et_id then
                      emit
                        (Diag.error ~code:"type-mismatch" ~site:(op_site opi)
                           (Printf.sprintf
                              "%s argument %d has type %s (value %d, produced at op \
                               %d), expected %s"
                              name i v.ty.Spec.et_name idx v.producer
                              expected.Spec.et_name));
                    if i >= n_borrows then begin
                      (* A consume slot takes the value out of the available
                         set — even when its type was wrong, mirroring
                         [Program.validate]'s single-pass semantics. *)
                      if v.consumed_at = None then v.consumed_at <- Some opi
                    end
                    else v.uses <- opi :: v.uses
                  end
                end)
              inputs;
            (* Data fields. *)
            let n_data = List.length nt.Spec.data in
            if Array.length op.Program.data <> n_data then
              emit
                (Diag.error ~code:"bad-data-arity" ~site:(op_site opi)
                   (Printf.sprintf "%s expects %d data field(s), got %d" name n_data
                      (Array.length op.Program.data)));
            List.iteri
              (fun i (dt : Spec.data_ty) ->
                if i < Array.length op.Program.data then begin
                  let len = Bytes.length op.Program.data.(i) in
                  if len > dt.Spec.max_len then
                    emit
                      (Diag.error ~code:"data-too-long" ~site:(op_site opi)
                         (Printf.sprintf "%s data field %d (%s) is %d bytes, bound is %d"
                            name i dt.Spec.dt_name len dt.Spec.max_len))
                  else if len = dt.Spec.max_len && dt.Spec.max_len >= hotspot_min_bound
                  then
                    emit
                      (Diag.warning ~code:"data-at-bound" ~site:(op_site opi)
                         (Printf.sprintf
                            "%s data field %d (%s) saturates its %d-byte bound: \
                             mutations cannot grow it"
                            name i dt.Spec.dt_name dt.Spec.max_len))
                end)
              nt.Spec.data;
            (* No-op interaction: carries data fields, all empty, and neither
               produces nor consumes values — executing it cannot change the
               target-visible state (an empty packet is never delivered). *)
            if
              n_data > 0
              && Array.for_all (fun d -> Bytes.length d = 0) op.Program.data
              && nt.Spec.outputs = [] && nt.Spec.consumes = []
            then
              emit
                (Diag.warning ~code:"noop-interaction" ~site:(op_site opi)
                   (Printf.sprintf "%s with every data field empty has no effect" name));
            List.iter
              (fun ty -> push { ty; producer = opi; uses = []; consumed_at = None })
              nt.Spec.outputs
          end)
      p.Program.ops;
    (* Dead values: produced but never borrowed or consumed. The op that
       produced them still ran for a reason (side effects), but the value
       itself is noise the mutator keeps rebinding to. *)
    for idx = 0 to !n_values - 1 do
      let v = !values.(idx) in
      if v.uses = [] && v.consumed_at = None then
        emit
          (Diag.warning ~code:"dead-value" ~site:(op_site v.producer)
             (Printf.sprintf "value %d (%s) is produced but never borrowed or consumed"
                idx v.ty.Spec.et_name))
    done;
    List.rev !diags
end

(* [Nyx_analysis.Dataflow.state_path] before the linear pass: the value
   arrays grow by [Array.append] once per op and the mask is recomputed
   over every value after each op. *)
module Dataflow = struct
  let state_path (p : Program.t) =
    let n = Array.length p.Program.ops in
    let path = Array.make (n + 1) 0 in
    let value_ty = ref [||] in
    let alive = ref [||] in
    let mask () =
      let m = ref 0 in
      Array.iteri (fun i ty -> if !alive.(i) then m := !m lor (1 lsl ty)) !value_ty;
      !m
    in
    Array.iteri
      (fun i (op : Program.op) ->
        (match Spec.node p.Program.spec op.Program.node with
        | nt when nt.Spec.nt_id <> Spec.snapshot_node_id ->
          let n_borrows = List.length nt.Spec.borrows in
          Array.iteri
            (fun slot v ->
              if slot >= n_borrows && v >= 0 && v < Array.length !alive then
                !alive.(v) <- false)
            op.Program.args;
          let outs = Array.of_list (List.map (fun e -> e.Spec.et_id) nt.Spec.outputs) in
          value_ty := Array.append !value_ty outs;
          alive := Array.append !alive (Array.make (Array.length outs) true)
        | _ -> ()
        | exception Invalid_argument _ -> ());
        path.(i + 1) <- mask ())
      p.Program.ops;
    path
end

(* [Nyx_analysis.Typed_mutators]' splice and generate before
   count-and-select: splice lists every compatible cut pair and indexes
   the list's array; generate filters the usable nodes and the live
   values into lists at every step. *)
module Typed_mutators = struct
  open Nyx_sim

  let snap = Spec.snapshot_node_id

  (* Non-snapshot node types the mutator can ever assemble the inputs of
     (the Spec_lint constructibility fixpoint, shared with State_graph). *)
  let usable_nodes spec =
    let nodes = Spec.nodes spec in
    let constructible, _ = Nyx_analysis.Spec_lint.constructible_nodes nodes in
    List.filter
      (fun (nt : Spec.node_ty) -> nt.Spec.nt_id <> snap && constructible.(nt.Spec.nt_id))
      (Array.to_list nodes)

  let generative spec = List.length (usable_nodes spec) > 1

  (* Cap a candidate to [max_ops] total ops, trimming the tail (the frozen
     prefix always fits: frozen <= original length <= max_ops). *)
  let cap_ops max_ops ops =
    if Array.length ops > max_ops then Array.sub ops 0 max_ops else ops

  (* Repair the affine environment, then verify offline: only clean
     candidates ever reach the executor. *)
  let finish rng (p : Program.t) ops =
    let cand = Program.repair ~rng { p with Program.ops } in
    if Array.length cand.Program.ops = 0 then None
    else if Nyx_analysis.Verifier.is_clean cand then Some cand
    else None

  (* ------------------------------------------------------------------ *)
  (* Splice: cut at state_path-compatible points.                        *)

  let splice rng (ctx : Mutation_engine.ctx) (p : Program.t) =
    if Array.length ctx.mx_corpus = 0 then None
    else begin
      let frozen = min ctx.mx_frozen (Array.length p.Program.ops) in
      let donor = Rng.choose rng ctx.mx_corpus in
      let donor = Program.strip_snapshots donor in
      let dlen = Array.length donor.Program.ops in
      if dlen = 0 then None
      else begin
        let sa = Dataflow.state_path p in
        let sb = Dataflow.state_path donor in
        (* Compatible cut pairs: the abstract state after the kept prefix
           equals the state the donor suffix was built in, so every edge
           type the graft needs has at least one live value for repair to
           bind. The graft must be nonempty. *)
        let pairs = ref [] in
        let n_pairs = ref 0 in
        for i = Array.length p.Program.ops downto frozen do
          for j = dlen - 1 downto 0 do
            if sa.(i) = sb.(j) then begin
              pairs := (i, j) :: !pairs;
              incr n_pairs
            end
          done
        done;
        if !n_pairs = 0 then None
        else begin
          let cuts = Array.of_list !pairs in
          let i, j = cuts.(Rng.int rng !n_pairs) in
          let ops =
            Array.append
              (Array.sub p.Program.ops 0 i)
              (Array.sub donor.Program.ops j (dlen - j))
          in
          finish rng p (cap_ops ctx.mx_max_ops ops)
        end
      end
    end

  let splice_mutator =
    { Mutation_engine.m_name = "splice"; m_base = 1.0; m_fn = splice }

  (* ------------------------------------------------------------------ *)
  (* Generate: concrete walk over the constructible-opcode transitions.  *)

  (* The affine environment of a walk: live (unconsumed) values by edge
     type, plus the global value counter arg slots index into. *)
  type env = { mutable avail : (int * Spec.edge_ty) list; mutable n_values : int }

  let env_mask env =
    List.fold_left (fun m (_, (et : Spec.edge_ty)) -> m lor (1 lsl et.Spec.et_id)) 0
      env.avail

  (* Replay [ops] (assumed valid) to seed the environment with the frozen
     prefix's live values, mirroring Program.validate's accounting. *)
  let env_of_prefix spec ops =
    let env = { avail = []; n_values = 0 } in
    Array.iter
      (fun (op : Program.op) ->
        let nt = Spec.node spec op.Program.node in
        let n_borrows = List.length nt.Spec.borrows in
        List.iteri
          (fun i _ ->
            let v = op.Program.args.(n_borrows + i) in
            env.avail <- List.filter (fun (v', _) -> v' <> v) env.avail)
          nt.Spec.consumes;
        List.iter
          (fun ty ->
            env.avail <- (env.n_values, ty) :: env.avail;
            env.n_values <- env.n_values + 1)
          nt.Spec.outputs)
      ops;
    env

  (* A node is enabled when every input type has enough live values —
     borrows may share a value, consumes need distinct ones. *)
  let enabled env (nt : Spec.node_ty) =
    let have et =
      List.length
        (List.filter (fun (_, (e : Spec.edge_ty)) -> e.Spec.et_id = et) env.avail)
    in
    List.for_all (fun (et : Spec.edge_ty) -> have et.Spec.et_id >= 1) nt.Spec.borrows
    && List.for_all
         (fun (et : Spec.edge_ty) ->
           let needed =
             List.length
               (List.filter
                  (fun (e : Spec.edge_ty) -> e.Spec.et_id = et.Spec.et_id)
                  nt.Spec.consumes)
           in
           have et.Spec.et_id >= needed)
         nt.Spec.consumes

  (* Bind one op of type [nt] against the environment and advance it. *)
  let emit rng dict env (nt : Spec.node_ty) =
    let pick_of ty exclude =
      let cands =
        List.filter
          (fun (v, (e : Spec.edge_ty)) ->
            e.Spec.et_id = ty.Spec.et_id && not (List.mem v exclude))
          env.avail
      in
      fst (Rng.choose_list rng cands)
    in
    let borrow_args =
      List.map (fun ty -> pick_of ty []) nt.Spec.borrows
    in
    let consumed = ref [] in
    let consume_args =
      List.map
        (fun ty ->
          let v = pick_of ty !consumed in
          consumed := v :: !consumed;
          v)
        nt.Spec.consumes
    in
    env.avail <- List.filter (fun (v, _) -> not (List.mem v !consumed)) env.avail;
    let data =
      Array.of_list
        (List.map
           (fun (dt : Spec.data_ty) ->
             if dict <> [] && Rng.chance rng 0.5 then begin
               let tok = Rng.choose_list rng dict in
               if Bytes.length tok > dt.Spec.max_len then
                 Bytes.sub tok 0 dt.Spec.max_len
               else tok
             end
             else Rng.bytes rng (Rng.int rng (min 64 (dt.Spec.max_len + 1))))
           nt.Spec.data)
    in
    List.iter
      (fun ty ->
        env.avail <- (env.n_values, ty) :: env.avail;
        env.n_values <- env.n_values + 1)
      nt.Spec.outputs;
    { Program.node = nt.Spec.nt_id; args = Array.of_list (borrow_args @ consume_args); data }

  let generate ~usable ~reachable rng (ctx : Mutation_engine.ctx) (p : Program.t) =
    let frozen = min ctx.mx_frozen (Array.length p.Program.ops) in
    let room = ctx.mx_max_ops - frozen in
    if room <= 0 then None
    else begin
      let prefix = Array.sub p.Program.ops 0 frozen in
      let env = env_of_prefix p.Program.spec prefix in
      (* Half the walks steer toward a random reachable abstract state (a
         state-reaching prefix for later mutation rounds to build on);
         the other half wander freely. *)
      let target =
        if Array.length reachable > 0 && Rng.bool rng then
          Some (Rng.choose rng reachable)
        else None
      in
      let len = 1 + Rng.int rng room in
      let out = ref [] in
      (try
         for _ = 1 to len do
           let en = List.filter (enabled env) usable in
           if en = [] then raise Exit;
           let nt =
             match target with
             | Some tgt ->
               let missing = tgt land lnot (env_mask env) in
               let productive =
                 List.filter
                   (fun (nt : Spec.node_ty) ->
                     List.exists
                       (fun (et : Spec.edge_ty) ->
                         missing land (1 lsl et.Spec.et_id) <> 0)
                       nt.Spec.outputs)
                   en
               in
               if productive <> [] && Rng.chance rng 0.75 then
                 Rng.choose_list rng productive
               else Rng.choose_list rng en
             | None -> Rng.choose_list rng en
           in
           out := emit rng ctx.mx_dict env nt :: !out
         done
       with Exit -> ());
      match !out with
      | [] -> None
      | ops ->
        finish rng p (Array.append prefix (Array.of_list (List.rev ops)))
    end

  let generate_mutator spec =
    if not (generative spec) then
      invalid_arg
        (Printf.sprintf
           "Typed_mutators.generate_mutator: spec %S is dynamic-degenerate \
            (single constructible opcode); use the havoc fallback"
           (Spec.name spec));
    let usable = usable_nodes spec in
    let graph = Nyx_analysis.State_graph.build spec in
    (* Exclude the empty start state: reaching it requires no prefix. *)
    let reachable =
      Array.of_list (List.filter (fun m -> m <> 0) (Nyx_analysis.State_graph.reachable graph))
    in
    {
      Mutation_engine.m_name = "generate";
      m_base = 0.35;
      m_fn = generate ~usable ~reachable;
    }
end
