open Nyx_targets
open Nyx_vm

let packet_bytes = 16

(* Each boot's game state lives in that context's guest heap; its address
   is recorded at g+0, so every context (fleet instances run side by side
   on several domains) finds its own game and a snapshot restore brings
   the record back with the rest of guest memory. The Game.t wrapper is
   rebuilt per packet. The record is harness bookkeeping, not game work,
   so it is read and written without charging virtual time. *)

let target level =
  let on_init ctx ~g =
    let game = Game.boot ctx level in
    Memory.write_i32 (Guest_heap.memory ctx.Ctx.heap) g (Game.base game)
  in
  let on_packet ctx ~g ~conn:_ ~reply:_ data =
    let base = Memory.read_i32 (Guest_heap.memory ctx.Ctx.heap) g in
    try Game.run_input (Game.attach ctx level ~base) data
    with Game.Level_solved { frames } ->
      Ctx.crash ctx ~kind:"level-solved" (Printf.sprintf "solved in %d frames" frames)
  in
  {
    Target.info =
      {
        Target.name = "mario-" ^ level.Level.name;
        role = Target.Server;
        port = 6000;
        proto = Nyx_netemu.Net.Udp;
        dissector = Nyx_pcap.Dissector.Datagram;
        startup_ns = 100_000_000;
        work_ns = 0 (* frames charge their own cost *);
        desock_compat = false;
        forking = false;
        max_recv = 256;
        dict = [];
      };
    hooks = { Target.default_hooks with on_init; on_packet };
  }

let seeds level =
  (* Enough hold-right-and-run packets to cross the level at max speed if
     it were flat. The fuzzer has to discover every jump itself. *)
  let px_needed = (level.Level.flag_col + 2) * Level.tile_px in
  let frames = px_needed * 16 / 40 (* walk speed *) in
  let bytes_needed = 1 + (frames / Game.frames_per_byte) in
  let n_packets = 1 + (bytes_needed / packet_bytes) in
  let run_right = Char.chr 0b1001 (* right+run *) in
  [ List.init n_packets (fun _ -> Bytes.make packet_bytes run_right) ]
