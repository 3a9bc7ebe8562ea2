module Prng = Asf_engine.Prng
module Ops = Asf_dstruct.Ops
module Tqueue = Asf_dstruct.Tqueue

type cfg = {
  x : int;
  y : int;
  z : int;
  paths : int;
  work_per_cell : int;
  privatized_snapshot : bool;
}

let default =
  { x = 32; y = 32; z = 3; paths = 64; work_per_cell = 4; privatized_snapshot = false }

let program cfg ~seed ~threads (so : Ops.t) =
  let rng = Prng.create (seed + 4242_1) in
  let cells = cfg.x * cfg.y * cfg.z in
  let grid = so.alloc cells in
  for c = 0 to cells - 1 do
    so.st (grid + c) 0
  done;
  let work = Tqueue.create so in
  let endpoints = Array.make (cfg.paths + 1) (0, 0) in
  let used = Hashtbl.create 64 in
  for p = 1 to cfg.paths do
    let fresh () =
      let rec pick () =
        let c = Prng.int rng cells in
        if Hashtbl.mem used c then pick ()
        else begin
          Hashtbl.add used c ();
          c
        end
      in
      pick ()
    in
    let src = fresh () and dst = fresh () in
    endpoints.(p) <- (src, dst);
    (* Endpoints are terminals: reserved in the grid so no other path may
       route through them. *)
    so.st (grid + src) (-1);
    so.st (grid + dst) (-1);
    Tqueue.enqueue so work ((src * cells) + dst)
  done;
  let neighbours c =
    let i = c mod cfg.x in
    let j = c / cfg.x mod cfg.y in
    let k = c / (cfg.x * cfg.y) in
    List.filter_map
      (fun (di, dj, dk) ->
        let i' = i + di and j' = j + dj and k' = k + dk in
        if i' < 0 || i' >= cfg.x || j' < 0 || j' >= cfg.y || k' < 0 || k' >= cfg.z
        then None
        else Some (((k' * cfg.y) + j') * cfg.x + i'))
      [ (-1, 0, 0); (1, 0, 0); (0, -1, 0); (0, 1, 0); (0, 0, -1); (0, 0, 1) ]
  in
  (* Host-side BFS over a snapshot; returns the path including endpoints. *)
  let bfs snapshot src dst =
    let prev = Array.make cells (-1) in
    let visited = Array.make cells false in
    visited.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    let found = ref false in
    let expanded = ref 0 in
    while (not !found) && not (Queue.is_empty q) do
      let c = Queue.pop q in
      incr expanded;
      List.iter
        (fun n ->
          if (not visited.(n)) && (snapshot.(n) = 0 || n = dst) then begin
            visited.(n) <- true;
            prev.(n) <- c;
            if n = dst then found := true else Queue.add n q
          end)
        (neighbours c)
    done;
    if not !found then (None, !expanded)
    else begin
      let rec collect c acc = if c = src then src :: acc else collect prev.(c) (c :: acc) in
      (Some (collect dst []), !expanded)
    end
  in
  let path_ids = Array.make threads [] in
  let failed = Array.make threads 0 in
  let next_id = ref 0 in
  let worker (cap : Cap.t) tid =
    let o = cap.o in
    let running = ref true in
    while !running do
      match cap.atomic "dequeue" (fun () -> Tqueue.dequeue o work) with
      | None -> running := false
      | Some enc ->
          let src = enc / cells and dst = enc mod cells in
          incr next_id;
          let id = !next_id in
          let routed =
            cap.atomic "route" (fun () ->
                (* The grid snapshot: transactional by default (what the
                   compiler generates for shared data — the whole grid
                   joins the read set), plain under the privatisation
                   ablation. *)
                let read = if cfg.privatized_snapshot then cap.nld else o.ld in
                let snapshot = Array.init cells (fun c -> read (grid + c)) in
                snapshot.(src) <- 0;
                snapshot.(dst) <- 0;
                let path, expanded = bfs snapshot src dst in
                cap.work (cfg.work_per_cell * expanded);
                match path with
                | None -> None
                | Some cells_on_path ->
                    (* Revalidate and claim transactionally: any cell taken
                       since the snapshot forces a re-route. The route's own
                       endpoints legitimately hold the reservation mark. *)
                    List.iter
                      (fun c ->
                        let v = o.ld (grid + c) in
                        let expected = if c = src || c = dst then -1 else 0 in
                        if v <> expected then cap.retry ();
                        o.st (grid + c) id)
                      cells_on_path;
                    Some (List.length cells_on_path))
          in
          (match routed with
          | Some len -> path_ids.(tid) <- (id, len) :: path_ids.(tid)
          | None -> failed.(tid) <- failed.(tid) + 1)
    done
  in
  (* Validation: each routed id claims exactly its recorded number of
     cells, and no cell holds an unknown id. *)
  let checks () =
    let counts = Hashtbl.create 64 in
    for c = 0 to cells - 1 do
      let v = so.ld (grid + c) in
      (* -1 marks reserved endpoints of unrouted paths. *)
      if v > 0 then
        Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
    done;
    let all_paths = List.concat (Array.to_list path_ids) in
    let lengths_ok =
      List.for_all (fun (id, len) -> Hashtbl.find_opt counts id = Some len) all_paths
      && Hashtbl.length counts = List.length all_paths
    in
    let total_failed = Array.fold_left ( + ) 0 failed in
    [
      ("paths disjoint and complete", lengths_ok);
      ("all work items processed", List.length all_paths + total_failed = cfg.paths);
    ]
  in
  { Stamp_common.worker; checks }
