(* The two workloads. Each runs untraced (end-to-end metrics) or
   traced (per-layer metrics), and checks every answer against the
   naive oracle. *)

open Twigmatch
open Util
module W = Tm_datasets.Workload
module Obs = Tm_obs.Obs

type config = { seed : int; seconds : float; trace : bool }

type outcome = {
  attempted : int;
  failed : int;
  mismatches : string list;  (** "(query, hint)" answers the oracle rejected *)
  metrics : metric list;
  report : metric list;  (** metrics printed beside the JSON but not in it *)
  env : (string * string) list;
}

let setup_runs = 3

(* Set up [setup_runs] times and keep the last; [setup_s] is the
   median. Earlier set-ups are [discard]ed and collected outside the
   clock, so the peak heap holds one set-up. *)
let repeated_setup ?(discard = ignore) f =
  let earlier =
    List.init (setup_runs - 1) (fun _ ->
        let x, s = timed f in
        discard x;
        Gc.compact ();
        s)
  in
  let x, s = timed f in
  (x, median_of (s :: earlier))

(* ------------------------------------------------------------------ *)
(* The in-process closed loop (point, ingest reads)                     *)
(* ------------------------------------------------------------------ *)

(* Work counted by the traced loop, from each result's stats. *)
type work = { mutable ids : int; mutable entries : int; mutable rows : int }

let work = { ids = 0; entries = 0; rows = 0 }

(* XPath text in, sorted ids out. Traced: a span per public call, the
   executor's own span tree kept under its span. *)
let run_op db (it : Data.item) =
  let xpath = it.Data.query.W.xpath in
  let twig = Obs.with_span "query.parse" (fun () -> Tm_query.Xpath_parser.parse xpath) in
  let r =
    Obs.with_span "core.executor_run" (fun () ->
        let r = Executor.run ~hint:it.Data.hint db twig in
        Option.iter Obs.adopt r.Executor.trace;
        r)
  in
  if Obs.enabled () then begin
    work.ids <- work.ids + List.length r.Executor.ids;
    work.entries <- work.entries + r.Executor.stats.Tm_exec.Stats.entries_scanned;
    work.rows <- work.rows + r.Executor.stats.Tm_exec.Stats.rows_produced
  end;
  r.Executor.ids

type loop = {
  lat_us : Samples.t;  (** read latencies *)
  at_s : Samples.t;  (** when each read completed *)
  ops_at_s : Samples.t;  (** when each operation (read or write) completed *)
  mutable attempted : int;
  mutable failed : int;
  mutable bad : string list;
  mutable t0 : float;
  mutable t1 : float;
}

let new_loop () =
  {
    lat_us = Samples.create ();
    at_s = Samples.create ();
    ops_at_s = Samples.create ();
    attempted = 0;
    failed = 0;
    bad = [];
    t0 = 0.0;
    t1 = 0.0;
  }

(* One timed read; its answer is compared with the oracle's after the
   clock stops. *)
let read loop sets (it : Data.item) =
  let db = Data.db_for sets it in
  let t0 = now_s () in
  let r = try Ok (Tracer.op "op" (fun () -> run_op db it)) with e -> Error e in
  let t1 = now_s () in
  Samples.add loop.lat_us ((t1 -. t0) *. 1e6);
  Samples.add loop.at_s t1;
  Samples.add loop.ops_at_s t1;
  loop.attempted <- loop.attempted + 1;
  match r with
  | Ok ids when List.equal Int.equal ids it.Data.expected -> ()
  | Ok _ ->
    loop.failed <- loop.failed + 1;
    loop.bad <- (it.Data.query.W.name ^ "/" ^ it.Data.hint_name) :: loop.bad
  | Error e ->
    loop.failed <- loop.failed + 1;
    loop.bad <- (it.Data.query.W.name ^ ": " ^ Printexc.to_string e) :: loop.bad

(* Rounds of every item in a seeded order until [seconds] pass; each
   round starts with [write] (ingest's), an operation too. *)
let closed_loop ?write ~st ~seconds sets items =
  let loop = new_loop () in
  let arr = Array.of_list items in
  loop.t0 <- now_s ();
  let deadline = loop.t0 +. seconds in
  while now_s () < deadline do
    Option.iter
      (fun w ->
        w ();
        Samples.add loop.ops_at_s (now_s ()))
      write;
    Array.iter (read loop sets) (shuffle st arr)
  done;
  loop.t1 <- now_s ();
  loop

(* Full oracle check of one answer per item, from a cold buffer pool:
   the misses it takes are the pages the workload touches. *)
let warm_check sets items =
  let pool d = d.Data.db.Database.pool in
  List.iter
    (fun d ->
      Database.drop_caches d.Data.db;
      Tm_storage.Buffer_pool.reset_stats (pool d))
    sets;
  let bad = Data.check_all sets items in
  let pages =
    List.fold_left
      (fun acc d -> acc + (Tm_storage.Buffer_pool.stats (pool d)).Tm_storage.Buffer_pool.misses)
      0 sets
  in
  (bad, pages)

let pool_totals sets =
  List.fold_left
    (fun (lr, mi) d ->
      let s = Tm_storage.Buffer_pool.stats d.Data.db.Database.pool in
      (lr + s.Tm_storage.Buffer_pool.logical_reads, mi + s.Tm_storage.Buffer_pool.misses))
    (0, 0) sets

(* The traced pass over the loop: cache, storage, exec and trace
   overhead metrics. [untraced_us] is the untraced mean per read. *)
let traced_loop_metrics ?write ~st ~seconds ~untraced_us sets items =
  let c0 = Tm_plan.Cache.stats () in
  let lr0, mi0 = pool_totals sets in
  work.ids <- 0;
  work.entries <- 0;
  work.rows <- 0;
  let loop, counters =
    Obs.with_enabled true (fun () ->
        counter_deltas (fun () -> closed_loop ?write ~st ~seconds sets items))
  in
  let c1 = Tm_plan.Cache.stats () in
  let lr1, mi1 = pool_totals sets in
  let ops = float_of_int (max 1 loop.attempted) in
  let hits = c1.Tm_plan.Cache.hits - c0.Tm_plan.Cache.hits in
  let misses = c1.Tm_plan.Cache.misses - c0.Tm_plan.Cache.misses in
  let summary = Tracer.summarize () in
  let join_s =
    List.fold_left
      (fun acc (name, (s : Tracer.summary)) ->
        if String.starts_with ~prefix:"join:" name then acc +. s.Tracer.total_s else acc)
      0.0 summary
  in
  let ids = float_of_int (max 1 work.ids) in
  ( loop,
    counters,
    [
      m "plan.cache_hit_ratio" "ratio" (ratio (float_of_int hits) (float_of_int (hits + misses)));
      m "index.entries_per_result" "ratio" (float_of_int work.entries /. ids);
      m "storage.logical_reads_per_query" "count" (float_of_int (lr1 - lr0) /. ops);
      m "storage.pool_hit_ratio" "ratio"
        (1.0 -. ratio (float_of_int (mi1 - mi0)) (float_of_int (lr1 - lr0)));
      m "storage.node_decodes_per_query" "count"
        (float_of_int (counter counters "bptree.node_decodes") /. ops);
      m "exec.join_us" "us" (join_s *. 1e6 /. ops);
      m "exec.rows_per_result" "ratio" (float_of_int work.rows /. ids);
      m "obs.trace_overhead_share" "share" ((Samples.mean loop.lat_us /. untraced_us) -. 1.0);
    ] )

(* The host's speed drifts by up to 1.5x in phases of a few seconds,
   so the run is cut into windows of [window_s] and the median latency
   and the throughput are the quartile of the per-window values on the
   fast side: the lower quartile of the window medians and the upper
   quartile of the window rates (operations, reads and writes,
   completed per second). A change that slows more than a quarter of
   the run shows. The tail needs more samples than a window holds and
   is taken over the whole run. *)
let window_s = 1.0

let loop_metrics ~tail_pct loop =
  let k = max 1 (int_of_float ((loop.t1 -. loop.t0) /. window_s)) in
  let len = (loop.t1 -. loop.t0) /. float_of_int k in
  let idx t = min (k - 1) (max 0 (int_of_float ((t -. loop.t0) /. len))) in
  let lats = Array.init k (fun _ -> Samples.create ()) and ops = Array.make k 0 in
  for i = 0 to loop.lat_us.Samples.n - 1 do
    Samples.add lats.(idx (Samples.get loop.at_s i)) (Samples.get loop.lat_us i)
  done;
  for i = 0 to loop.ops_at_s.Samples.n - 1 do
    let j = idx (Samples.get loop.ops_at_s i) in
    ops.(j) <- ops.(j) + 1
  done;
  let quartile p xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    percentile a p
  in
  let medians =
    Array.to_list lats
    |> List.filter (fun s -> s.Samples.n > 0)
    |> List.map (fun s -> percentile (Samples.sorted s) 50.0)
  in
  [
    m "latency_p50_us" "us" (quartile 25.0 medians);
    m "latency_tail_us" "us" (percentile (Samples.sorted loop.lat_us) tail_pct);
    m "throughput_per_s" "1/s"
      (quartile 75.0 (Array.to_list (Array.map (fun n -> float_of_int n /. len) ops)));
  ]

let env_common cfg sets ~pages =
  let db = (List.hd sets).Data.db in
  [
    ("seed", string_of_int cfg.seed);
    ("dataset_seed", string_of_int Data.dataset_seed);
    ( "scales",
      json_obj
        (List.map
           (fun d ->
             let name = match d.Data.kind with W.Xmark -> "xmark" | W.Dblp -> "dblp" in
             (name, json_float d.Data.scale))
           sets) );
    ("buffer_pool_frames", string_of_int (Tm_storage.Buffer_pool.capacity db.Database.pool));
    ("pages_touched", string_of_int pages);
    ( "strategies",
      json_string
        (String.concat "," (List.map Database.strategy_name (Database.built_strategies db))) );
  ]

let query_request (it : Data.item) =
  {
    Openloop.target = Http.query_target ~hint:it.Data.hint_name it.Data.query.W.xpath;
    expected = it.Data.expected;
  }

(* The serving probe of a traced run: [handle] in-process, then one
   second of open loop at {!Probes.probe_rate} against an in-process
   server over the workload's first database, sending its items
   round-robin in a seeded order. Returns the metrics and the open
   loop's step. *)
let serving_probe ~st sets (items : Data.item list) =
  let db = (List.hd sets).Data.db in
  let items = List.filter (fun (it : Data.item) -> Data.db_for sets it == db) items in
  let handle, hm = Probes.serve_handle_metrics sets items in
  let arr = shuffle st (Array.of_list items) in
  Probes.telemetry true;
  let step, before, after =
    Probes.with_local_server db (fun port ->
        let metrics () = (Http.get ~port "/metrics").Http.body in
        let before = metrics () in
        let step =
          Openloop.run_step ~port ~conns:Probes.probe_conns ~rate:Probes.probe_rate ~seconds:1.0
            (fun i -> query_request arr.(i mod Array.length arr))
        in
        (step, before, metrics ()))
  in
  Probes.telemetry false;
  let wrong =
    match Openloop.wrong_answers step with
    | 0 -> []
    | n -> [ Printf.sprintf "%d /query answers over HTTP" n ]
  in
  ( hm @ Probes.http_metrics ~handle_us:handle ~metrics_before:before ~metrics_after:after step,
    step,
    wrong )

(* ------------------------------------------------------------------ *)
(* point                                                               *)
(* ------------------------------------------------------------------ *)

(* The tail percentile of each workload's read latencies over a 45-s
   run on a 2-core host: the highest with at least ten samples beyond
   it (ingest: p99.9 of about 17000 reads), lower where the higher ones
   spread too widely across runs (point: p99.99 near 200%, so p99.9). *)
let point_tail_pct = 99.9
let ingest_tail_pct = 99.9
let ingest_write_tail_pct = 95.0

let setup_metrics (setup : Data.setup) ~ready_s =
  [
    m "setup.generate_s" "s" setup.Data.generate_s;
    m "setup.build_s" "s" setup.Data.build_s;
    m "setup.ready_s" "s" ready_s;
  ]

let probe_attempts (step : Openloop.step) = Array.length step.Openloop.samples

let local ~tail_pct ~items ~needs cfg =
  let st = Random.State.make [| cfg.seed |] in
  let strategies = [ Database.RP; Database.DP ] in
  let items = items () in
  let t_ready = now_s () in
  let (setup : Data.setup), setup_s =
    if cfg.trace then timed (fun () -> Data.setup ~strategies needs)
    else repeated_setup (fun () -> Data.setup ~strategies needs)
  in
  let sets = setup.Data.sets in
  Data.compute_expected sets items;
  let bad0, pages = warm_check sets items in
  let ready_s = now_s () -. t_ready in
  Gc.full_major ();
  let env =
    env_common cfg sets ~pages
    @ [ ("tail_pct", json_float tail_pct); ("window_s", json_float window_s) ]
  in
  if not cfg.trace then begin
    let loop = closed_loop ~st ~seconds:cfg.seconds sets items in
    let heap_mb = heap_peak_mb () in
    let bad1 = Data.check_all sets items in
    let metrics =
      [ m "setup_s" "s" setup_s ]
      @ loop_metrics ~tail_pct loop
      @ [
          m "index_bytes_per_doc_byte" "ratio" (Data.index_bytes_per_doc_byte sets);
          m "heap_peak_mb" "MB" heap_mb;
        ]
    in
    {
      attempted = loop.attempted;
      failed = loop.failed;
      mismatches = bad0 @ bad1 @ loop.bad;
      metrics;
      report =
        [ m "fail_share" "share" (ratio (float_of_int loop.failed) (float_of_int loop.attempted)) ];
      env = env @ [ ("samples", string_of_int loop.attempted) ];
    }
  end
  else begin
    let half = cfg.seconds /. 2.0 in
    let plain = closed_loop ~st ~seconds:half sets items in
    let traced, _, loop_metrics =
      traced_loop_metrics ~st ~seconds:half ~untraced_us:(Samples.mean plain.lat_us) sets items
    in
    let qm, scans_ok = Probes.query_metrics sets items in
    let sm, step, wrong = serving_probe ~st sets items in
    let wm = Probes.write_probe (Data.dataset_of sets W.Xmark).Data.db in
    {
      attempted = plain.attempted + traced.attempted + probe_attempts step;
      failed = plain.failed + traced.failed + Openloop.failures step;
      mismatches =
        bad0 @ plain.bad @ traced.bad @ wrong @ if scans_ok then [] else [ "raw-scan" ];
      metrics = qm @ loop_metrics @ wm @ sm @ setup_metrics setup ~ready_s;
      report = [];
      env;
    }
  end

let both = [ (W.Xmark, Data.xmark_scale); (W.Dblp, Data.dblp_scale) ]
let point = local ~tail_pct:point_tail_pct ~items:Data.point_items ~needs:both

(* ------------------------------------------------------------------ *)
(* ingest                                                              *)
(* ------------------------------------------------------------------ *)

(* Set-up for ingest: the XMark dataset, ROOTPATHS and DATAPATHS, and
   the durable directory (initial snapshot and log) it writes to. *)
let durable_setup ~dir =
  let setup =
    Data.setup ~strategies:[ Database.RP; Database.DP ] [ (W.Xmark, Data.ingest_scale) ]
  in
  let d = Durable.create ~force:true ~dir (List.hd setup.Data.sets).Data.db in
  (setup, d)

let ingest cfg =
  let st = Random.State.make [| cfg.seed |] in
  ensure_out_dir ();
  let dir = Filename.concat out_dir (Printf.sprintf "ingest-%d" (Unix.getpid ())) in
  at_exit (fun () -> rm_rf dir);
  let t_ready = now_s () in
  let (setup, d), setup_s =
    let once () = durable_setup ~dir in
    if cfg.trace then timed once
    else
      repeated_setup
        ~discard:(fun (_, d) ->
          Durable.close d;
          rm_rf dir)
        once
  in
  let sets = [ { (List.hd setup.Data.sets) with Data.db = Durable.database d } ] in
  let db = Durable.database d in
  let items = Data.xmark_point_items () in
  Data.compute_expected sets items;
  let bad0, pages = warm_check sets items in
  let ready_s = now_s () -. t_ready in
  let idx = Data.index_bytes_per_doc_byte sets in
  Gc.full_major ();
  let people = Probes.people_id db.Database.doc in
  let w = Probes.new_writes () in
  let write () = Probes.write d ~people w in
  let env =
    env_common cfg sets ~pages
    @ [
        ("tail_pct", json_float ingest_tail_pct);
        ("window_s", json_float window_s);
        ("write_tail_pct", json_float ingest_write_tail_pct);
        ("flush_policy", json_string "Durable.create; fsync at every commit (no batch)");
      ]
  in
  (* After the writes: every answer again, against the mutated
     document, plus the query that sees exactly the inserted persons. *)
  let post_check () =
    let written = Probes.written_item () in
    let all = written :: items in
    Data.compute_expected sets all;
    let bad = Data.check_all sets all in
    if List.length written.Data.expected = w.Probes.count then bad else "written/count" :: bad
  in
  let finish () =
    Durable.close d;
    rm_rf dir
  in
  if not cfg.trace then begin
    let loop = closed_loop ~write ~st ~seconds:cfg.seconds sets items in
    let heap_mb = heap_peak_mb () in
    let bad1 = post_check () in
    finish ();
    let wsorted = Samples.sorted w.Probes.lat_ms in
    let ops = loop.attempted + w.Probes.count in
    {
      attempted = ops;
      failed = loop.failed;
      mismatches = bad0 @ bad1 @ loop.bad;
      metrics =
        [ m "setup_s" "s" setup_s ]
        @ loop_metrics ~tail_pct:ingest_tail_pct loop
        @ [ m "index_bytes_per_doc_byte" "ratio" idx; m "heap_peak_mb" "MB" heap_mb ];
      report =
        [
          m "fail_share" "share" (ratio (float_of_int loop.failed) (float_of_int ops));
          m "write_p50_ms" "ms" (percentile wsorted 50.0);
          m "write_tail_ms" "ms" (percentile wsorted ingest_write_tail_pct);
          m "writes_per_s" "1/s" (float_of_int w.Probes.count /. (loop.t1 -. loop.t0));
        ];
      env =
        env
        @ [ ("samples", string_of_int loop.attempted); ("writes", string_of_int w.Probes.count) ];
    }
  end
  else begin
    let half = cfg.seconds /. 2.0 in
    let plain = closed_loop ~write ~st ~seconds:half sets items in
    (* The write-path metrics cover the traced half's writes only. *)
    let w_plain = w.Probes.count in
    let traced_w = Probes.new_writes () in
    let log0 = (Durable.wal_status d).Durable.log_bytes in
    let traced, counters, loop_metrics =
      traced_loop_metrics
        ~write:(fun () -> Probes.write d ~people traced_w)
        ~st ~seconds:half ~untraced_us:(Samples.mean plain.lat_us) sets items
    in
    let log_bytes = (Durable.wal_status d).Durable.log_bytes - log0 in
    w.Probes.count <- w_plain + traced_w.Probes.count;
    let bad1 = post_check () in
    let wm =
      Probes.write_metrics ~tail_pct:ingest_write_tail_pct traced_w ~log_bytes ~counters
    in
    let qm, scans_ok = Probes.query_metrics sets items in
    let sm, step, wrong = serving_probe ~st sets items in
    Durable.close d;
    let rm = Probes.recovery_metrics dir in
    rm_rf dir;
    {
      attempted = plain.attempted + traced.attempted + probe_attempts step + w.Probes.count;
      failed = plain.failed + traced.failed + Openloop.failures step;
      mismatches =
        bad0 @ bad1 @ plain.bad @ traced.bad @ wrong @ if scans_ok then [] else [ "raw-scan" ];
      metrics = qm @ loop_metrics @ wm @ rm @ sm @ setup_metrics setup ~ready_s;
      report = [];
      env;
    }
  end
