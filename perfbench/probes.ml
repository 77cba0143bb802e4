(* Per-layer probes for the traced run: each times one layer's public
   functions directly on the workload's own databases and queries, so
   every layer metric is measured on every workload. *)

open Twigmatch
open Util
module W = Tm_datasets.Workload
module Decompose = Tm_query.Decompose

(* Median seconds per call of [f], over up to [reps] calls or about
   [budget_s] seconds, whichever ends first, with the Obs sink as it
   is (off in the probes). One more call is recorded as operation
   [name], with the sink on. *)
let median_time ?(reps = 200) ?(budget_s = 0.05) name f =
  let times = ref [] in
  let start = now_s () in
  let rec go i =
    if i < reps && (i < 5 || now_s () -. start < budget_s) then begin
      let t0 = now_s () in
      ignore (Sys.opaque_identity (f ()));
      times := (now_s () -. t0) :: !times;
      go (i + 1)
    end
  in
  go 0;
  ignore (Tm_obs.Obs.with_enabled true (fun () -> Tracer.op name f));
  median_of !times

(* The twig's linear paths as tag patterns over the database's
   dictionary; [None] when a tag is absent from the data. *)
let patterns (db : Database.t) twig =
  Decompose.linear_paths twig
  |> List.map (fun (l : Decompose.linear) ->
         let tags =
           List.map
             (fun (s : Decompose.step) ->
               Option.map
                 (fun t -> (s.Decompose.axis, t))
                 (Tm_xmldb.Dictionary.find db.Database.dict s.Decompose.name))
             l.Decompose.steps
         in
         if List.mem None tags then None else Some (l, Array.of_list (List.filter_map Fun.id tags)))

(* The raw index probe answering a single fully-specified path query:
   one [Family.scan] of [fam] on the exact schema path and value (with
   [head] 0, the virtual root, on DATAPATHS), the output column taken
   from each hit's IdList, sorted. [None] for any other query shape. *)
let raw_scan ?head (db : Database.t) fam twig =
  match (patterns db twig, fam) with
  | [ Some (l, pattern) ], Some fam
    when l.Decompose.range = None
         && Array.for_all (fun (axis, _) -> axis = Tm_query.Twig.Child) pattern ->
    let out_uid = (Tm_query.Twig.output_node twig).Tm_query.Twig.uid in
    let pos =
      let rec find i = function
        | [] -> None
        | (s : Decompose.step) :: rest ->
          if s.Decompose.uid = out_uid then Some i else find (i + 1) rest
      in
      find 0 l.Decompose.steps
    in
    Option.map
      (fun pos () ->
        let path = Tm_xmldb.Schema_path.of_list (Array.to_list (Array.map snd pattern)) in
        let schema = Tm_index.Family.Exact path in
        Tm_index.Family.scan fam ?head ~value:l.Decompose.value ~schema
          (fun acc (h : Tm_index.Family.hit) -> List.nth h.Tm_index.Family.h_ids pos :: acc)
          []
        |> List.sort_uniq Int.compare)
      pos
  | _ -> None

type query_layers = {
  parse_us : float;
  compile_us : float;
  estimate_us : float;
  scan_us : float;  (** ROOTPATHS; 0 unless single-path *)
  dp_scan_us : float;  (** DATAPATHS; 0 unless single-path *)
  run_us : float;  (** [Executor.run] under the item's hint *)
  alloc_words : float;
  scan_matches : bool;  (** the raw probes equal the oracle (single-path only) *)
}

let query_layers (db : Database.t) (it : Data.item) =
  let xpath = it.Data.query.W.xpath in
  let twig = it.Data.twig in
  let parse_us = 1e6 *. median_time "query.parse" (fun () -> Tm_query.Xpath_parser.parse xpath) in
  let compile_us =
    1e6
    *. median_time "query.compile" (fun () ->
           (Tm_query.Twig.shape twig, Decompose.linear_paths twig))
  in
  let pats = List.filter_map Fun.id (patterns db twig) in
  let estimate_us =
    1e6
    *. median_time "plan.estimate" (fun () ->
           List.fold_left
             (fun acc ((l : Decompose.linear), pattern) ->
               acc
               + Tm_plan.Estimate.path_cardinality ~catalog:db.Database.catalog
                   ~edge:db.Database.edge ~pattern ~value:l.Decompose.value
                   ~range:l.Decompose.range)
             0 pats)
  in
  let probe name scan =
    match scan with
    | None -> (0.0, true)
    | Some scan -> (1e6 *. median_time name scan, scan () = it.Data.expected)
  in
  let scan_us, rp_ok = probe "index.raw_scan.rp" (raw_scan db (Database.find_rootpaths db) twig) in
  let dp_scan_us, dp_ok =
    probe "index.raw_scan.dp" (raw_scan ~head:0 db (Database.find_datapaths db) twig)
  in
  let run () = Executor.run ~hint:it.Data.hint db twig in
  let run_us = 1e6 *. median_time "core.executor_run" run in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (run ()));
  let alloc_words = Gc.minor_words () -. w0 in
  {
    parse_us;
    compile_us;
    estimate_us;
    scan_us;
    dp_scan_us;
    run_us;
    alloc_words;
    scan_matches = rp_ok && dp_ok;
  }

let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Query-side layer metrics over the workload's [auto] items, plus the
   forced-hint attribution: the same queries timed under auto, forced
   RP and forced DP. Returns the metrics and whether every raw probe
   agreed with the oracle. *)
let query_metrics sets (items : Data.item list) =
  let autos = List.filter (fun (it : Data.item) -> it.Data.hint_name = "auto") items in
  let ql = List.map (fun it -> (it, query_layers (Data.db_for sets it) it)) autos in
  let single = List.filter (fun (_, q) -> q.scan_us > 0.0) ql in
  let hint_set =
    match
      List.filter (fun (it : Data.item) -> List.mem it.Data.query.W.name Data.point_forced) autos
    with
    | [] -> autos
    | l -> l
  in
  let hint_us h =
    let hint = Data.hint_of_name h in
    mean
      (List.map
         (fun (it : Data.item) ->
           let db = Data.db_for sets it in
           let run () = Executor.run ~hint db it.Data.twig in
           1e6 *. median_time ("core.executor_run." ^ h) run)
         hint_set)
  in
  let over f = mean (List.map (fun (_, q) -> f q) ql) in
  ( [
      m "query.parse_us" "us" (over (fun q -> q.parse_us));
      m "query.compile_us" "us" (over (fun q -> q.compile_us));
      m "plan.estimate_us" "us" (over (fun q -> q.estimate_us));
      m "plan.hint_auto_us" "us" (hint_us "auto");
      m "plan.hint_rp_us" "us" (hint_us "rp");
      m "plan.hint_dp_us" "us" (hint_us "dp");
      m "index.scan_us" "us" (mean (List.map (fun (_, q) -> q.scan_us) single));
      m "index.dp_scan_us" "us" (mean (List.map (fun (_, q) -> q.dp_scan_us) single));
      m "core.overhead_ratio" "ratio"
        (mean (List.map (fun (_, q) -> q.run_us /. q.scan_us) single));
      m "core.alloc_words_per_query" "words" (over (fun q -> q.alloc_words));
    ],
    List.for_all (fun (_, q) -> q.scan_matches) ql )

(* ------------------------------------------------------------------ *)
(* Write path                                                          *)
(* ------------------------------------------------------------------ *)

(* A small [person] subtree. Its values never equal a query literal,
   so the read queries' answers stay fixed while writes land; the
   post-run oracle check re-derives them from the mutated document. *)
let income = "bench-income"

let person i =
  let module T = Tm_xml.Xml_tree in
  T.elem "person"
    [
      T.attr "id" (Printf.sprintf "bench%d" i);
      T.elem_text "name" (Printf.sprintf "Bench Person %d" i);
      T.elem "profile" [ T.attr "income" income ];
    ]

let people_id (doc : Tm_xml.Xml_tree.document) =
  let site = doc.Tm_xml.Xml_tree.roots.(0) in
  (Array.to_list site.Tm_xml.Xml_tree.children
  |> List.find (fun n -> Tm_xml.Xml_tree.label_name n = "people"))
    .Tm_xml.Xml_tree.id

(* The query that sees every inserted person; checked after writes. *)
let written_item () =
  let query =
    {
      W.name = "written";
      dataset = W.Xmark;
      xpath = Printf.sprintf "/site/people/person/profile[@income = '%s']" income;
      branches = 1;
      group = "ingest";
    }
  in
  {
    Data.query;
    hint_name = "auto";
    hint = Tm_plan.Hint.Auto;
    twig = Tm_query.Xpath_parser.parse query.W.xpath;
    expected = [];
  }

type writes = {
  lat_ms : Samples.t;
  mutable count : int;
  mutable busy_s : float;
  mutable encoded_bytes : int;  (** [Durable.encode_op] bytes of the writes *)
}

let new_writes () = { lat_ms = Samples.create (); count = 0; busy_s = 0.0; encoded_bytes = 0 }

(* One durable insert, fsynced at commit. *)
let write (d : Durable.t) ~people w =
  let p = person (w.count + 1) in
  let t0 = now_s () in
  ignore (Tracer.op "core.durable_insert" (fun () -> Durable.insert_subtree d ~parent:people p));
  let dt = now_s () -. t0 in
  Samples.add w.lat_ms (dt *. 1e3);
  w.count <- w.count + 1;
  w.busy_s <- w.busy_s +. dt;
  w.encoded_bytes <-
    w.encoded_bytes
    + String.length (Durable.encode_op (Durable.Insert { parent = people; subtree = p }))

(* Write-path metrics of [w], given the log growth and the program's
   counter deltas over the writes. *)
let write_metrics ~tail_pct w ~log_bytes ~counters =
  let n = float_of_int (max 1 w.count) in
  let sorted = Samples.sorted w.lat_ms in
  [
    m "core.write_p50_ms" "ms" (percentile sorted 50.0);
    m "core.write_tail_ms" "ms" (percentile sorted tail_pct);
    m "core.writes_per_s" "1/s" (ratio (float_of_int w.count) w.busy_s);
    m "wal.bytes_per_write" "B" (float_of_int log_bytes /. n);
    m "wal.amplification" "ratio" (ratio (float_of_int log_bytes) (float_of_int w.encoded_bytes));
    m "wal.syncs_per_write" "count" (float_of_int (counter counters "wal.syncs") /. n);
    m "core.page_bytes_per_write" "B"
      (float_of_int (counter counters "pager.write_bytes") /. n);
  ]

(* Recovery of [dir] (replaying its log), then a checkpoint; each
   recorded as an operation. *)
let recovery_metrics dir =
  let traced name f = Tm_obs.Obs.with_enabled true (fun () -> timed (fun () -> Tracer.op name f)) in
  let (d, _), recover_s = traced "core.recovery" (fun () -> Durable.open_ dir) in
  let (), ckpt_s = traced "core.checkpoint" (fun () -> Durable.checkpoint d) in
  Durable.close d;
  [ m "core.recovery_ms" "ms" (recover_s *. 1e3); m "core.checkpoint_ms" "ms" (ckpt_s *. 1e3) ]

(* For a read-only workload: make its XMark database durable in a
   scratch directory, take 40 logged writes (tail: p75, ten beyond it),
   then recover and checkpoint. Runs last, because it mutates the
   database. *)
let write_probe (db : Database.t) =
  let n = 40 and tail_pct = 75.0 in
  ensure_out_dir ();
  Tm_obs.Obs.enable ();
  let dir = Filename.concat out_dir (Printf.sprintf "probe-%d" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let d = Durable.create ~force:true ~dir db in
      let people = people_id db.Database.doc in
      let w = new_writes () in
      let log0 = (Durable.wal_status d).Durable.log_bytes in
      let (), counters =
        counter_deltas (fun () ->
            for _ = 1 to n do
              write d ~people w
            done)
      in
      let log_bytes = (Durable.wal_status d).Durable.log_bytes - log0 in
      Durable.close d;
      Tm_obs.Obs.disable ();
      write_metrics ~tail_pct w ~log_bytes ~counters @ recovery_metrics dir)

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

(* The serving probe: an open loop at [probe_rate] requests per second
   over [probe_conns] connections (nproc), and the latency limit of
   serve.slo_rate_per_s: p[slo_pct] within [slo_ms]. *)
let probe_rate = 100.0
let probe_conns = 2
let slo_ms = 10.0
let slo_pct = 98.0

let telemetry on =
  if on then begin
    Tm_obs.Obs.enable ();
    Tm_obs.Journal.enable ();
    Tm_obs.Flight.enable ()
  end
  else begin
    Tm_obs.Obs.disable ();
    Tm_obs.Journal.disable ();
    Tm_obs.Flight.disable ()
  end

(* Median [Server.handle] time of the items' /query requests, with
   the server's telemetry (Obs sink, journal, flight recorder) on or
   off. *)
let handle_us ~telemetry:on sets (items : Data.item list) =
  telemetry on;
  let per =
    List.map
      (fun (it : Data.item) ->
        let target = Http.query_target ~hint:it.Data.hint_name it.Data.query.W.xpath in
        let db = Data.db_for sets it in
        1e6
        *. median_time "serve.handle" (fun () -> Tm_serve.Server.handle db ~meth:"GET" ~target))
      items
  in
  telemetry false;
  median_of per

let serve_handle_metrics sets items =
  let on = handle_us ~telemetry:true sets items in
  let off = handle_us ~telemetry:false sets items in
  (on, [ m "serve.handle_us" "us" on; m "obs.telemetry_us" "us" (on -. off) ])

(* Metrics of the open-loop step against a server: transport is the
   HTTP median above the in-process [handle] median. The SLO rate is
   the step's rate if its [slo_pct] latency stays within [slo_ms] with
   no failures and no growing backlog, else 0. *)
let http_metrics ~handle_us ~metrics_before ~metrics_after (step : Openloop.step) =
  let lat = Openloop.latencies_us step in
  Array.sort Float.compare lat;
  let late = Openloop.lateness_ms step in
  Array.sort Float.compare late;
  let n = float_of_int (max 1 (Array.length lat)) in
  let shed =
    Array.fold_left
      (fun a s -> if s.Openloop.status = 429 || s.Openloop.status = 503 then a + 1 else a)
      0 step.Openloop.samples
  in
  let prom name = Http.prom_value metrics_after name -. Http.prom_value metrics_before name in
  let meets =
    percentile lat slo_pct <= slo_ms *. 1e3
    && Openloop.failures step = 0
    && not (Openloop.backlog_grew step)
  in
  [
    m "serve.slo_rate_per_s" "1/s" (if meets then step.Openloop.rate else 0.0);
    m "serve.transport_us" "us" (percentile lat 50.0 -. handle_us);
    m "serve.shed_share" "share" (float_of_int shed /. n);
    m "par.parked_share" "share" (ratio (prom "semaphore_parked") (prom "serve_requests"));
    m "serve.gen_late_ms" "ms" (percentile late 50.0);
  ]

(* An in-process server over [db], serving on a background domain for
   the duration of [f port]. *)
let with_local_server db f =
  let server = Tm_serve.Server.create ~port:0 db in
  let dom = Domain.spawn (fun () -> Tm_serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Tm_serve.Server.stop server;
      ignore (Domain.join dom))
    (fun () -> f (Tm_serve.Server.port server))
