(* Datasets, databases, the workload's query items and the naive
   oracle. *)

open Twigmatch
module W = Tm_datasets.Workload

(* The datasets are the repository's standard ones (generator seed 42,
   as in bench/main.exe and twigql): per-query result sizes vary by up
   to 3x between generator seeds, which would swamp the run-to-run
   spread. The run's seed orders the queries and the writes. *)
let dataset_seed = 42
let xmark_scale = 0.5
let dblp_scale = 0.5
let ingest_scale = 0.25

(* One (query, hint) pair the workload runs, with its oracle answer. *)
type item = {
  query : W.query;
  hint_name : string;  (** "auto", "rp" or "dp" *)
  hint : Tm_plan.Hint.t;
  twig : Tm_query.Twig.t;
  mutable expected : int list;
}

let hint_of_name = function
  | "auto" -> Tm_plan.Hint.Auto
  | "rp" -> Tm_plan.Hint.Force Database.RP
  | "dp" -> Tm_plan.Hint.Force Database.DP
  | h -> invalid_arg ("hint " ^ h)

let item hint_name name =
  let query = W.find name in
  {
    query;
    hint_name;
    hint = hint_of_name hint_name;
    twig = Tm_query.Xpath_parser.parse query.W.xpath;
    expected = [];
  }

(* The paper's selective queries: 1-16 ids each. Q1x, Q1d, B1, Q4x and
   Q5x stay selective under both forced plans too. *)
let point_auto = [ "Q1x"; "Q1d"; "B1"; "Q4x"; "Q5x"; "Q10x"; "Q11x"; "Q12x"; "Q13x" ]
let point_forced = [ "Q1x"; "Q1d"; "B1"; "Q4x"; "Q5x" ]

let point_items () =
  List.map (item "auto") point_auto
  @ List.map (item "rp") point_forced
  @ List.map (item "dp") point_forced

(* The XMark half of the point set under [auto]: ingest's reads. *)
let xmark_point_items () =
  List.filter (fun i -> i.query.W.dataset = W.Xmark) (List.map (item "auto") point_auto)

(* ------------------------------------------------------------------ *)
(* Datasets and databases                                              *)
(* ------------------------------------------------------------------ *)

type dataset = {
  kind : W.dataset;
  scale : float;
  doc : Tm_xml.Xml_tree.document;
  db : Database.t;
  doc_bytes : int;  (** serialized XML size *)
}

type setup = { sets : dataset list; generate_s : float; build_s : float }

(* Generate each needed dataset and build [strategies] over it.
   Dataset generation and index build are timed apart. *)
let setup ~strategies needs =
  let seed = dataset_seed in
  let gen (kind, scale) =
    match kind with
    | W.Xmark -> Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed; scale }
    | W.Dblp -> Tm_datasets.Dblp_gen.generate { Tm_datasets.Dblp_gen.seed; scale }
  in
  let docs, generate_s = Util.timed (fun () -> List.map (fun n -> (n, gen n)) needs) in
  let dbs, build_s =
    Util.timed (fun () -> List.map (fun (_, doc) -> Database.create ~strategies doc) docs)
  in
  let sets =
    List.map2
      (fun ((kind, scale), doc) db ->
        { kind; scale; doc; db; doc_bytes = String.length (Tm_xml.Xml_tree.to_string doc) })
      docs dbs
  in
  { sets; generate_s; build_s }

let dataset_of sets kind = List.find (fun d -> d.kind = kind) sets
let db_for sets item = (dataset_of sets item.query.W.dataset).db

(* Index space over document size, summed over the built strategies
   of every dataset. *)
let index_bytes_per_doc_byte sets =
  let idx =
    List.fold_left
      (fun acc d ->
        List.fold_left
          (fun acc s -> acc + Database.strategy_size_bytes d.db s)
          acc (Database.built_strategies d.db))
      0 sets
  in
  float_of_int idx /. float_of_int (List.fold_left (fun acc d -> acc + d.doc_bytes) 0 sets)

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

(* Fill every item's expected answer from the naive matcher over the
   document it queries (outside any timed window). *)
let compute_expected sets items =
  List.iter
    (fun it -> it.expected <- Tm_query.Naive.query (dataset_of sets it.query.W.dataset).doc it.twig)
    items

(* The end-to-end operation: XPath text in, sorted ids out. *)
let run_query db it =
  let twig = Tm_query.Xpath_parser.parse it.query.W.xpath in
  (Executor.run ~hint:it.hint db twig).Executor.ids

(* Check one answer of every item in full. Returns the mismatching
   "(query, hint)" names. *)
let check_all sets items =
  List.filter_map
    (fun it ->
      match run_query (db_for sets it) it with
      | ids when ids = it.expected -> None
      | _ -> Some (it.query.W.name ^ "/" ^ it.hint_name)
      | exception e -> Some (it.query.W.name ^ "/" ^ it.hint_name ^ ": " ^ Printexc.to_string e))
    items
