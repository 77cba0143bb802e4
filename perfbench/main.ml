(* twigbench: the repository benchmark. One workload per invocation;
   the last line of standard output is the JSON result. Normally
   started through perfbench/run.py, which builds it first. *)

open Util

let usage = "twigbench --workload point|ingest --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "");
      ("--seed", Arg.Set_int seed, "");
      ("--seconds", Arg.Set_float seconds, "");
      ("--trace", Arg.Set_int trace, "");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let cfg = { Workloads.seed = !seed; seconds = !seconds; trace = !trace = 1 } in
  let run =
    match !workload with
    | "point" -> Workloads.point
    | "ingest" -> Workloads.ingest
    | w ->
      prerr_endline ("twigbench: unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  let ref_before = cpu_reference_ms () in
  let o = run cfg in
  let ref_after = cpu_reference_ms () in
  if cfg.Workloads.trace then begin
    ensure_out_dir ();
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
    Tracer.write path ~counters:(Tm_obs.Obs.counters ());
    Printf.printf "spans written to %s\n" path
  end;
  List.iter
    (fun x -> Printf.printf "%-34s %16.4f %s\n" x.name x.value x.unit_)
    (o.Workloads.metrics @ o.Workloads.report);
  List.iter
    (fun b ->
      let n = List.length (List.filter (String.equal b) o.Workloads.mismatches) in
      Printf.printf "oracle mismatch: %s (%d answers)\n" b n)
    (List.sort_uniq String.compare o.Workloads.mismatches);
  let env =
    [
      ("workload", json_string !workload);
      ("trace", string_of_int !trace);
      ("seconds", json_float !seconds);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("cpu_reference_ms_before", json_float ref_before);
      ("cpu_reference_ms_after", json_float ref_after);
    ]
    @ o.Workloads.env
  in
  Printf.printf "env %s\n" (json_obj env);
  let correct = o.Workloads.mismatches = [] in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 o.Workloads.attempted));
         ("failed", string_of_int o.Workloads.failed);
         ("metrics", metrics_json o.Workloads.metrics);
       ]);
  exit (if correct then 0 else 1)
