(* The traced run's spans. Each operation the benchmark makes is one
   {!Tm_obs.Obs} trace whose root carries the operation's id in its
   meta; the benchmark's spans around public calls, and the trees the
   program records itself, sit beneath it. Spans are recorded only
   while the Obs sink is on, so untraced passes record nothing. Every
   finished operation is folded into a per-name summary; the first
   [max_kept] are kept whole and written out when the run ends. *)

module Obs = Tm_obs.Obs
module Export = Tm_obs.Export

(* Per span name: count, total duration and total self time (duration
   minus the time covered by child spans), in seconds. *)
type summary = { count : int; total_s : float; self_s : float }

let by_name : (string, summary) Hashtbl.t = Hashtbl.create 64
let max_kept = 2000
let kept = ref []
let n_kept = ref 0
let n_ops = ref 0
let secs ns = Int64.to_float ns *. 1e-9

let rec fold (s : Obs.span) =
  let d = secs s.Obs.s_elapsed_ns in
  let covered = List.fold_left (fun acc c -> acc +. secs c.Obs.s_elapsed_ns) 0.0 s.Obs.s_children in
  let p =
    Option.value (Hashtbl.find_opt by_name s.Obs.s_name) ~default:{ count = 0; total_s = 0.; self_s = 0. }
  in
  Hashtbl.replace by_name s.Obs.s_name
    { count = p.count + 1; total_s = p.total_s +. d; self_s = p.self_s +. d -. covered };
  List.iter fold s.Obs.s_children

(* [op name f]: [f ()] as one operation, the root span [name]; just
   [f ()] while the sink is off. *)
let op name f =
  if not (Obs.enabled ()) then f ()
  else begin
    incr n_ops;
    let x, root = Obs.trace ~meta:[ ("op", string_of_int !n_ops) ] name f in
    Option.iter
      (fun r ->
        fold r;
        if !n_kept < max_kept then begin
          kept := r :: !kept;
          incr n_kept
        end)
      root;
    x
  end

let summarize () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

(* The summary, the program's counters and the kept operations' span
   trees, as JSON. *)
let write path ~counters =
  let obj = Util.json_obj in
  let oc = open_out path in
  Printf.fprintf oc "{\"summary\": %s,\n\"counters\": %s,\n\"operations\": %d,\n\"traces\": [\n%s\n]}\n"
    (obj
       (List.map
          (fun (k, v) ->
            ( k,
              obj
                [
                  ("count", string_of_int v.count);
                  ("total_us", Export.json_float (v.total_s *. 1e6));
                  ("self_us", Export.json_float (v.self_s *. 1e6));
                ] ))
          (summarize ())))
    (obj (List.map (fun (k, v) -> (k, string_of_int v)) counters))
    !n_ops
    (String.concat ",\n" (List.rev_map Export.trace_to_json !kept));
  close_out oc
