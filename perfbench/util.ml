(* Clocks, sample sets, metrics and JSON output shared by every
   workload of the benchmark. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Wall time of [f ()] in seconds, with its result. *)
let timed f =
  let t0 = now_s () in
  let x = f () in
  (x, now_s () -. t0)

(* A growable float buffer of latency samples. It lives outside the
   OCaml heap, so that [heap_peak_mb] measures the program's heap, not
   a buffer whose size follows the number of operations a run made. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 4096; n = 0 }

  let add t x =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create float64 c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    Array1.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let get t i = t.a.{i}

  let sorted t =
    let s = Array.init t.n (get t) in
    Array.sort Float.compare s;
    s

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.{i}
    done;
    !s

  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n
end

(* Nearest-rank percentile of a sorted array; [p] in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median_of l =
  match l with
  | [] -> 0.0
  | _ -> percentile (Array.of_list (List.sort Float.compare l)) 50.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Seeded Fisher-Yates shuffle. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Peak major heap of this process, in MB. *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* A fixed integer loop, timed before and after each run so host speed
   drift is visible beside the results. It scales nothing. *)
let cpu_reference_ms () =
  let x = ref 1 in
  let (), s =
    timed (fun () ->
        for i = 1 to 20_000_000 do
          x := (!x * 1103515245) + 12345 + i
        done)
  in
  ignore (Sys.opaque_identity !x);
  s *. 1e3

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_string = Tm_obs.Export.json_string
let json_float = Tm_obs.Export.json_float

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* A measured value with its unit. *)
type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let metrics_json ms =
  json_obj
    (List.map
       (fun x ->
         (x.name, json_obj [ ("value", json_float x.value); ("unit", json_string x.unit_) ]))
       ms)

(* Files the benchmark writes (traces, durable databases) live here,
   inside the checkout it runs from. *)
let out_dir = ".bench_out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Deltas of the program's own {!Tm_obs.Obs} counters over [f]; the
   counters move only while the sink is on. *)
let counter_deltas f =
  let before = Tm_obs.Obs.counters () in
  let x = f () in
  let delta =
    List.map
      (fun (k, v) -> (k, v - Option.value (List.assoc_opt k before) ~default:0))
      (Tm_obs.Obs.counters ())
  in
  (x, delta)

let counter delta name = Option.value (List.assoc_opt name delta) ~default:0
