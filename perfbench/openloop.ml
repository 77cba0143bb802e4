(* Open-loop HTTP load: requests are due on a fixed schedule at a given
   rate whatever the server does, and at most [conns] connections are
   in flight (one client thread each). A request is timed from when it
   was due, so a stall also counts against the requests queued behind
   it; how late the generator ran is recorded apart. *)

type request = { target : string; expected : int list }

type sample = {
  due : float;
  sent : float;
  finished : float;
  status : int;  (** 0 when the request raised *)
  ok : bool;  (** 200 with the oracle's ids *)
}

type step = { rate : float; samples : sample array }

let run_step ~port ~conns ~rate ~seconds (req : int -> request) =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let dummy = { due = 0.; sent = 0.; finished = 0.; status = 0; ok = false } in
  let samples = Array.make n dummy in
  let next = Atomic.make 0 in
  let t0 = Util.now_s () +. 0.005 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due = t0 +. (float_of_int i /. rate) in
        let wait = due -. Util.now_s () in
        if wait > 0.0 then Unix.sleepf wait;
        let r = req i in
        let sent = Util.now_s () in
        let reply = try Some (Http.get ~port r.target) with Unix.Unix_error _ | Failure _ -> None in
        let finished = Util.now_s () in
        let status, ok =
          match reply with
          | Some { Http.status = 200; body } -> (200, Http.ids_of_body body = Some r.expected)
          | Some { Http.status; _ } -> (status, false)
          | None -> (0, false)
        in
        samples.(i) <- { due; sent; finished; status; ok };
        loop ()
      end
    in
    loop ()
  in
  let threads = List.init conns (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  { rate; samples }

let latencies_us step =
  Array.map (fun s -> (s.finished -. s.due) *. 1e6) step.samples

let failures step = Array.fold_left (fun acc s -> if s.ok then acc else acc + 1) 0 step.samples

(* Answers that came back 200 with ids other than the oracle's. *)
let wrong_answers step =
  Array.fold_left (fun acc s -> if s.status = 200 && not s.ok then acc + 1 else acc) 0 step.samples

(* Generator lateness (sent - due), in milliseconds. *)
let lateness_ms step = Array.map (fun s -> (s.sent -. s.due) *. 1e3) step.samples

(* A growing backlog: the requests of the last quarter of the step
   waited, at the median, over 1 ms longer than those of the first. *)
let backlog_grew step =
  let late = lateness_ms step in
  let n = Array.length late in
  let q = max 1 (n / 4) in
  let med a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    Util.percentile a 50.0
  in
  n >= 8 && med (Array.sub late (n - q) q) -. med (Array.sub late 0 q) > 1.0
