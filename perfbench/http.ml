(* A minimal HTTP/1.1 GET client over loopback sockets (the server
   answers with [Connection: close], so one connection per request). *)

type reply = { status : int; body : string }

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 16384 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ();
  Buffer.contents buf

(* [get ~port target]: one request, read to EOF. A connect, read or
   write that blocks longer than [timeout_s] fails with [Unix_error]. *)
let get ?(timeout_s = 10.0) ~port target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" target in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let raw = read_all fd in
      (* "HTTP/1.1 200 OK": the three digits after the first space. *)
      let status =
        match String.index_opt raw ' ' with
        | Some i when String.length raw >= i + 4 ->
          Option.value (int_of_string_opt (String.sub raw (i + 1) 3)) ~default:0
        | _ -> 0
      in
      let body =
        match Str.search_forward (Str.regexp_string "\r\n\r\n") raw 0 with
        | i -> String.sub raw (i + 4) (String.length raw - i - 4)
        | exception Not_found -> ""
      in
      { status; body })

let pct_encode s =
  let b = Buffer.create (String.length s * 2) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' | '/' ->
        Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let query_target ~hint xpath = Printf.sprintf "/query?q=%s&hint=%s" (pct_encode xpath) hint

(* The ids of a /query response body: the array after ["ids":]. *)
let ids_of_body body =
  match Str.search_backward (Str.regexp_string "\"ids\":[") body (String.length body - 1) with
  | exception Not_found -> None
  | i -> (
    let start = i + 7 in
    match String.index_from_opt body start ']' with
    | None -> None
    | Some stop ->
      let inner = String.sub body start (stop - start) in
      if inner = "" then Some []
      else Some (List.map int_of_string (String.split_on_char ',' inner)))

(* Prometheus text: the value of the first sample whose name ends with
   [suffix] (names are prefixed and dot-free). *)
let prom_value text suffix =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; v ] when String.length line > 0 && line.[0] <> '#' ->
           let ln = String.length name and ls = String.length suffix in
           if ln >= ls && String.sub name (ln - ls) ls = suffix then float_of_string_opt v else None
         | _ -> None)
  |> Option.value ~default:0.0
