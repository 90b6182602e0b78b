(* Minimal HTTP/1.0 exposition endpoint for the metrics registry: every
   connection gets one response and is closed. Only enough HTTP is spoken
   for a Prometheus-style scraper or curl: the request head is read (and
   discarded) up to the blank line, then a 200 with the text exposition
   is written. Malformed or oversized request heads get a 400. *)

module Sched = Ivdb_sched.Sched
module Transport = Ivdb_transport.Transport
module Metrics = Ivdb_util.Metrics

let max_head = 8192

(* Read until "\r\n\r\n" (or a lone "\n\n" from sloppy clients), EOF, or
   the size bound. Returns false if the head never terminated. *)
let read_head (conn : Transport.conn) =
  let buf = Bytes.create 512 in
  let acc = Buffer.create 256 in
  let terminated b =
    let s = Buffer.contents b in
    let has sub =
      let n = String.length sub and l = String.length s in
      l >= n && String.sub s (l - n) n = sub
    in
    has "\r\n\r\n" || has "\n\n"
  in
  let rec go () =
    if terminated acc then true
    else if Buffer.length acc > max_head then false
    else
      let n = conn.Transport.read buf 0 (Bytes.length buf) in
      if n = 0 then Buffer.length acc > 0 && terminated acc
      else begin
        Buffer.add_subbytes acc buf 0 n;
        go ()
      end
  in
  go ()

let respond (conn : Transport.conn) ~status ~body =
  let head =
    Printf.sprintf
      "HTTP/1.0 %s\r\nContent-Type: text/plain; version=0.0.4\r\n\
       Content-Length: %d\r\nConnection: close\r\n\r\n"
      status (String.length body)
  in
  conn.Transport.write (head ^ body)

let handle metrics (conn : Transport.conn) =
  (match read_head conn with
  | true -> respond conn ~status:"200 OK" ~body:(Metrics.to_prometheus metrics)
  | false -> respond conn ~status:"400 Bad Request" ~body:"bad request\n"
  | exception _ -> ());
  conn.Transport.close ()

let serve metrics (listener : Transport.listener) =
  ignore
    (Sched.spawn (fun () ->
         let rec loop () =
           match listener.Transport.accept () with
           | Some conn ->
               ignore (Sched.spawn (fun () -> handle metrics conn));
               loop ()
           | None -> ()
         in
         loop ()))
