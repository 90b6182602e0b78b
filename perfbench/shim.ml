(* Transport shims over one loopback network.

   The dialer and listener records are wrapped, not replaced: every byte
   still flows through [Transport.Loopback]. The shims count wire bytes
   and frames (one write is one frame), and in the traced run they open
   a [server.service] span from the moment a request's bytes are read to
   the moment its response is written, and optionally a
   [coord.shard_rpc] span from a request's write to the first byte of its
   reply. The two ends of a loopback connection share its id, which is
   how a served request finds the span of the session that sent it. *)

module Transport = Ivdb_transport.Transport

type conn_state = {
  owner : Spans.ctx;  (** the session that dialed *)
  srv : Spans.ctx;  (** the server fiber while it serves this connection *)
  mutable rpc : Spans.span option;
  mutable svc : Spans.span option;
}

type t = {
  net : Transport.Loopback.net;
  tr : Spans.t option;
  rpc_spans : bool;
  conns : (int, conn_state) Hashtbl.t;
  mutable bytes : int;
  mutable frames : int;
}

let create ?(rpc_spans = false) tr =
  {
    net = Transport.Loopback.create ~backlog:256 ();
    tr;
    rpc_spans;
    conns = Hashtbl.create 64;
    bytes = 0;
    frames = 0;
  }

let counted t write s =
  t.bytes <- t.bytes + String.length s;
  t.frames <- t.frames + 1;
  write s

let client_conn t st (c : Transport.conn) =
  {
    c with
    write =
      (fun s ->
        (match t.tr with
        | Some tr when t.rpc_spans && st.owner.Spans.cur >= 0 ->
            st.rpc <- Some (Spans.open_span tr st.owner "coord.shard_rpc")
        | _ -> ());
        counted t c.write s);
    read =
      (fun b off len ->
        let n = c.read b off len in
        (match st.rpc with
        | Some s when n > 0 ->
            Spans.close_span s;
            st.rpc <- None
        | _ -> ());
        n);
  }

let server_conn t st (c : Transport.conn) =
  {
    c with
    read =
      (fun b off len ->
        let n = c.read b off len in
        (match t.tr with
        | Some tr when n > 0 && st.svc = None ->
            let parent =
              match st.rpc with Some s -> s.Spans.id | None -> st.owner.cur
            in
            if parent >= 0 then begin
              st.srv.txn <- st.owner.txn;
              st.srv.cur <- parent;
              let s = Spans.open_span tr st.srv "server.service" in
              st.srv.cur <- s.id;
              st.svc <- Some s;
              Spans.bind tr st.srv
            end
        | _ -> ());
        n);
    write =
      (fun s ->
        (match st.svc with
        | Some sp ->
            Spans.close_span sp;
            st.svc <- None;
            st.srv.cur <- -1
        | None -> ());
        counted t c.write s);
  }

let state t id owner =
  match Hashtbl.find_opt t.conns id with
  | Some st -> st
  | None ->
      let st = { owner; srv = Spans.ctx (); rpc = None; svc = None } in
      Hashtbl.replace t.conns id st;
      st

(* A dialer for one session: its connections report to [owner]. *)
let dialer t owner =
  {
    Transport.addr = "loopback";
    dial =
      (fun () ->
        let c = Transport.Loopback.connect t.net in
        client_conn t (state t c.id owner) c);
  }

let listener t =
  let l = Transport.Loopback.listener t.net in
  {
    l with
    accept =
      (fun () ->
        Option.map
          (fun (c : Transport.conn) ->
            server_conn t (state t c.id (Spans.ctx ())) c)
          (l.accept ()));
  }
