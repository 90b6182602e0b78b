(* Spans for the traced run.

   The benchmark records a span around each call it makes into a layer,
   the transport shims add one per served request and per shard round
   trip, and a sink on the engine's own trace stream turns each
   lock.wait/lock.grant pair into a span. Every span carries both clocks
   (simulated ticks and wall nanoseconds), its parent, and the id of the
   benchmark transaction it belongs to. Spans stay in memory until the
   run ends; nothing is added inside the engine. *)

module Sched = Ivdb_sched.Sched
module Trace = Ivdb_util.Trace

type span = {
  id : int;
  parent : int;  (** -1 for a transaction's root span *)
  txn : int;
  name : string;
  t0 : int;
  mutable t1 : int;  (** ticks; -1 while open *)
  w0 : int;
  mutable w1 : int;  (** wall ns, reference-kernel runs cut out *)
}

(* Where a fiber currently is: the benchmark transaction it serves and
   its innermost open span. A session owns one; each server connection
   owns one that inherits the transaction of the request it serves. *)
type ctx = { mutable txn : int; mutable cur : int }

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable next_txn : int;
  fibers : (int, ctx) Hashtbl.t;
  events : (string, int ref) Hashtbl.t;  (** engine trace events seen *)
}

let create () =
  {
    spans = [];
    next_id = 0;
    next_txn = 0;
    fibers = Hashtbl.create 64;
    events = Hashtbl.create 32;
  }

let ctx () = { txn = -1; cur = -1 }
let bind t c = Hashtbl.replace t.fibers (Sched.self ()) c

let open_span t c name =
  let s =
    {
      id = t.next_id;
      parent = c.cur;
      txn = c.txn;
      name;
      t0 = Sched.now ();
      t1 = -1;
      w0 = Refclock.work_ns ();
      w1 = -1;
    }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  s

let close_span s =
  s.t1 <- Sched.now ();
  s.w1 <- Refclock.work_ns ()

(* Run [f] inside a child span of [c]'s innermost span. *)
let within tr c name f =
  match tr with
  | None -> f ()
  | Some t ->
      let s = open_span t c name in
      let saved = c.cur in
      c.cur <- s.id;
      Fun.protect
        ~finally:(fun () ->
          close_span s;
          c.cur <- saved)
        f

(* Run [f] as a new benchmark transaction: a fresh id and a root span. *)
let transaction tr c name f =
  match tr with
  | None -> f ()
  | Some t ->
      c.txn <- t.next_txn;
      t.next_txn <- t.next_txn + 1;
      within tr c name f

let count t name =
  match Hashtbl.find_opt t.events name with
  | Some r -> incr r
  | None -> Hashtbl.add t.events name (ref 1)

(* Sink for one engine's trace: lock waits become spans under the
   waiting fiber's innermost span; every event is counted by name. A wait
   that ends in a deadlock abort instead of a grant closes at the abort. *)
let engine_sink t =
  let pending = Hashtbl.create 16 in
  let close_txn txn =
    Hashtbl.filter_map_inplace
      (fun (x, _) s ->
        if x = txn then begin
          close_span s;
          None
        end
        else Some s)
      pending
  in
  fun (r : Trace.record) ->
    count t (Trace.event_name r.event);
    match r.event with
    | Trace.Lock_wait { txn; name; _ } -> (
        match Hashtbl.find_opt t.fibers r.fiber with
        | Some c when c.cur >= 0 ->
            Hashtbl.replace pending (txn, name) (open_span t c "lock.wait")
        | _ -> ())
    | Trace.Lock_grant { txn; name; _ } -> (
        match Hashtbl.find_opt pending (txn, name) with
        | Some s ->
            Hashtbl.remove pending (txn, name);
            close_span s
        | None -> ())
    | Trace.Deadlock_victim { txn } | Trace.Txn_abort { txn } -> close_txn txn
    | _ -> ()

let attach tr sink =
  Trace.add_sink tr sink;
  Trace.set_enabled tr true

let detach tr =
  Trace.set_enabled tr false;
  Trace.clear_sinks tr

(* --- self time --------------------------------------------------------------

   A span's self time is the part of its interval no child covers. Each
   child is clipped to its parent and to the end of the previous sibling,
   so the self times of a subtree partition its root's interval exactly,
   even if a later change makes sibling calls overlap. *)

type analysis = {
  by_id : span array;
  self_ticks : int array;
  self_ns : int array;
  unclosed : int;
  worst_sum_error : float;
      (** max over roots of |sum of subtree self ns - root ns| / root ns *)
}

let analyze t =
  let by_id = Array.of_list (List.rev t.spans) in
  let n = Array.length by_id in
  let unclosed = ref 0 in
  Array.iter
    (fun s ->
      if s.t1 < 0 then begin
        incr unclosed;
        s.t1 <- s.t0;
        s.w1 <- s.w0
      end)
    by_id;
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    let s = by_id.(i) in
    if s.parent >= 0 then children.(s.parent) <- s :: children.(s.parent)
  done;
  let self_ticks = Array.make n 0 and self_ns = Array.make n 0 in
  let partition start stop self =
    let rec visit s lo hi =
      let cursor =
        List.fold_left
          (fun cursor c ->
            let c_lo = max (start c) cursor and c_hi = min (stop c) hi in
            if c_hi > c_lo then begin
              self.(s.id) <- self.(s.id) + (c_lo - cursor);
              visit c c_lo c_hi;
              c_hi
            end
            else cursor)
          lo children.(s.id)
      in
      self.(s.id) <- self.(s.id) + (hi - cursor)
    in
    Array.iter (fun s -> if s.parent < 0 then visit s (start s) (stop s)) by_id
  in
  partition (fun s -> s.t0) (fun s -> s.t1) self_ticks;
  partition (fun s -> s.w0) (fun s -> s.w1) self_ns;
  let subtree_sum = Array.copy self_ns in
  for i = n - 1 downto 0 do
    let s = by_id.(i) in
    if s.parent >= 0 then
      subtree_sum.(s.parent) <- subtree_sum.(s.parent) + subtree_sum.(i)
  done;
  let worst = ref 0. in
  Array.iter
    (fun s ->
      let d = s.w1 - s.w0 in
      if s.parent < 0 && d > 0 then
        worst :=
          Float.max !worst
            (Float.abs (float_of_int (subtree_sum.(s.id) - d)) /. float_of_int d))
    by_id;
  { by_id; self_ticks; self_ns; unclosed = !unclosed; worst_sum_error = !worst }

let write_jsonl t a path =
  let oc = open_out path in
  let base = if Array.length a.by_id = 0 then 0 else a.by_id.(0).w0 in
  Array.iter
    (fun s ->
      Printf.fprintf oc
        ({|{"id": %d, "parent": %d, "txn": %d, "name": "%s", |}
        ^^ {|"t0": %d, "t1": %d, "self_ticks": %d, |}
        ^^ {|"w0_ns": %d, "w1_ns": %d, "self_ns": %d}|})
        s.id s.parent s.txn s.name s.t0 s.t1 a.self_ticks.(s.id) (s.w0 - base)
        (s.w1 - base) a.self_ns.(s.id);
      output_char oc '\n')
    a.by_id;
  let events =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.events []
    |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf {|"%s": %d|} k v)
  in
  Printf.fprintf oc {|{"engine_events": {%s}}|} (String.concat ", " events);
  output_char oc '\n';
  close_out oc
