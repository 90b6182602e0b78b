open Effect
open Effect.Deep

exception Stuck of int

type policy = Fifo | Random

type _ Effect.t +=
  | Yield : unit Effect.t
  | Self : int Effect.t
  | Spawn : (unit -> unit) -> int Effect.t
  | Suspend : ((unit -> unit) -> (exn -> unit) -> unit) -> unit Effect.t
  | Now : int Effect.t
  | Advance : int -> unit Effect.t
  | Runnable : int Effect.t
  | Running : bool Effect.t

(* Growable circular buffer used as the run queue; random policy
   swap-removes, which is order-destroying but deterministic under a fixed
   seed. Logical index i lives at physical (head + i) mod capacity, so the
   FIFO pop is an O(1) head advance rather than an O(n) shift. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable head : int; mutable len : int }

  let create () = { data = [||]; head = 0; len = 0 }
  let length v = v.len
  let slot v i = (v.head + i) mod Array.length v.data
  let get v i = v.data.(slot v i)

  let push v x =
    if v.len = Array.length v.data then begin
      (* grow, realigning to head = 0 *)
      let cap = max 8 (2 * Array.length v.data) in
      let data = Array.make cap x in
      for i = 0 to v.len - 1 do
        data.(i) <- get v i
      done;
      v.data <- data;
      v.head <- 0
    end;
    v.data.(slot v v.len) <- x;
    v.len <- v.len + 1

  (* remove logical index i by moving the logical last element into it *)
  let take v i =
    assert (i < v.len);
    let x = get v i in
    v.len <- v.len - 1;
    v.data.(slot v i) <- get v v.len;
    x

  (* FIFO pop: O(1) head-index advance. *)
  let take_front v =
    assert (v.len > 0);
    let x = v.data.(v.head) in
    v.head <- (v.head + 1) mod Array.length v.data;
    v.len <- v.len - 1;
    x
end

type state = {
  runq : (unit -> unit) Vec.t;
  rng : Ivdb_util.Rng.t;
  policy : policy;
  mutable clock : int;
  mutable next_fid : int;
  mutable live : int;
  mutable failure : exn option;
}

let run ?(seed = 0) ?(policy = Random) main =
  let st =
    {
      runq = Vec.create ();
      rng = Ivdb_util.Rng.create seed;
      policy;
      clock = 0;
      next_fid = 1;
      live = 0;
      failure = None;
    }
  in
  let result = ref None in
  let rec exec : type a. int -> (unit -> a) -> (a -> unit) -> unit =
   fun fid body on_return ->
    match_with body ()
      {
        retc = (fun x -> st.live <- st.live - 1; on_return x);
        exnc =
          (fun e ->
            st.live <- st.live - 1;
            if st.failure = None then st.failure <- Some e);
        effc =
          (fun (type b) (eff : b Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (b, _) continuation) ->
                    Vec.push st.runq (fun () -> continue k ()))
            | Self -> Some (fun k -> continue k fid)
            | Now -> Some (fun k -> continue k st.clock)
            | Runnable -> Some (fun k -> continue k (Vec.length st.runq))
            | Running -> Some (fun k -> continue k true)
            | Advance n ->
                Some
                  (fun k ->
                    st.clock <- st.clock + n;
                    continue k ())
            | Spawn fbody ->
                Some
                  (fun k ->
                    let fid = st.next_fid in
                    st.next_fid <- fid + 1;
                    st.live <- st.live + 1;
                    Vec.push st.runq (fun () -> exec fid fbody (fun () -> ()));
                    continue k fid)
            | Suspend register ->
                Some
                  (fun k ->
                    let fired = ref false in
                    let wake () =
                      if not !fired then begin
                        fired := true;
                        Vec.push st.runq (fun () -> continue k ())
                      end
                    in
                    let cancel e =
                      if not !fired then begin
                        fired := true;
                        Vec.push st.runq (fun () -> discontinue k e)
                      end
                    in
                    register wake cancel)
            | _ -> None);
      }
  in
  st.live <- 1;
  Vec.push st.runq (fun () -> exec 0 main (fun x -> result := Some x));
  while Vec.length st.runq > 0 && st.failure = None do
    let step =
      match st.policy with
      | Fifo -> Vec.take_front st.runq
      | Random -> Vec.take st.runq (Ivdb_util.Rng.int st.rng (Vec.length st.runq))
    in
    st.clock <- st.clock + 1;
    step ()
  done;
  (match st.failure with Some e -> raise e | None -> ());
  if st.live > 0 then raise (Stuck st.live);
  match !result with
  | Some x -> x
  | None -> assert false (* main finished without failure => result set *)

let outside_run : type a. a Effect.t -> exn -> a =
 fun eff e ->
  match eff with
  | Yield -> ()
  | Self -> 0
  | Now -> 0
  | Runnable -> 0
  | Running -> false
  | Advance _ -> ()
  | Suspend _ -> raise (Stuck 1)
  | Spawn _ -> raise (Stuck 1)
  | _ -> raise e

let with_fallback : type a. a Effect.t -> a =
 fun eff -> try perform eff with Effect.Unhandled _ as e -> outside_run eff e

let spawn f = with_fallback (Spawn f)
let yield () = with_fallback Yield

let self () = with_fallback Self
let suspend register = with_fallback (Suspend register)
let now () = with_fallback Now
let advance n = with_fallback (Advance n)
(* the running fiber was taken off the run queue, so its length counts
   the others *)
let runnable () = with_fallback Runnable

(* true iff the caller executes inside a scheduler run (so spawn/suspend are
   available); single-threaded callers outside any run get false *)
let in_run () = with_fallback Running

(* The one spawn-and-wait skeleton every closed loop and crash driver uses.
   The wake is registered by [wait]; a fiber finishing before anyone waits
   calls the no-op placeholder. *)
let spawn_group n f =
  let remaining = ref n in
  let wake_main = ref ignore in
  for i = 1 to n do
    ignore
      (spawn (fun () ->
           Fun.protect
             ~finally:(fun () ->
               decr remaining;
               if !remaining = 0 then !wake_main ())
             (fun () -> f i)))
  done;
  let wait () =
    if !remaining > 0 then suspend (fun wake _cancel -> wake_main := wake)
  in
  (wait, fun () -> !remaining > 0)
