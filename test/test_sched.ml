module Sched = Ivdb_sched.Sched

let check = Alcotest.check

let test_run_returns () =
  check Alcotest.int "result" 42 (Sched.run (fun () -> 42))

let test_spawn_runs_all () =
  let hits = ref [] in
  Sched.run (fun () ->
      for i = 1 to 5 do
        ignore (Sched.spawn (fun () -> hits := i :: !hits))
      done);
  check Alcotest.int "all fibers ran" 5 (List.length !hits)

let trace_of ~seed =
  let trace = ref [] in
  Sched.run ~seed (fun () ->
      for i = 1 to 4 do
        ignore
          (Sched.spawn (fun () ->
               trace := (i, 'a') :: !trace;
               Sched.yield ();
               trace := (i, 'b') :: !trace))
      done);
  List.rev !trace

let test_determinism_same_seed () =
  check
    Alcotest.(list (pair int char))
    "identical traces" (trace_of ~seed:7) (trace_of ~seed:7)

let test_determinism_seed_matters () =
  let t1 = trace_of ~seed:1 and t2 = trace_of ~seed:2 in
  Alcotest.(check bool) "seeds change interleaving" true (t1 <> t2)

let test_fifo_policy_round_robin () =
  let trace = ref [] in
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore (Sched.spawn (fun () -> trace := 1 :: !trace));
      ignore (Sched.spawn (fun () -> trace := 2 :: !trace));
      ignore (Sched.spawn (fun () -> trace := 3 :: !trace)));
  check Alcotest.(list int) "fifo order" [ 1; 2; 3 ] (List.rev !trace)

let test_suspend_wake () =
  let woken = ref false in
  let waker = ref (fun () -> ()) in
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore
        (Sched.spawn (fun () ->
             Sched.suspend (fun wake _cancel -> waker := wake);
             woken := true));
      ignore (Sched.spawn (fun () -> !waker ())));
  Alcotest.(check bool) "resumed after wake" true !woken

exception Killed

let test_suspend_cancel () =
  let observed = ref false in
  let canceller = ref (fun _ -> ()) in
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore
        (Sched.spawn (fun () ->
             (try Sched.suspend (fun _wake cancel -> canceller := cancel)
              with Killed -> observed := true)));
      ignore (Sched.spawn (fun () -> !canceller Killed)));
  Alcotest.(check bool) "exception delivered at suspension" true !observed

let test_cancel_then_wake_ignored () =
  let resumes = ref 0 in
  let cb = ref (fun () -> ()) and cc = ref (fun _ -> ()) in
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore
        (Sched.spawn (fun () ->
             (try
                Sched.suspend (fun wake cancel ->
                    cb := wake;
                    cc := cancel)
              with Killed -> ());
             incr resumes));
      ignore
        (Sched.spawn (fun () ->
             !cc Killed;
             !cb ())));
  check Alcotest.int "only one resumption" 1 !resumes

let test_stuck_detection () =
  Alcotest.check_raises "stuck" (Sched.Stuck 1) (fun () ->
      Sched.run (fun () ->
          ignore (Sched.spawn (fun () -> Sched.suspend (fun _ _ -> ())))))

let test_clock_advances () =
  let start, finish =
    Sched.run (fun () ->
        let a = Sched.now () in
        Sched.advance 500;
        (a, Sched.now ()))
  in
  Alcotest.(check bool) "advance adds" true (finish >= start + 500)

let test_self_ids () =
  let ids = ref [] in
  Sched.run (fun () ->
      ids := Sched.self () :: !ids;
      for _ = 1 to 3 do
        ignore (Sched.spawn (fun () -> ids := Sched.self () :: !ids))
      done);
  let sorted = List.sort_uniq compare !ids in
  check Alcotest.int "distinct fiber ids" 4 (List.length sorted)

let test_fiber_exception_propagates () =
  Alcotest.check_raises "propagates" Killed (fun () ->
      Sched.run (fun () -> ignore (Sched.spawn (fun () -> raise Killed))))

let test_outside_run_fallbacks () =
  Sched.yield ();
  check Alcotest.int "self" 0 (Sched.self ());
  check Alcotest.int "now" 0 (Sched.now ());
  Sched.advance 10;
  check Alcotest.int "runnable" 0 (Sched.runnable ())

let test_in_run () =
  Alcotest.(check bool) "outside" false (Sched.in_run ());
  let inside = Sched.run (fun () -> Sched.in_run ()) in
  Alcotest.(check bool) "inside" true inside;
  Alcotest.(check bool) "after" false (Sched.in_run ())

(* [runnable] counts the other fibers on the run queue: not the caller,
   not a suspended fiber; asking costs no tick *)
let test_runnable () =
  check Alcotest.int "outside a run" 0 (Sched.runnable ());
  Sched.run ~policy:Sched.Fifo (fun () ->
      check Alcotest.int "main alone" 0 (Sched.runnable ());
      let wake_b = ref ignore in
      ignore (Sched.spawn ignore);
      ignore (Sched.spawn (fun () -> Sched.suspend (fun wake _ -> wake_b := wake)));
      check Alcotest.int "two spawned" 2 (Sched.runnable ());
      let t0 = Sched.now () in
      ignore (Sched.runnable ());
      check Alcotest.int "asking costs no tick" t0 (Sched.now ());
      Sched.yield ();
      check Alcotest.int "one finished, one suspended" 0 (Sched.runnable ());
      !wake_b ();
      check Alcotest.int "woken" 1 (Sched.runnable ()))

(* the FIFO run queue is a circular buffer whose head index wraps; a long
   churn of spawn/yield must preserve strict round-robin order across many
   wraparounds *)
let test_fifo_order_survives_wraparound () =
  let trace = ref [] in
  Sched.run ~policy:Sched.Fifo (fun () ->
      for i = 1 to 13 do
        ignore
          (Sched.spawn (fun () ->
               for round = 1 to 17 do
                 trace := (round, i) :: !trace;
                 Sched.yield ()
               done))
      done);
  let expected =
    List.concat_map
      (fun round -> List.init 13 (fun i -> (round, i + 1)))
      (List.init 17 (fun r -> r + 1))
  in
  check
    Alcotest.(list (pair int int))
    "strict round-robin across wraps" expected (List.rev !trace)

let test_nested_spawn () =
  let count = ref 0 in
  Sched.run (fun () ->
      ignore
        (Sched.spawn (fun () ->
             incr count;
             ignore (Sched.spawn (fun () -> incr count)))));
  check Alcotest.int "nested fibers run" 2 !count

(* --- spawn_group ------------------------------------------------------ *)

let test_group_wait_returns_after_all () =
  let finished = ref 0 and at_wait = ref (-1) in
  Sched.run ~seed:3 (fun () ->
      let wait, _ =
        Sched.spawn_group 4 (fun i ->
            for _ = 1 to 3 * i do
              Sched.yield ()
            done;
            incr finished)
      in
      wait ();
      at_wait := !finished);
  check Alcotest.int "every worker finished before wait returned" 4 !at_wait

let test_group_running_flips_at_last_exit () =
  let n = 3 in
  let finished = ref 0 and samples = ref [] in
  Sched.run ~seed:5 (fun () ->
      let wait, running =
        Sched.spawn_group n (fun i ->
            for _ = 1 to 2 * i do
              Sched.yield ()
            done;
            incr finished)
      in
      let sample () = samples := (!finished, running ()) :: !samples in
      sample ();
      ignore
        (Sched.spawn (fun () ->
             while running () do
               sample ();
               Sched.yield ()
             done;
             sample ()));
      wait ();
      sample ());
  Alcotest.(check bool)
    "running () holds exactly while a worker is left" true
    (List.for_all (fun (f, r) -> r = (f < n)) !samples);
  Alcotest.(check bool)
    "both sides of the flip were observed" true
    (List.exists snd !samples && List.exists (fun (_, r) -> not r) !samples)

let test_group_raising_worker_counts_down () =
  let running = ref (fun () -> true) in
  (match
     Sched.run ~policy:Sched.Fifo (fun () ->
         let wait, r =
           Sched.spawn_group 2 (fun i ->
               if i = 2 then begin
                 Sched.yield ();
                 failwith "boom"
               end)
         in
         running := r;
         wait ())
   with
  | () -> Alcotest.fail "expected the worker's exception"
  | exception Failure m -> check Alcotest.string "the worker's exception" "boom" m);
  Alcotest.(check bool) "the raising worker counted itself down" false
    (!running ())

let test_group_all_blocked_is_stuck () =
  match
    Sched.run (fun () ->
        let wait, _ =
          Sched.spawn_group 3 (fun _ -> Sched.suspend (fun _wake _cancel -> ()))
        in
        wait ())
  with
  | () -> Alcotest.fail "expected Stuck"
  | exception Sched.Stuck n ->
      check Alcotest.int "main and the three workers are stuck" 4 n

let () =
  Alcotest.run "sched"
    [
      ( "core",
        [
          Alcotest.test_case "run returns" `Quick test_run_returns;
          Alcotest.test_case "spawn runs all" `Quick test_spawn_runs_all;
          Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
          Alcotest.test_case "self ids" `Quick test_self_ids;
          Alcotest.test_case "exception propagates" `Quick test_fiber_exception_propagates;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same trace" `Quick test_determinism_same_seed;
          Alcotest.test_case "seed matters" `Quick test_determinism_seed_matters;
          Alcotest.test_case "fifo round robin" `Quick test_fifo_policy_round_robin;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
          Alcotest.test_case "suspend/cancel" `Quick test_suspend_cancel;
          Alcotest.test_case "cancel then wake ignored" `Quick test_cancel_then_wake_ignored;
          Alcotest.test_case "stuck detection" `Quick test_stuck_detection;
        ] );
      ( "clock",
        [
          Alcotest.test_case "advance" `Quick test_clock_advances;
          Alcotest.test_case "outside run fallbacks" `Quick test_outside_run_fallbacks;
          Alcotest.test_case "in_run probe" `Quick test_in_run;
          Alcotest.test_case "runnable counts the others" `Quick test_runnable;
          Alcotest.test_case "fifo order survives wraparound" `Quick
            test_fifo_order_survives_wraparound;
        ] );
      ( "group",
        [
          Alcotest.test_case "wait returns after every worker" `Quick
            test_group_wait_returns_after_all;
          Alcotest.test_case "running flips at the last exit" `Quick
            test_group_running_flips_at_last_exit;
          Alcotest.test_case "a raising worker counts down" `Quick
            test_group_raising_worker_counts_down;
          Alcotest.test_case "all workers blocked is Stuck" `Quick
            test_group_all_blocked_is_stuck;
        ] );
    ]
