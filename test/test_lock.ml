module Sched = Ivdb_sched.Sched
module Mode = Ivdb_lock.Lock_mode
module Name = Ivdb_lock.Lock_name
module Mgr = Ivdb_lock.Lock_mgr
module Metrics = Ivdb_util.Metrics

let check = Alcotest.check
let table1 = Name.Table 1
let key k = Name.Key (1, k)

(* --- compatibility matrix ------------------------------------------------- *)

let compat r g = Mode.compat ~requested:r ~granted:g

let test_escrow_compat () =
  Alcotest.(check bool) "E with E" true (compat Mode.E Mode.E);
  Alcotest.(check bool) "E vs S" false (compat Mode.E Mode.S);
  Alcotest.(check bool) "S vs E" false (compat Mode.S Mode.E);
  Alcotest.(check bool) "E vs X" false (compat Mode.E Mode.X);
  Alcotest.(check bool) "E vs U" false (compat Mode.E Mode.U);
  (* an insert below an escrow-locked key is fine: gap-only vs key-only *)
  Alcotest.(check bool) "RangeI_N vs E" true (compat Mode.RangeI_N Mode.E)

let test_classic_matrix () =
  Alcotest.(check bool) "S-S" true (compat Mode.S Mode.S);
  Alcotest.(check bool) "S-X" false (compat Mode.S Mode.X);
  Alcotest.(check bool) "IS-IX" true (compat Mode.IS Mode.IX);
  Alcotest.(check bool) "IX-IX" true (compat Mode.IX Mode.IX);
  Alcotest.(check bool) "IX-S" false (compat Mode.IX Mode.S);
  Alcotest.(check bool) "SIX-IS" true (compat Mode.SIX Mode.IS);
  Alcotest.(check bool) "SIX-IX" false (compat Mode.SIX Mode.IX);
  (* U asymmetry: U joins granted S, but S may not join granted U *)
  Alcotest.(check bool) "U vs granted S" true (compat Mode.U Mode.S);
  Alcotest.(check bool) "S vs granted U" false (compat Mode.S Mode.U);
  Alcotest.(check bool) "U-U" false (compat Mode.U Mode.U)

let test_range_matrix () =
  Alcotest.(check bool) "RangeS_S vs RangeS_S" true (compat Mode.RangeS_S Mode.RangeS_S);
  Alcotest.(check bool) "RangeI_N vs RangeS_S" false (compat Mode.RangeI_N Mode.RangeS_S);
  Alcotest.(check bool) "RangeI_N vs RangeI_N" true (compat Mode.RangeI_N Mode.RangeI_N);
  (* RangeI_N locks only the gap: key locks on the next key are unaffected *)
  Alcotest.(check bool) "RangeI_N vs X" true (compat Mode.RangeI_N Mode.X);
  Alcotest.(check bool) "X vs RangeI_N" true (compat Mode.X Mode.RangeI_N);
  Alcotest.(check bool) "RangeX_X vs anything" false (compat Mode.RangeX_X Mode.S);
  Alcotest.(check bool) "S vs RangeX_X" false (compat Mode.S Mode.RangeX_X);
  Alcotest.(check bool) "S vs RangeS_S" true (compat Mode.S Mode.RangeS_S)

let test_sup () =
  Alcotest.(check string) "S+IX" "SIX" (Mode.to_string (Mode.sup Mode.S Mode.IX));
  Alcotest.(check string) "S+X" "X" (Mode.to_string (Mode.sup Mode.S Mode.X));
  Alcotest.(check string) "E+E" "E" (Mode.to_string (Mode.sup Mode.E Mode.E));
  Alcotest.(check string) "E+S escalates" "X" (Mode.to_string (Mode.sup Mode.E Mode.S));
  Alcotest.(check string) "RangeS_S+X" "RangeX-X"
    (Mode.to_string (Mode.sup Mode.RangeS_S Mode.X));
  Alcotest.(check bool) "covers reflexive" true (Mode.covers ~held:Mode.X ~req:Mode.S);
  Alcotest.(check bool) "S does not cover X" false (Mode.covers ~held:Mode.S ~req:Mode.X)

(* --- manager behaviour ----------------------------------------------------- *)

(* Owners of [name], as sys.locks lists them. *)
let holders mgr name =
  List.find_map (fun (n, owners, _) -> if n = name then Some owners else None) (Mgr.dump mgr)
  |> Option.value ~default:[]

let with_mgr f =
  let m = Metrics.create () in
  let mgr = Mgr.create m in
  f mgr m

let test_grant_and_release () =
  with_mgr (fun mgr _ ->
      Mgr.acquire mgr ~txn:1 table1 Mode.S;
      Mgr.acquire mgr ~txn:2 table1 Mode.S;
      check Alcotest.int "two holders" 2 (List.length (holders mgr table1));
      Mgr.release_all mgr ~txn:1;
      check Alcotest.int "one holder" 1 (List.length (holders mgr table1));
      Mgr.release_all mgr ~txn:2;
      Alcotest.(check bool) "unlocked" true (Mgr.unlocked mgr table1))

let test_reentrant () =
  with_mgr (fun mgr _ ->
      Mgr.acquire mgr ~txn:1 table1 Mode.X;
      Mgr.acquire mgr ~txn:1 table1 Mode.S;
      (* covered *)
      check Alcotest.int "single entry" 1 (List.length (holders mgr table1)))

let test_escrow_group () =
  with_mgr (fun mgr _ ->
      let k = key "g1" in
      Mgr.acquire mgr ~txn:1 k Mode.E;
      Mgr.acquire mgr ~txn:2 k Mode.E;
      Mgr.acquire mgr ~txn:3 k Mode.E;
      check Alcotest.int "three concurrent escrow holders" 3
        (List.length (holders mgr k));
      Sched.run ~policy:Sched.Fifo (fun () ->
          ignore (Sched.spawn (fun () -> Mgr.acquire mgr ~txn:4 k Mode.S));
          Sched.yield ();
          (match Mgr.waits mgr with
          | [ w ] ->
              check Alcotest.int "reader would block" 4 w.Mgr.w_txn;
              check Alcotest.(list int) "behind every escrow holder" [ 1; 2; 3 ]
                w.Mgr.w_blockers
          | ws -> Alcotest.failf "expected one wait, got %d" (List.length ws));
          List.iter (fun txn -> Mgr.release_all mgr ~txn) [ 1; 2; 3 ]);
      check Alcotest.(list int) "reader granted after release" [ 4 ]
        (List.map fst (holders mgr k)))

let test_blocking_and_wakeup () =
  with_mgr (fun mgr m ->
      let order = ref [] in
      Sched.run ~policy:Sched.Fifo (fun () ->
          ignore
            (Sched.spawn (fun () ->
                 Mgr.acquire mgr ~txn:1 table1 Mode.X;
                 order := "t1-got" :: !order;
                 Sched.yield ();
                 Sched.yield ();
                 Mgr.release_all mgr ~txn:1;
                 order := "t1-released" :: !order));
          ignore
            (Sched.spawn (fun () ->
                 Sched.yield ();
                 Mgr.acquire mgr ~txn:2 table1 Mode.S;
                 order := "t2-got" :: !order;
                 Mgr.release_all mgr ~txn:2)));
      check
        Alcotest.(list string)
        "blocked until release"
        [ "t1-got"; "t1-released"; "t2-got" ]
        (List.rev !order);
      Alcotest.(check bool) "wait counted" true (Metrics.get m "lock.wait" >= 1))

let test_fifo_fairness_no_starvation () =
  (* S held; X waits; later S must queue behind X, not starve it *)
  with_mgr (fun mgr _ ->
      let order = ref [] in
      Sched.run ~policy:Sched.Fifo (fun () ->
          Mgr.acquire mgr ~txn:1 table1 Mode.S;
          ignore
            (Sched.spawn (fun () ->
                 Mgr.acquire mgr ~txn:2 table1 Mode.X;
                 order := "x" :: !order;
                 Mgr.release_all mgr ~txn:2));
          ignore
            (Sched.spawn (fun () ->
                 Sched.yield ();
                 Mgr.acquire mgr ~txn:3 table1 Mode.S;
                 order := "s" :: !order;
                 Mgr.release_all mgr ~txn:3));
          Sched.yield ();
          Sched.yield ();
          Mgr.release_all mgr ~txn:1);
      check Alcotest.(list string) "x granted before late s" [ "x"; "s" ] (List.rev !order))

let test_deadlock_detection () =
  with_mgr (fun mgr m ->
      let a = Name.Table 1 and b = Name.Table 2 in
      let victims = ref [] in
      Sched.run ~policy:Sched.Fifo (fun () ->
          ignore
            (Sched.spawn (fun () ->
                 try
                   Mgr.acquire mgr ~txn:1 a Mode.X;
                   Sched.yield ();
                   Sched.yield ();
                   Mgr.acquire mgr ~txn:1 b Mode.X;
                   Mgr.release_all mgr ~txn:1
                 with Mgr.Deadlock v ->
                   victims := v :: !victims;
                   Mgr.release_all mgr ~txn:1));
          ignore
            (Sched.spawn (fun () ->
                 try
                   Mgr.acquire mgr ~txn:2 b Mode.X;
                   Sched.yield ();
                   Sched.yield ();
                   Mgr.acquire mgr ~txn:2 a Mode.X;
                   Mgr.release_all mgr ~txn:2
                 with Mgr.Deadlock v ->
                   victims := v :: !victims;
                   Mgr.release_all mgr ~txn:2)));
      check Alcotest.(list int) "youngest is the victim" [ 2 ] !victims;
      Alcotest.(check bool) "counted" true (Metrics.get m "lock.deadlock" >= 1))

let test_conversion_deadlock () =
  (* two S holders both upgrading to X *)
  with_mgr (fun mgr _ ->
      let victims = ref [] and successes = ref 0 in
      Sched.run ~policy:Sched.Fifo (fun () ->
          let worker txn =
            try
              Mgr.acquire mgr ~txn table1 Mode.S;
              Sched.yield ();
              Sched.yield ();
              Mgr.acquire mgr ~txn table1 Mode.X;
              incr successes;
              Mgr.release_all mgr ~txn
            with Mgr.Deadlock v ->
              victims := v :: !victims;
              Mgr.release_all mgr ~txn
          in
          ignore (Sched.spawn (fun () -> worker 1));
          ignore (Sched.spawn (fun () -> worker 2)));
      check Alcotest.(list int) "one victim, the youngest" [ 2 ] !victims;
      check Alcotest.int "other converts" 1 !successes)

let test_victim_removal_unblocks_queue () =
  (* T1 holds E on K; reader T2 (holding S on L) waits for S on K; T3's E
     queues behind T2. T1 then requests X on L, closing a T1-T2 cycle. T2
     is the victim: removing its queued request must let the sweep grant
     T3's E (compatible with T1's E) immediately — before T2's abort. *)
  with_mgr (fun mgr _ ->
      let k = key "K" and l = key "L" in
      let events = ref [] in
      Sched.run ~policy:Sched.Fifo (fun () ->
          Mgr.acquire mgr ~txn:1 k Mode.E;
          ignore
            (Sched.spawn (fun () ->
                 Mgr.acquire mgr ~txn:2 l Mode.S;
                 try
                   Mgr.acquire mgr ~txn:2 k Mode.S;
                   Alcotest.fail "reader should be the deadlock victim"
                 with Mgr.Deadlock _ ->
                   events := `Victim :: !events;
                   Mgr.release_all mgr ~txn:2));
          ignore
            (Sched.spawn (fun () ->
                 Sched.yield ();
                 Mgr.acquire mgr ~txn:3 k Mode.E;
                 events := `E3_granted :: !events;
                 Mgr.release_all mgr ~txn:3));
          Sched.yield ();
          Sched.yield ();
          Sched.yield ();
          (* closes the cycle: T1 -> T2 (S on L), T2 -> T1 (E on K) *)
          Mgr.acquire mgr ~txn:1 l Mode.X;
          events := `T1_got_l :: !events;
          Mgr.release_all mgr ~txn:1);
      let names =
        List.rev_map
          (function `Victim -> "victim" | `E3_granted -> "e3" | `T1_got_l -> "t1-l")
          !events
      in
      (* the essential property: e3 was granted at all (the victim-removal
         sweep woke it; without the sweep the run deadlocks with Stuck),
         and T1 eventually acquired L after the victim aborted *)
      Alcotest.(check bool) "e3 granted" true (List.mem "e3" names);
      Alcotest.(check bool) "victim aborted" true (List.mem "victim" names);
      check Alcotest.(option string) "t1 finishes last" (Some "t1-l")
        (List.nth_opt names (List.length names - 1)))

let test_skip_ahead_grant () =
  (* holder X; an S waits; an instant RangeI_N — compatible with both the
     holder (gap vs key) and the queued S — must be granted immediately
     instead of queueing behind the S (the positional-blocking deadlock
     this policy exists to prevent) *)
  with_mgr (fun mgr _ ->
      let k = key "hot" in
      let got_gap = ref false in
      Sched.run ~policy:Sched.Fifo (fun () ->
          Mgr.acquire mgr ~txn:1 k Mode.X;
          ignore
            (Sched.spawn (fun () ->
                 Mgr.acquire mgr ~txn:2 k Mode.S;
                 Mgr.release_all mgr ~txn:2));
          ignore
            (Sched.spawn (fun () ->
                 Sched.yield ();
                 Mgr.acquire_instant mgr ~txn:3 k Mode.RangeI_N;
                 got_gap := true));
          Sched.yield ();
          Sched.yield ();
          Sched.yield ();
          Alcotest.(check bool) "granted while X held and S waiting" true !got_gap;
          Mgr.release_all mgr ~txn:1))

let test_instant_lock_not_retained () =
  with_mgr (fun mgr _ ->
      Sched.run (fun () ->
          Mgr.acquire_instant mgr ~txn:1 (key "k") Mode.RangeI_N;
          Alcotest.(check bool) "nothing retained" true (Mgr.unlocked mgr (key "k"))))

let test_instant_lock_waits () =
  with_mgr (fun mgr _ ->
      let got = ref false in
      Sched.run ~policy:Sched.Fifo (fun () ->
          Mgr.acquire mgr ~txn:1 (key "k") Mode.RangeS_S;
          ignore
            (Sched.spawn (fun () ->
                 (* RangeI_N conflicts with the range lock: must wait *)
                 Mgr.acquire_instant mgr ~txn:2 (key "k") Mode.RangeI_N;
                 got := true));
          Sched.yield ();
          Alcotest.(check bool) "still waiting" false !got;
          Mgr.release_all mgr ~txn:1);
      Alcotest.(check bool) "granted after release" true !got)

let test_held_reporting () =
  with_mgr (fun mgr _ ->
      Mgr.acquire mgr ~txn:7 table1 Mode.IX;
      Mgr.acquire mgr ~txn:7 (key "a") Mode.E;
      check Alcotest.int "lock count" 2 (Mgr.lock_count mgr ~txn:7);
      Alcotest.(check bool) "holds E" true (Mgr.held_mode mgr ~txn:7 (key "a") = Some Mode.E))


(* --- the escrow pass --------------------------------------------------------- *)

(* Runs [f] as transaction [txn]: a [Deadlock] is recorded instead of
   failing, and the transaction releases its locks either way. *)
let guarded mgr ~committed ~victims txn f =
  (try
     f ();
     committed := txn :: !committed
   with Mgr.Deadlock v -> victims := v :: !victims);
  Mgr.release_all mgr ~txn

let test_writers_pass_readers () =
  (* W1 holds E(g1) and asks for g2 behind reader R2; R2 waits for W3's
     E(g2); W3 asks for g1 behind reader R1; R1 waits for W1. Queued
     behind the readers, the writers close the cycle W1 -> R2 -> W3 -> R1
     -> W1; writers that already hold E pass the readers instead. *)
  with_mgr (fun mgr m ->
      let g1 = key "g1" and g2 = key "g2" in
      let w1 = 1 and r2 = 2 and w3 = 3 and r1 = 4 in
      let committed = ref [] and victims = ref [] in
      let txn id f = ignore (Sched.spawn (fun () -> guarded mgr ~committed ~victims id f)) in
      let g1_holders, blockers =
        Sched.run ~policy:Sched.Fifo (fun () ->
            Mgr.acquire mgr ~txn:w1 g1 Mode.E;
            Mgr.acquire mgr ~txn:w3 g2 Mode.E;
            txn r1 (fun () -> Mgr.acquire mgr ~txn:r1 g1 Mode.S);
            txn r2 (fun () -> Mgr.acquire mgr ~txn:r2 g2 Mode.S);
            Sched.yield ();
            check Alcotest.(list int) "both readers wait" [ r2; r1 ]
              (List.map (fun w -> w.Mgr.w_txn) (Mgr.waits mgr));
            let writer id g =
              txn id (fun () ->
                  Mgr.acquire mgr ~txn:id g Mode.E;
                  Sched.yield ();
                  Sched.yield ())
            in
            writer w1 g2;
            writer w3 g1;
            Sched.yield ();
            ( List.sort compare (List.map fst (holders mgr g1)),
              List.map (fun w -> w.Mgr.w_blockers) (Mgr.waits mgr) ))
      in
      check Alcotest.(list int) "no deadlock" [] !victims;
      check Alcotest.int "none counted" 0 (Metrics.get m "lock.deadlock");
      check Alcotest.(list int) "both writers held g1" [ w1; w3 ] g1_holders;
      check
        Alcotest.(list (list int))
        "each reader waited for both writers" [ [ w1; w3 ]; [ w1; w3 ] ] blockers;
      check Alcotest.(list int) "all four commit" [ 1; 2; 3; 4 ]
        (List.sort compare !committed))

let test_fresh_writer_queues_behind_reader () =
  (* a writer holding no E lock yet keeps its arrival place: it waits
     behind the queued reader, and the reader is granted the moment the
     E owner leaves *)
  with_mgr (fun mgr _ ->
      let g = key "g" and other = key "other" in
      let committed = ref [] and victims = ref [] in
      Sched.run ~policy:Sched.Fifo (fun () ->
          Mgr.acquire mgr ~txn:1 g Mode.E;
          Mgr.acquire mgr ~txn:3 other Mode.X;
          ignore
            (Sched.spawn (fun () ->
                 guarded mgr ~committed ~victims 2 (fun () ->
                     Mgr.acquire mgr ~txn:2 g Mode.S;
                     Sched.yield ())));
          Sched.yield ();
          ignore
            (Sched.spawn (fun () ->
                 guarded mgr ~committed ~victims 3 (fun () ->
                     Mgr.acquire mgr ~txn:3 g Mode.E)));
          Sched.yield ();
          check
            Alcotest.(list (pair int (list int)))
            "the writer waits behind the reader alone"
            [ (2, [ 1 ]); (3, [ 2 ]) ]
            (List.map (fun w -> (w.Mgr.w_txn, w.Mgr.w_blockers)) (Mgr.waits mgr));
          Mgr.release_all mgr ~txn:1;
          check Alcotest.(list int) "reader granted when the E owner leaves" [ 2 ]
            (List.map fst (holders mgr g));
          check
            Alcotest.(list (pair int (list int)))
            "the writer still waits for the reader"
            [ (3, [ 2 ]) ]
            (List.map (fun w -> (w.Mgr.w_txn, w.Mgr.w_blockers)) (Mgr.waits mgr)));
      check Alcotest.(list int) "no deadlock" [] !victims;
      check Alcotest.(list int) "reader first, then writer" [ 3; 2 ] !committed)

(* A seeded random schedule of acquisitions (conversions among them) and
   releases by six transactions on three names. After every step the lock
   table is checked against a model of the grant rule: every waiting
   request has a blocker, and none could be granted. At the end every
   transaction finishes. *)
let random_schedule ~modes seed =
  with_mgr (fun mgr _ ->
      let rng = Random.State.make [| seed |] in
      let names = [| key "a"; key "b"; key "c" |] and n_txns = 6 in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let busy = Array.make (n_txns + 1) false in
      let compat a b = Mode.compat ~requested:a ~granted:b in
      let check_table step =
        List.iter
          (fun w ->
            if w.Mgr.w_blockers = [] then
              Alcotest.failf "seed %d step %d: txn %d waits with no blocker" seed step
                w.Mgr.w_txn)
          (Mgr.waits mgr);
        List.iter
          (fun (name, owners, queue) ->
            List.iteri
              (fun i (txn, target, convert, _) ->
                let ahead = List.filteri (fun j _ -> j < i) queue in
                let owners_ok =
                  List.for_all (fun (o, m) -> o = txn || compat target m) owners
                in
                let conflict (t', m', _, _) =
                  t' <> txn && not (compat target m' && compat m' target)
                in
                if owners_ok && (convert || not (List.exists conflict ahead)) then
                  Alcotest.failf "seed %d step %d: txn %d waits for %a though grantable"
                    seed step txn Name.pp name)
              queue)
          (Mgr.dump mgr)
      in
      Sched.run ~policy:Sched.Fifo (fun () ->
          for step = 1 to 300 do
            let txn = 1 + Random.State.int rng n_txns in
            if not busy.(txn) then begin
              if Random.State.int rng 5 = 0 then Mgr.release_all mgr ~txn
              else begin
                let name = pick names and mode = pick modes in
                busy.(txn) <- true;
                ignore
                  (Sched.spawn (fun () ->
                       (try Mgr.acquire mgr ~txn name mode
                        with Mgr.Deadlock _ -> Mgr.release_all mgr ~txn);
                       busy.(txn) <- false))
              end
            end;
            Sched.yield ();
            Sched.yield ();
            check_table step
          done;
          while Array.exists Fun.id busy do
            for txn = 1 to n_txns do
              if not busy.(txn) then Mgr.release_all mgr ~txn
            done;
            Sched.yield ()
          done;
          for txn = 1 to n_txns do
            Mgr.release_all mgr ~txn
          done);
      if not (Array.for_all (Mgr.unlocked mgr) names) then
        Alcotest.failf "seed %d: locks left after every transaction ended" seed)

let test_random_schedule () =
  for seed = 1 to 50 do
    random_schedule ~modes:[| Mode.S; Mode.E; Mode.X |] seed
  done;
  (* intention modes add conversions that do not conflict with every
     request (IX to SIX) and one that widens what a lock admits (IS to E) *)
  for seed = 1 to 200 do
    random_schedule ~modes:[| Mode.IS; Mode.IX; Mode.S; Mode.E; Mode.X; Mode.U |] seed
  done

let () =
  Alcotest.run "lock"
    [
      ( "matrix",
        [
          Alcotest.test_case "escrow" `Quick test_escrow_compat;
          Alcotest.test_case "classic" `Quick test_classic_matrix;
          Alcotest.test_case "key-range" `Quick test_range_matrix;
          Alcotest.test_case "sup/covers" `Quick test_sup;
        ] );
      ( "manager",
        [
          Alcotest.test_case "grant and release" `Quick test_grant_and_release;
          Alcotest.test_case "reentrant" `Quick test_reentrant;
          Alcotest.test_case "escrow group" `Quick test_escrow_group;
          Alcotest.test_case "blocking/wakeup" `Quick test_blocking_and_wakeup;
          Alcotest.test_case "fifo fairness" `Quick test_fifo_fairness_no_starvation;
          Alcotest.test_case "held reporting" `Quick test_held_reporting;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "detection" `Quick test_deadlock_detection;
          Alcotest.test_case "conversion deadlock" `Quick test_conversion_deadlock;
          Alcotest.test_case "victim removal unblocks queue" `Quick
            test_victim_removal_unblocks_queue;
          Alcotest.test_case "skip-ahead grant" `Quick test_skip_ahead_grant;
        ] );
      ( "escrow pass",
        [
          Alcotest.test_case "writers pass readers" `Quick test_writers_pass_readers;
          Alcotest.test_case "fresh writer queues behind reader" `Quick
            test_fresh_writer_queues_behind_reader;
          Alcotest.test_case "random schedule" `Quick test_random_schedule;
        ] );
      ( "instant",
        [
          Alcotest.test_case "not retained" `Quick test_instant_lock_not_retained;
          Alcotest.test_case "waits for conflicts" `Quick test_instant_lock_waits;
        ] );
    ]
