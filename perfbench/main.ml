(* Benchmark entry point: runs one workload for a time budget and prints
   its checks, then its metrics as one JSON object on the last line.

   A run is a sequence of rounds. Each round builds a fresh system (the
   set-up phase), drives a fixed, seeded amount of work through it (the
   measured phase) and checks the outcome. The first [draws] rounds each
   draw their own inputs from the seed, and tick-clock metrics pool them,
   so those metrics are exact per seed while averaging over more inputs
   than one round holds. Further rounds, until [--seconds] have passed,
   replay those inputs in turn and must match them exactly; wall-clock
   metrics are medians over every round. With [--trace 1] each round is
   followed by a traced replay, which gives the per-layer metrics and the
   span file. *)

let workloads =
  [
    ("escrow-write", Inproc.run Inproc.escrow_write);
    ("view-read", Inproc.run Inproc.view_read);
    ("sql-served", Served.run);
    ("cluster-2pc", Cluster.run);
  ]

(* Rounds with inputs of their own per run: as many as fit in about
   twenty seconds on every workload. Pooling four cut the spread between
   seeds of the tick-clock metrics by about half against one round. *)
let draws = 4

(* Round [k] of seed [s] draws its inputs from seed [s * 256 + k]. *)
let input_seed seed k = (seed * 256) + k

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale F] \
   [--trace-out FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and scale = ref 1. and trace_out = ref "" in
  let names = List.map fst workloads in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of the workloads below");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " time budget for repeating rounds");
      ("--trace", Arg.Set_int trace, " 1: report per-layer metrics from traced replays");
      ("--scale", Arg.Set_float scale, " work per round relative to the full size");
      ("--trace-out", Arg.Set_string trace_out, " span file of the first traced replay");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    (usage ^ "\nworkloads: " ^ String.concat ", " names);
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " names);
        exit 2
  in
  let seed = !seed and scale = !scale in
  let trace_out =
    if !trace_out <> "" then !trace_out
    else Printf.sprintf "perfbench/out/trace-%s-seed%d.jsonl" !workload seed
  in
  let deadline = Refclock.now_ns () + truncate (!seconds *. 1e9) in
  let rounds = ref [] and traced = ref [] in
  let rec loop i =
    let inputs = input_seed seed (i mod draws) in
    let r = run ~seed:inputs ~scale ~tr:None in
    Printf.printf
      "round %d (inputs %d): setup %.3f s, measured %.3f s (raw %.3f s), %d txns, %d ticks\n%!"
      i inputs (Refclock.seconds r.Load.setup) (Refclock.seconds r.l.clock)
      (Refclock.raw_seconds r.l.clock) r.l.committed r.ticks;
    rounds := r :: !rounds;
    if !trace = 1 then begin
      let t = Spans.create () in
      let r' = run ~seed:inputs ~scale ~tr:(Some t) in
      let a = Spans.analyze t in
      if i = 0 then begin
        let rec mkdir_p d =
          if not (Sys.file_exists d) then begin
            mkdir_p (Filename.dirname d);
            Sys.mkdir d 0o755
          end
        in
        mkdir_p (Filename.dirname trace_out);
        Spans.write_jsonl t a trace_out;
        Printf.printf "spans: %d written to %s\n" (Array.length a.by_id) trace_out
      end;
      traced := (i, Report.fingerprint r', Report.digest_trace r' a) :: !traced
    end;
    Gc.compact ();
    if i + 1 < draws || Refclock.now_ns () < deadline then loop (i + 1)
  in
  loop 0;
  let rounds = List.rev !rounds and traced = List.rev !traced in
  let distinct = List.filteri (fun i _ -> i < draws) rounds in
  let pooled = Load.pool distinct in
  let original i = List.nth distinct (i mod draws) in
  let replays_match i r =
    Report.fingerprint r = Report.fingerprint (original i)
    && r.Load.live_words = (original i).live_words
  in
  let checks =
    List.map
      (fun (name, _) ->
        ( name,
          List.for_all (fun r -> List.assoc_opt name r.Load.l.checks = Some true) rounds
        ))
      (List.rev (List.hd rounds).l.checks)
    @ [
        ( Printf.sprintf "%d rounds on %d inputs replay identically on the tick clock"
            (List.length rounds) draws,
          List.for_all Fun.id (List.mapi replays_match rounds)
          (* a traced replay keeps its spans live, so only its ticks compare *)
          && List.for_all
               (fun (i, f, _) -> f = Report.fingerprint (original i))
               traced );
      ]
    @ (if scale < 1. then []
       else
         (* a reported percentile needs ten samples beyond it; escrow-write
            has no readers, and its read percentiles read 0 *)
         let l = pooled.l in
         [
           ( Printf.sprintf "percentile samples: %d writes, %d reads, %d transactions"
               (Sample.length l.writes) (Sample.length l.reads)
               (Sample.length (Report.all_txns l)),
             List.for_all
               (fun s -> Sample.beyond s Report.tail >= 10)
               ([ l.writes; Report.all_txns l ]
               @ if Sample.length l.reads > 0 then [ l.reads ] else []) );
         ])
    @ List.map
        (fun (_, _, (d : Report.traced)) ->
          ( Printf.sprintf
              "traced replay: %d spans, all closed, self times sum to roots (worst %.2g)"
              d.spans d.sum_error,
            d.unclosed = 0 && d.sum_error <= 0.01 ))
        traced
  in
  List.iter
    (fun (name, ok) ->
      Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") name)
    checks;
  let metrics =
    if !trace = 1 then
      Report.per_layer ~distinct rounds
        (List.filter_map (fun (i, _, d) -> if i < draws then Some d else None) traced)
    else Report.end_to_end ~distinct rounds
  in
  List.iter
    (fun (m : Metric.t) ->
      Printf.printf "%-36s %s %s\n" m.name (Metric.number m.value) m.unit_)
    metrics;
  let correct = List.for_all snd checks in
  print_endline
    (Metric.result_line ~correct ~attempted:pooled.l.attempted ~failed:pooled.l.failed
       metrics);
  exit (if correct then 0 else 1)
