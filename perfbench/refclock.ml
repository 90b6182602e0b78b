(* Reference-normalized wall time.

   Wall time on a shared VM drifts by tens of percent between runs of
   identical code, in phases that last seconds. A phase therefore times a
   fixed stdlib-only kernel at its start and end and whenever
   [sample_every_ns] of work have passed since the last sample (checked
   after every commit and every preload batch), and reports

     normalized s = (elapsed - kernel time) * nominal_ms / mean kernel ms

   i.e. its time on a machine that runs the kernel in [nominal_ms]. The
   kernel calls no ivdb code, so a faster engine cannot speed up the
   yardstick and cancel its own gain, and it performs no scheduler
   effects, so it costs zero simulated ticks. *)

let nominal_ms = 5.0

(* Sampling every 20 ms cut the run-to-run spread of normalized
   throughput to 1.4-3.7% where sampling every 100 ms left 3.9-4.3%
   (raw: 12-14%), at the price of a kernel run per 20 ms of work. *)
let sample_every_ns = 20_000_000

(* Two halves, about 2.5 ms each. A CPU half: open-addressing inserts,
   an in-place sort and string hashing over buffers allocated once. An
   allocation half: short lists of tuples and strings that die young.
   Either half alone tracked the engine's slowdowns worse than both
   together. The kernel keeps nothing it allocates, so its speed barely
   depends on the heap the engine has built: an earlier kernel that kept
   its Hashtbl and Map alive ran 1.3-1.7x slower beside a large live
   heap, which would have let an engine that shrinks its heap look
   slower; this one runs within 3% alike in set-up (small heap) and in
   the measured phase. *)
let table = Array.make 65536 (-1)
let scratch = Array.make 10_000 0
let source = Array.init 10_000 (fun i -> i * 2654435761 land 0xfffffff)

let strings =
  Array.init 2000 (fun i -> String.make 24 (Char.chr (97 + (i mod 26))) ^ string_of_int i)

let kernel () =
  Array.fill table 0 (Array.length table) (-1);
  for i = 0 to 14_999 do
    let k = i * 7919 land 0xfffff in
    let j = ref (k * 40503 land 0xffff) in
    while table.(!j) >= 0 && table.(!j) <> k do
      j := (!j + 1) land 0xffff
    done;
    table.(!j) <- k
  done;
  Array.blit source 0 scratch 0 (Array.length source);
  Array.sort compare scratch;
  let h = ref 0 in
  for r = 0 to 4 do
    Array.iter (fun s -> h := (!h lxor Hashtbl.hash s) + r) strings
  done;
  for r = 0 to 29 do
    let l = List.init 1000 (fun i -> (i + r, string_of_int i)) in
    h := !h + List.fold_left (fun a (x, s) -> a + x + String.length s) 0 l
  done;
  ignore (Sys.opaque_identity !h)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Wall time with every kernel run cut out: the clock of the spans, so a
   kernel sample taken by one session does not land inside the open
   spans of the others. *)
let kernel_total_ns = ref 0
let work_ns () = now_ns () - !kernel_total_ns
let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

type t = {
  t0 : int;
  mutable last : int;  (** end of the latest sample *)
  mutable t1 : int;
  mutable kernel_ns : int;
  mutable kernel_words : float;
  samples : Sample.t;  (** kernel milliseconds *)
}

let sample t =
  let w = alloc_words () in
  let a = now_ns () in
  kernel ();
  let b = now_ns () in
  t.kernel_ns <- t.kernel_ns + (b - a);
  kernel_total_ns := !kernel_total_ns + (b - a);
  t.last <- b;
  t.kernel_words <- t.kernel_words +. (alloc_words () -. w);
  Sample.add t.samples (float_of_int (b - a) /. 1e6)

let start () =
  let t =
    {
      t0 = now_ns ();
      last = 0;
      t1 = 0;
      kernel_ns = 0;
      kernel_words = 0.;
      samples = Sample.create ();
    }
  in
  sample t;
  t

let tick t = if now_ns () - t.last >= sample_every_ns then sample t

let stop t =
  sample t;
  t.t1 <- now_ns ()

let raw_seconds t = float_of_int (t.t1 - t.t0 - t.kernel_ns) /. 1e9
let seconds t = raw_seconds t *. nominal_ms /. Sample.mean t.samples
