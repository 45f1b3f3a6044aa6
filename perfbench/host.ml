(* Host speed.  The shared host this benchmark runs on changes speed by
   up to a third over tens of seconds, in CPU time as much as in wall
   time, so two runs of the same code minutes apart can differ by more
   than any bound on a plain wall time.  A fixed reference kernel, run
   right before and right after each timed piece of work, measures how
   fast the host was at that moment.  Each fit and Krylov item's time
   is reported scaled to a host on which the kernel takes [nominal_s]
   (a probe is the median of three runs of the kernel):

     normalized = measured * nominal_s / mean (probe before, probe after)

   The kernel is the benchmark's own code, so a change to the program
   moves the normalized time by the same factor as the measured one.  The
   raw times are printed beside the normalized ones.  Set-up and the
   fleet's CPU time are not normalized: they run in several processes,
   and probes taken in this one did not track them. *)

let n = 128

(* allocated once: the kernel itself allocates nothing *)
let a = Array.init (n * n) (fun i -> float_of_int (i mod 17) *. 0.1)
let b = Array.init (n * n) (fun i -> float_of_int (i mod 13) *. 0.2)
let c = Array.make (n * n) 0.

(* two naive dense products, 2 n^3 flops each over 400 KB of operands *)
let kernel () =
  Array.fill c 0 (n * n) 0.;
  for _ = 1 to 2 do
    for i = 0 to n - 1 do
      for k = 0 to n - 1 do
        let aik = Array.unsafe_get a ((i * n) + k) in
        for j = 0 to n - 1 do
          let ij = (i * n) + j in
          Array.unsafe_set c ij
            (Array.unsafe_get c ij +. (aik *. Array.unsafe_get b ((k * n) + j)))
        done
      done
    done
  done

(* The kernel's time on this benchmark's reference host (2 shared
   vCPUs) in its usual state. *)
let nominal_s = 0.010

(* the median of three runs: a single run is off by up to a third
   whenever an interrupt or a neighbour's burst lands in it *)
let probe () = Util.median (List.init 3 (fun _ -> snd (Util.time kernel)))

let scale ~before ~after = nominal_s /. ((before +. after) /. 2.)
