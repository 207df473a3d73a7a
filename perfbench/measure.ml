(* What the three workloads share: timed ops, the correctness tally,
   per-layer accumulators and the statistics of the result line. *)

let now = Unix.gettimeofday

(* One timed op: [id] is stable across rounds (the same id is the same
   work in every round), [exec] is unique in the run and keys its
   spans. *)
type op = {
  id : int;
  cls : string;     (* op class: latency metrics are taken per class *)
  label : string;   (* human-readable, for the self-time table *)
  wall : float;     (* seconds *)
  exec : int;
}

let attempted = ref 0
let failed = ref 0
let correct = ref true
let round_ops : op list ref = ref []
let exec_next = ref 0

let wrong fmt =
  Printf.ksprintf
    (fun m ->
      correct := false;
      prerr_endline ("perfbench: wrong output: " ^ m))
    fmt

(* Words allocated and major cycles completed inside untraced ops. *)
let gc_minor_words = ref 0.
let gc_major_collections = ref 0

(* Run [f] as op [id], timed from outside.  An exception counts the op
   as failed (its wall is not kept).  With [settle] (the default), a
   major collection before the op, outside its timer, finishes the
   garbage of earlier ops: each op then pays the collector for its own
   allocation only, whatever ran before it.  Measured on eval over six
   seeds, this halved the spread of its latencies. *)
let op ?(settle = true) ~id ~cls ~label f =
  if settle then Gc.full_major ();
  incr attempted;
  let exec = !exec_next in
  incr exec_next;
  Span.cur_op := exec;
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  match Span.span "op" f with
  | v ->
    let wall = now () -. t0 in
    if not !Span.enabled then begin
      let g1 = Gc.quick_stat () in
      gc_minor_words := !gc_minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
      gc_major_collections :=
        !gc_major_collections + g1.Gc.major_collections - g0.Gc.major_collections
    end;
    round_ops := { id; cls; label; wall; exec } :: !round_ops;
    Some v
  | exception e ->
    incr failed;
    Printf.eprintf "perfbench: op %d (%s) failed: %s\n%!" id label
      (Printexc.to_string e);
    None

(* Per-layer accumulators, filled in traced rounds only. *)
let layer : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  if !Span.enabled then
    Hashtbl.replace layer name
      (v +. Option.value ~default:0. (Hashtbl.find_opt layer name))

let get name = Option.value ~default:0. (Hashtbl.find_opt layer name)

(* ---- statistics ---- *)

(* Linear interpolation between closest ranks. *)
let percentile (xs : float list) p =
  match List.sort compare xs with
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. (r -. float_of_int i) *. (a.(i + 1) -. a.(i))

let median xs = percentile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs

(* Median latency of the ops of one class, in ms. *)
let class_p50_ms (ops : op list) cls =
  1000.
  *. median
       (List.filter_map
          (fun o -> if o.cls = cls then Some o.wall else None)
          ops)

(* Interquartile mean: the mean of the samples left after dropping the
   lowest and the highest quarter. *)
let iqm xs =
  let a = Array.of_list (List.sort compare xs) in
  let k = Array.length a / 4 in
  let mid = Array.sub a k (Array.length a - (2 * k)) in
  Array.fold_left ( +. ) 0. mid /. float_of_int (Array.length mid)

(* One op per id, with the interquartile mean of that id's walls over
   the rounds.  Every round runs the same ops, so a slow stretch of the
   host moves some samples of an op, not its typical latency.  Over
   eight eval and six serve runs it kept the spread of every latency
   metric near 0.1: as low as the mean on eval (3 rounds a run) and
   close to the median on serve (6-7 rounds, with outliers); each of
   those two reached 0.13-0.2 on the other workload. *)
let per_id (ops : op list) : op list =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun o ->
      Hashtbl.replace tbl o.id
        (o :: Option.value ~default:[] (Hashtbl.find_opt tbl o.id)))
    ops;
  Hashtbl.fold
    (fun _ os acc ->
      { (List.hd os) with wall = iqm (List.map (fun o -> o.wall) os) } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.id b.id)

(* ---- helpers ---- *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Spec_stress.Srng.below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Scratch space inside the checkout: caches, sockets, traces. *)
let work_dir = ".perfbench"

let ensure_dir d =
  if not (Sys.file_exists d) then Unix.mkdir d 0o755

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* Peak resident set of this process, from VmHWM. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.
