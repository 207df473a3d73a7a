(* Spans around the benchmark's calls into each layer.

   A span has a name (the layer), a start and an end, the span that
   caused it and the op it belongs to.  Spans are kept in memory while
   tracing is on and written out when the run ends; with tracing off,
   [span] is a plain call. *)

type t = {
  sid : int;
  name : string;
  op : int;           (* op execution the span belongs to *)
  parent : int;       (* sid of the enclosing span, -1 for an op root *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let cur_op = ref (-1)
let next = ref 0
let stack : int list ref = ref []
let recorded : t list ref = ref []   (* newest first *)

let now = Unix.gettimeofday

let span name f =
  if not !enabled then f ()
  else begin
    let s =
      { sid = !next; name; op = !cur_op;
        parent = (match !stack with p :: _ -> p | [] -> -1);
        t0 = now (); t1 = 0. }
    in
    incr next;
    stack := s.sid :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

let all () = List.rev !recorded

(* Self time of every span: its duration minus the part its children
   cover (children never overlap: one request is in flight). *)
let self_times (spans : t list) : (t * float) list =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = s.t1 -. s.t0 in
        Hashtbl.replace child s.parent
          (d +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child s.sid) in
      (s, s.t1 -. s.t0 -. covered))
    spans

(* One JSON object per line: name, op, id, parent, start/end in
   microseconds from the first span. *)
let write path =
  let spans = all () in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"op\":%d,\"id\":%d,\"parent\":%d,\"start_us\":%.1f,\
         \"end_us\":%.1f}\n"
        s.name s.op s.sid s.parent
        ((s.t0 -. base) *. 1e6) ((s.t1 -. base) *. 1e6))
    spans;
  close_out oc
